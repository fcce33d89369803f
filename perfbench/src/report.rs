//! The result: human-readable lines as metrics are computed, then one
//! JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::client::{JobRec, Outcome};
use crate::stats::{iq_mean, quantile, summary};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Jobs whose output differed from the oracle's (also in `failed`).
    pub mismatched: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count every job in `recs` as attempted, and each one not `Ok`
    /// as failed.
    pub fn count(&mut self, recs: &[JobRec]) {
        for r in recs {
            self.attempted += 1;
            match r.outcome {
                Outcome::Ok => {}
                Outcome::Mismatch => {
                    self.failed += 1;
                    self.mismatched += 1;
                }
                Outcome::Failed => self.failed += 1,
            }
        }
    }

    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                x.name,
                v,
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.mismatched == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Prints one metric as its value with the median, quartiles and count
/// of the samples it summarizes.
pub fn line(name: &str, value: f64, unit: &str, samples: &[f64]) {
    let s = summary(samples);
    println!(
        "  {name:<18} {value:>12.4} {unit:<5} (median {:.4}, p25 {:.4}, p75 {:.4}, n={})",
        s.p50, s.p25, s.p75, s.n
    );
}

/// One set-up plus its share of the measured window. A run measures
/// several short rounds, each with a set-up of its own, because the
/// reference host runs in two states: a fast one and one about 1.7x
/// slower, switching every second or so as neighbours load the machine.
/// Summarizing over rounds keeps that switching out of the result (see
/// [`emit`]).
pub struct Round {
    pub setup_s: f64,
    /// Jobs whose latency is reported.
    pub latency: Vec<JobRec>,
    /// Useful flops of verified jobs over the throughput window.
    pub gflops: f64,
    /// Jobs per second at saturation.
    pub capacity: f64,
    /// Largest resident set sampled while serving, MiB.
    pub rss_mb: f64,
}

impl Round {
    /// A closed-loop round: throughput over the summed job latency, the
    /// time the client had a job outstanding.
    pub fn closed(setup_s: f64, latency: Vec<JobRec>) -> Round {
        let busy: f64 = latency.iter().map(|r| r.latency_s).sum();
        let flops: f64 = latency
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(|r| r.flops)
            .sum();
        Round {
            setup_s,
            gflops: flops / busy / 1e9,
            capacity: latency.len() as f64 / busy,
            rss_mb: crate::client::take_peak_rss_mb(),
            latency,
        }
    }
}

/// Prints every end-to-end metric of `rounds` and adds the gated ones
/// to `rep`. Set-up time and memory are medians over rounds; throughput
/// is the upper quartile over rounds; a latency percentile is taken in
/// each round and averaged over the middle half of the rounds (the
/// interquartile mean), so neither a round on the slow side of the
/// host nor a rare pile-up of long jobs in one round moves it.
/// `slo_s` is the latency limit of an open-loop workload.
pub fn emit(rounds: &[Round], slo_s: Option<f64>, rep: &mut Report) {
    let col = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ms = |r: &Round| -> Vec<f64> { r.latency.iter().map(|j| j.latency_s * 1e3).collect() };
    let (setup, rss, gflops, capacity, p50s, p99s) = (
        col(&|r| r.setup_s),
        col(&|r| r.rss_mb),
        col(&|r| r.gflops),
        col(&|r| r.capacity),
        col(&|r| quantile(&ms(r), 0.5)),
        col(&|r| quantile(&ms(r), 0.99)),
    );
    let metrics = [
        ("setup_s", quantile(&setup, 0.5), "s", &setup),
        ("peak_rss_mb", quantile(&rss, 0.5), "MiB", &rss),
        ("gflops", quantile(&gflops, 0.75), "GF/s", &gflops),
        ("latency_p50_ms", iq_mean(&p50s), "ms", &p50s),
        ("latency_p99_ms", iq_mean(&p99s), "ms", &p99s),
        (
            "capacity_jobs_s",
            quantile(&capacity, 0.75),
            "1/s",
            &capacity,
        ),
    ];
    println!(
        "end-to-end over {} rounds (set-up and memory: median of rounds; throughput: upper quartile of rounds; latency: interquartile mean of the rounds' percentiles):",
        rounds.len()
    );
    for (name, value, unit, samples) in metrics {
        line(name, value, unit, samples);
        rep.add(name, value, unit);
    }
    let all: Vec<f64> = rounds.iter().flat_map(ms).collect();
    let beyond: usize = rounds
        .iter()
        .zip(&p99s)
        .map(|(r, &p99)| ms(r).iter().filter(|&&l| l > p99).count())
        .sum();
    println!(
        "  (all rounds pooled: {} jobs, latency p50 {:.4} ms, p99 {:.4} ms; {beyond} jobs beyond their round's p99)",
        all.len(),
        quantile(&all, 0.5),
        quantile(&all, 0.99)
    );
    println!(
        "  failed_frac        {:>12.6}       ({} of {} attempted; {} wrong outputs)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted,
        rep.mismatched
    );
    if let Some(limit) = slo_s {
        let jobs: Vec<&JobRec> = rounds.iter().flat_map(|r| &r.latency).collect();
        let miss = jobs
            .iter()
            .filter(|r| r.outcome != Outcome::Ok || r.latency_s > limit)
            .count();
        println!(
            "  slo_miss_frac      {:>12.6}       (over {:.0} ms or failed: {miss} of {})",
            miss as f64 / jobs.len().max(1) as f64,
            limit * 1e3,
            jobs.len()
        );
    }
}
