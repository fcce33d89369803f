//! The load generator: closed-loop, open-loop and burst loops that
//! submit jobs to a `stencil-server` and record what each one cost.
//!
//! Each loop runs on the calling thread, which together with the server's
//! dispatcher makes at most two busy threads. Outputs are checked
//! against the oracle as they come back; in a closed loop that happens
//! between jobs, outside every latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use stencil_core::AnyGrid;
use stencil_server::{CacheOutcome, JobError, JobHandle, JobOutput, JobSpec, Server};

use crate::gen::Rng;
use crate::trace::Tracer;

/// One generated job and what it is worth.
pub struct Job {
    /// Index of the job's plan key in its workload's catalog.
    pub kind: usize,
    pub steps: usize,
    /// Useful stencil flops of the job.
    pub flops: f64,
    pub spec: JobSpec,
}

/// A workload's job stream plus its oracle.
pub trait Source {
    fn next(&mut self) -> Job;
    /// Whether `out` is bitwise what the scalar oracle produces for
    /// this kind and step count. May keep `out` for reuse.
    fn check(&mut self, kind: usize, steps: usize, out: AnyGrid) -> bool;
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Ran, but the output differs from the oracle's.
    Mismatch,
    /// Refused by `submit`, or failed, cancelled or timed out.
    Failed,
}

/// What one job cost, as seen from the client.
#[derive(Clone, Debug)]
pub struct JobRec {
    /// Client sequence number; the span id of the job.
    pub seq: u64,
    pub kind: usize,
    pub steps: usize,
    pub flops: f64,
    /// Submit (closed loop) or due time (open loop) to completion.
    pub latency_s: f64,
    /// The server's own sweep time (`RunTrace::seconds`).
    pub run_s: f64,
    pub hit: bool,
    /// Time spent inside `Server::submit`.
    pub submit_s: f64,
    /// How late the generator submitted (open loop only).
    pub late_s: f64,
    /// `queued_jobs()` just before submitting (traced runs only).
    pub queue_depth: usize,
    pub outcome: Outcome,
}

impl JobRec {
    fn new(seq: u64, job: &Job) -> JobRec {
        JobRec {
            seq,
            kind: job.kind,
            steps: job.steps,
            flops: job.flops,
            latency_s: 0.0,
            run_s: 0.0,
            hit: false,
            submit_s: 0.0,
            late_s: 0.0,
            queue_depth: 0,
            outcome: Outcome::Failed,
        }
    }

    fn finish(&mut self, src: &mut dyn Source, res: Result<JobOutput, JobError>) {
        match res {
            Ok(out) => {
                self.run_s = out.trace.seconds;
                self.hit = out.trace.cache == CacheOutcome::Hit;
                self.outcome = if src.check(self.kind, self.steps, out.grid) {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                };
            }
            Err(e) => {
                eprintln!("perfbench: job {} failed: {e}", self.seq);
                self.outcome = Outcome::Failed;
            }
        }
    }
}

/// Largest resident set seen by [`sample_rss`] since the last
/// [`take_peak_rss_mb`], in pages.
static PEAK_RSS_PAGES: AtomicU64 = AtomicU64::new(0);

/// Records the current resident set (from `/proc/self/statm`).
pub fn sample_rss() {
    let pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok());
    if let Some(p) = pages {
        PEAK_RSS_PAGES.fetch_max(p, Ordering::Relaxed);
    }
}

/// The largest resident set sampled since the last call, in MiB
/// (4 KiB pages), and a reset.
pub fn take_peak_rss_mb() -> f64 {
    PEAK_RSS_PAGES.swap(0, Ordering::Relaxed) as f64 * 4096.0 / (1 << 20) as f64
}

/// Samples `queued_jobs()` under a span when tracing.
fn queue_depth(server: &Server, tr: &mut Tracer, seq: u64) -> usize {
    if !tr.on() {
        return 0;
    }
    tr.time(seq, "server.queued_jobs", "job", || server.queued_jobs())
        .0
}

/// One client, one job outstanding: submit, wait, check, repeat until
/// the summed latency reaches `budget_s` and the job count is a
/// multiple of `batch` (so every kind in a rotation is equally
/// represented).
pub fn closed_loop(
    server: &Server,
    src: &mut dyn Source,
    budget_s: f64,
    batch: usize,
    tr: &mut Tracer,
) -> Vec<JobRec> {
    let mut recs: Vec<JobRec> = Vec::new();
    let mut busy = 0.0;
    while recs.is_empty() || busy < budget_s || !recs.len().is_multiple_of(batch.max(1)) {
        let job = src.next();
        let seq = recs.len() as u64;
        let mut rec = JobRec::new(seq, &job);
        rec.queue_depth = queue_depth(server, tr, seq);
        let t0 = Instant::now();
        let sub = server.submit(job.spec);
        let t1 = Instant::now();
        rec.submit_s = (t1 - t0).as_secs_f64();
        match sub {
            Ok(h) => {
                let res = h.wait();
                let t2 = Instant::now();
                rec.latency_s = (t2 - t0).as_secs_f64();
                tr.span(seq, "job", "", t0, t2);
                tr.span(seq, "server.submit", "job", t0, t1);
                tr.span(seq, "server.wait", "job", t1, t2);
                rec.finish(src, res);
            }
            Err(e) => {
                eprintln!("perfbench: job {seq} refused: {e}");
                rec.latency_s = rec.submit_s;
            }
        }
        busy += rec.latency_s;
        recs.push(rec);
        sample_rss();
    }
    recs
}

struct Pending {
    handle: JobHandle,
    rec: JobRec,
    /// When the job counts from: its due time, or its submit time.
    from: Instant,
    submitted: Instant,
}

/// Submits one job, recording refusals straight into `recs`.
fn submit_one(
    server: &Server,
    job: Job,
    seq: u64,
    from: Instant,
    tr: &mut Tracer,
    pending: &mut Vec<Pending>,
    recs: &mut Vec<JobRec>,
) {
    let mut rec = JobRec::new(seq, &job);
    rec.queue_depth = queue_depth(server, tr, seq);
    let t0 = Instant::now();
    let sub = server.submit(job.spec);
    let t1 = Instant::now();
    rec.submit_s = (t1 - t0).as_secs_f64();
    rec.late_s = t0.saturating_duration_since(from).as_secs_f64();
    tr.span(seq, "server.submit", "job", t0, t1);
    match sub {
        Ok(handle) => pending.push(Pending {
            handle,
            rec,
            from,
            submitted: t1,
        }),
        Err(e) => {
            eprintln!("perfbench: job {seq} refused: {e}");
            rec.latency_s = (t1 - from).as_secs_f64();
            recs.push(rec);
        }
    }
}

/// Collects every finished job in `pending`; returns how many.
fn poll(
    src: &mut dyn Source,
    tr: &mut Tracer,
    pending: &mut Vec<Pending>,
    recs: &mut Vec<JobRec>,
) -> usize {
    let mut done = 0;
    let mut i = 0;
    while i < pending.len() {
        if !pending[i].handle.is_finished() {
            i += 1;
            continue;
        }
        let now = Instant::now();
        let p = pending.swap_remove(i);
        let mut rec = p.rec;
        rec.latency_s = (now - p.from).as_secs_f64();
        tr.span(rec.seq, "job", "", p.from, now);
        tr.span(rec.seq, "server.wait", "job", p.submitted, now);
        rec.finish(src, p.handle.wait());
        recs.push(rec);
        done += 1;
    }
    done
}

/// Open loop: Poisson arrivals at `rate` jobs/s for `window_s`, each
/// timed from when it was due. The single client thread submits when a
/// job falls due and otherwise polls for completions, so a completion
/// is seen within one poll pass of happening.
pub fn open_loop(
    server: &Server,
    src: &mut dyn Source,
    rate: f64,
    window_s: f64,
    rng: &mut Rng,
    seq0: u64,
    tr: &mut Tracer,
) -> Vec<JobRec> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(window_s);
    let mut due = start + Duration::from_secs_f64(rng.exp_gap(rate));
    let mut seq = seq0;
    let mut pending = Vec::new();
    let mut recs = Vec::new();
    let mut next_sample = start;
    loop {
        let now = Instant::now();
        if now >= next_sample {
            sample_rss();
            next_sample = now + Duration::from_millis(10);
        }
        if due < end && now >= due {
            submit_one(server, src.next(), seq, due, tr, &mut pending, &mut recs);
            seq += 1;
            due += Duration::from_secs_f64(rng.exp_gap(rate));
            continue;
        }
        poll(src, tr, &mut pending, &mut recs);
        if due >= end && pending.is_empty() {
            break;
        }
        std::hint::spin_loop();
    }
    recs.sort_by_key(|r| r.seq);
    recs
}

/// Saturating burst: keep `depth` jobs outstanding until `n` have been
/// submitted, then collect them all. Returns the records (latency from
/// each submit) and the seconds from the first submit to the last
/// completion.
pub fn burst(
    server: &Server,
    src: &mut dyn Source,
    n: usize,
    depth: usize,
    seq0: u64,
    tr: &mut Tracer,
) -> (Vec<JobRec>, f64) {
    let start = Instant::now();
    let mut pending = Vec::new();
    let mut recs = Vec::new();
    let mut sent = 0;
    let mut last = start;
    while sent < n || !pending.is_empty() {
        while sent < n && pending.len() < depth {
            let job = src.next();
            submit_one(
                server,
                job,
                seq0 + sent as u64,
                Instant::now(),
                tr,
                &mut pending,
                &mut recs,
            );
            sent += 1;
        }
        if poll(src, tr, &mut pending, &mut recs) > 0 {
            last = Instant::now();
            sample_rss();
        }
        std::hint::spin_loop();
    }
    recs.sort_by_key(|r| r.seq);
    (recs, (last - start).as_secs_f64())
}
