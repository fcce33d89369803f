//! `perfbench`: the repository benchmark. One command runs one seeded
//! workload through `stencil-server`, checks every output bitwise
//! against the scalar oracle, prints each metric by name and unit, and
//! ends with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload incache-seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same seed with spans around each layer's public calls and reports
//! the per-layer metrics, writing the spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod client;
mod gen;
mod grids;
mod host;
mod incache;
mod keys;
mod layers;
mod outcache;
mod report;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

const WORKLOADS: [&str; 3] = ["incache-seq", "outcache-par", "service-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}; host {} x {} cores",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        stencil_simd::Isa::detect_best(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut rep = Report::default();
    if args.trace {
        // Before the workload, so the memory-sized triad never overlaps
        // a large grid.
        let ceil = host::Ceilings::probe();
        layers::host_layer(&mut rep, &ceil);
        layers::kernel_layer(&mut rep, &ceil);
    }
    let run = match args.workload.as_str() {
        "incache-seq" => incache::run,
        "outcache-par" => outcache::run,
        _ => service::run,
    };
    let tr = run(args.seed, args.seconds, args.trace, &mut rep);
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("{} spans written to {}", tr.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        println!("per-layer:");
        for m in &rep.metrics {
            println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", rep.json());
    if rep.mismatched > 0 {
        eprintln!(
            "perfbench: {} outputs differ from the scalar oracle",
            rep.mismatched
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
