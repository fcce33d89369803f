//! `outcache-par`: one closed-loop client stepping one seeded 2D
//! 5-point periodic f64 grid far larger than the last-level cache.
//! Jobs alternate between untiled TL2 and tessellated TL2 at
//! `Threads(2)`, and every job starts from the same input, so one
//! scalar-oracle run per benchmark run checks them all. This exercises
//! the parallel bands, the wavefront scheduler, the staging arena, the
//! halo refresh and memory bandwidth; each untiled job also transforms
//! the whole grid's layout in and out.

use std::time::Instant;

use stencil_core::exec::{Method, Parallelism, Shape, Tiling};
use stencil_core::AnyGrid;
use stencil_server::Server;

use crate::client::{closed_loop, take_peak_rss_mb, Job, JobRec, Source};
use crate::gen;
use crate::grids::{array_bytes, bits_hash, flops, refill2};
use crate::keys::{decide, oracle, Key};
use crate::layers;
use crate::report::{emit, Report, Round};
use crate::trace::Tracer;

/// 12800² f64 = 1250 MiB per array: over 4x the 300 MiB LLC of the
/// reference host (and over 1.2 GiB).
pub const N: usize = 12800;
const STEPS: usize = 4;
const TILE: [usize; 3] = [256, 256, 0];
/// Set-ups per run; the window is split evenly between them.
const ROUNDS: u64 = 3;

fn keys() -> [Key; 2] {
    let mut untiled = Key::new("2d5p@periodic", Shape::d2(N, N), Method::TransLayout2);
    untiled.par = Parallelism::Threads(2);
    let tess = Key {
        tiling: Tiling::Tessellate {
            w: TILE,
            h: STEPS,
            threads: 2,
        },
        ..untiled.clone()
    };
    [untiled, tess]
}

struct Src {
    keys: [Key; 2],
    seed: u64,
    oracle: u64,
    /// The one grid, handed to each job and taken back from its output.
    grid: Option<AnyGrid>,
    n: usize,
    /// Seconds spent refilling and hashing the grid (harness work, kept
    /// out of the set-up time).
    harness_s: f64,
}

impl Source for Src {
    fn next(&mut self) -> Job {
        let kind = self.n % 2;
        self.n += 1;
        let mut grid = self.grid.take().expect("the grid is back between jobs");
        let t = Instant::now();
        refill2(&mut grid, self.seed);
        self.harness_s += t.elapsed().as_secs_f64();
        let key = &self.keys[kind];
        Job {
            kind,
            steps: STEPS,
            flops: flops(&key.spec, key.shape, STEPS),
            spec: key.job("client", grid, STEPS),
        }
    }

    fn check(&mut self, _kind: usize, _steps: usize, out: AnyGrid) -> bool {
        let t = Instant::now();
        let ok = bits_hash(&out) == self.oracle;
        self.harness_s += t.elapsed().as_secs_f64();
        self.grid = Some(out);
        ok
    }
}

/// Starts the server, generates the grid and warms both keys with one
/// verified job each. Returns the server, the source, the warm-up
/// records and the grid generation time.
fn setup(seed: u64, oracle: u64) -> (Server, Src, Vec<JobRec>, f64) {
    let server = Server::with_defaults();
    let t = Instant::now();
    let grid = gen::grid(&keys()[0].spec, Shape::d2(N, N), seed);
    let init_s = t.elapsed().as_secs_f64();
    let mut src = Src {
        keys: keys(),
        seed,
        oracle,
        grid: Some(grid),
        n: 0,
        harness_s: 0.0,
    };
    let warm = closed_loop(&server, &mut src, 0.0, 2, &mut Tracer::new(false));
    (server, src, warm, init_s)
}

pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) -> Tracer {
    let [untiled, tess] = keys();
    let bytes = array_bytes(&untiled.spec, untiled.shape);
    println!(
        "outcache-par: 2d5p@periodic f64 {N}x{N} ({} MiB per array), {STEPS} steps per job, TL2 untiled / tess({}x{}) at Threads(2); closed loop, 1 client",
        bytes >> 20,
        TILE[0],
        TILE[1]
    );
    let t = Instant::now();
    let want = oracle(
        &untiled.spec,
        gen::grid(&untiled.spec, untiled.shape, seed),
        &[STEPS],
    )[0];
    println!("scalar oracle: {:.2} s", t.elapsed().as_secs_f64());
    if !trace {
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let (server, mut src, warm, _) = setup(seed, want);
            let setup_s = t.elapsed().as_secs_f64() - src.harness_s;
            rep.count(&warm);
            take_peak_rss_mb();
            let recs = closed_loop(
                &server,
                &mut src,
                seconds / ROUNDS as f64,
                2,
                &mut Tracer::new(false),
            );
            rep.count(&recs);
            rounds.push(Round::closed(setup_s, recs));
        }
        emit(&rounds, None, rep);
        return Tracer::new(false);
    }

    let (server, mut src, warm, init_s) = setup(seed, want);
    rep.count(&warm);
    let window = seconds / 2.0;
    let plain = Round::closed(
        0.0,
        closed_loop(&server, &mut src, window, 2, &mut Tracer::new(false)),
    );
    rep.count(&plain.latency);
    let mut tr = Tracer::new(true);
    let before = server.cache_stats();
    src.n = 0;
    let traced = closed_loop(&server, &mut src, window, 2, &mut tr);
    let after = tr
        .time(0, "server.cache_stats", "", || server.cache_stats())
        .0;
    rep.count(&traced);
    drop(server);
    let traced = Round::closed(0.0, traced);
    rep.add(
        "trace.overhead_frac",
        plain.capacity / traced.capacity - 1.0,
        "ratio",
    );
    let busy: f64 = traced.latency.iter().map(|r| r.latency_s).sum();
    let mut input = src.grid.take().expect("the grid is back after the window");
    refill2(&mut input, seed);
    let replays = layers::replay_jobs(&traced.latency, |k| (&src.keys[k], &input), &mut tr);
    drop(input);
    let decisions = [decide(&untiled, STEPS), decide(&tess, STEPS)];
    layers::common_layers(
        rep,
        &traced.latency,
        before,
        after,
        busy,
        &replays,
        &untiled,
        init_s,
        &decisions,
    );
    let (tu, tt) = (replays[&(0, STEPS)].run_s, replays[&(1, STEPS)].run_s);
    // The single-thread baseline of the untiled job on the same grid.
    let off_key = Key {
        par: Parallelism::Off,
        ..untiled.clone()
    };
    let to = layers::oneshot_time(&off_key, STEPS, 1);
    println!("parallel: untiled t2 {tu:.3} s, tess t2 {tt:.3} s, untiled off {to:.3} s");
    rep.add("exec.tess_vs_untiled", tt / tu, "ratio");
    rep.add("exec.par_speedup", to / tu, "ratio");
    let dirichlet = Key {
        spec: "2d5p".parse().expect("paper stencil"),
        ..untiled.clone()
    };
    layers::halo_layer(rep, "2d5p", &dirichlet, STEPS, 0.0, 2);
    rep.add("client.gen_late_p99_ms", 0.0, "ms");
    tr
}
