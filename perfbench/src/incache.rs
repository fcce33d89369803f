//! `incache-seq`: one closed-loop client, one job outstanding, rotating
//! through the paper's six stencils x {TL, TL2} (f64, Dirichlet,
//! `Parallelism::Off`) at L1- and L2-resident sizes with long step
//! counts. Every key stays cached, so the kernels do almost all the
//! work: tiling, staging, halo refresh, parallel bands and plan-cache
//! misses are bypassed.

use std::time::Instant;

use stencil_core::exec::Method;
use stencil_core::{AnyGrid, StencilSpec};
use stencil_server::Server;

use crate::client::{closed_loop, take_peak_rss_mb, Job, JobRec, Source};
use crate::gen::{self, Rng};
use crate::grids::{bits_hash, flops};
use crate::keys::{decide, oracle, Key, STENCILS};
use crate::layers::{self, incache_shape, steps_for};
use crate::report::{emit, Report, Round};
use crate::trace::Tracer;

/// Flops per job: a few milliseconds of kernel time, so the server's
/// per-job overhead is a small share.
const JOB_FLOPS: f64 = 1e8;
/// Set-ups per run; the window is split evenly between them.
const ROUNDS: u64 = 10;

struct Catalog {
    keys: Vec<Key>,
    /// Per key: index into `inputs` (TL and TL2 share an input).
    input_of: Vec<usize>,
    steps: Vec<usize>,
    inputs: Vec<AnyGrid>,
}

fn catalog(seed: u64) -> Catalog {
    let mut c = Catalog {
        keys: Vec::new(),
        input_of: Vec::new(),
        steps: Vec::new(),
        inputs: Vec::new(),
    };
    for level in ["l1", "l2"] {
        for st in STENCILS {
            let ndim = st.parse::<StencilSpec>().expect("paper stencil").ndim();
            let base = Key::new(st, incache_shape(ndim, level), Method::TransLayout);
            let steps = steps_for(&base.spec, base.shape, JOB_FLOPS, 32);
            let input = c.inputs.len();
            c.inputs.push(gen::grid(
                &base.spec,
                base.shape,
                gen::mix(seed ^ input as u64),
            ));
            for m in [Method::TransLayout, Method::TransLayout2] {
                c.keys.push(Key {
                    method: m,
                    ..base.clone()
                });
                c.input_of.push(input);
                c.steps.push(steps);
            }
        }
    }
    c
}

/// Scalar-oracle output hash per input.
fn oracle_hashes(cat: &Catalog) -> Vec<u64> {
    (0..cat.inputs.len())
        .map(|i| {
            let kind = cat
                .input_of
                .iter()
                .position(|&x| x == i)
                .expect("every input has a key");
            oracle(
                &cat.keys[kind].spec,
                cat.inputs[i].clone(),
                &[cat.steps[kind]],
            )[0]
        })
        .collect()
}

/// Each rotation visits every key once, in a seeded order.
struct Src<'a> {
    cat: &'a Catalog,
    oracle: &'a [u64],
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl<'a> Src<'a> {
    fn new(cat: &'a Catalog, oracle: &'a [u64], seed: u64) -> Src<'a> {
        Src {
            cat,
            oracle,
            rng: Rng::new(seed),
            order: (0..cat.keys.len()).collect(),
            pos: cat.keys.len(),
        }
    }
}

impl Source for Src<'_> {
    fn next(&mut self) -> Job {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        let kind = self.order[self.pos];
        self.pos += 1;
        let key = &self.cat.keys[kind];
        let steps = self.cat.steps[kind];
        let grid = self.cat.inputs[self.cat.input_of[kind]].clone();
        Job {
            kind,
            steps,
            flops: flops(&key.spec, key.shape, steps),
            spec: key.job("client", grid, steps),
        }
    }

    fn check(&mut self, kind: usize, _steps: usize, out: AnyGrid) -> bool {
        bits_hash(&out) == self.oracle[self.cat.input_of[kind]]
    }
}

/// Starts the server, generates the inputs and warms every key with one
/// verified job (one rotation). Returns the server, the catalog, the
/// warm-up records and the input generation time.
fn setup(seed: u64, hashes: &[u64]) -> (Server, Catalog, Vec<JobRec>, f64) {
    let server = Server::with_defaults();
    let t = Instant::now();
    let cat = catalog(seed);
    let init_s = t.elapsed().as_secs_f64();
    let mut src = Src::new(&cat, hashes, seed);
    let warm = closed_loop(
        &server,
        &mut src,
        0.0,
        cat.keys.len(),
        &mut Tracer::new(false),
    );
    (server, cat, warm, init_s)
}

pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) -> Tracer {
    let hashes = oracle_hashes(&catalog(seed));
    println!(
        "incache-seq: 24 keys (6 stencils x TL/TL2 x L1/L2 sizes), f64, Off; closed loop, 1 client"
    );
    let order_seed = |i: u64| gen::mix(seed ^ 0xC105ED ^ i);
    if !trace {
        let mut rounds = Vec::new();
        for i in 0..ROUNDS {
            let t = Instant::now();
            let (server, cat, warm, _) = setup(seed, &hashes);
            let setup_s = t.elapsed().as_secs_f64();
            rep.count(&warm);
            take_peak_rss_mb();
            let mut src = Src::new(&cat, &hashes, order_seed(i));
            let recs = closed_loop(
                &server,
                &mut src,
                seconds / ROUNDS as f64,
                cat.keys.len(),
                &mut Tracer::new(false),
            );
            rep.count(&recs);
            rounds.push(Round::closed(setup_s, recs));
        }
        emit(&rounds, None, rep);
        return Tracer::new(false);
    }

    // Traced run: half the window untraced, then the same job sequence
    // traced, then direct replays of each key.
    let (server, cat, warm, init_s) = setup(seed, &hashes);
    rep.count(&warm);
    let window = seconds / 2.0;
    let mut src = Src::new(&cat, &hashes, order_seed(0));
    let plain = Round::closed(
        0.0,
        closed_loop(
            &server,
            &mut src,
            window,
            cat.keys.len(),
            &mut Tracer::new(false),
        ),
    );
    rep.count(&plain.latency);
    let mut tr = Tracer::new(true);
    let before = server.cache_stats();
    let mut src = Src::new(&cat, &hashes, order_seed(0));
    let traced = closed_loop(&server, &mut src, window, cat.keys.len(), &mut tr);
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
    let replays = layers::replay_jobs(
        &traced.latency,
        |k| (&cat.keys[k], &cat.inputs[cat.input_of[k]]),
        &mut tr,
    );
    let decisions: Vec<_> = cat
        .keys
        .iter()
        .zip(&cat.steps)
        .map(|(k, &t)| decide(k, t))
        .collect();
    let build_key = &cat.keys[cat.keys.len() - 1];
    layers::common_layers(
        rep,
        &traced.latency,
        before,
        after,
        busy,
        &replays,
        build_key,
        init_s,
        &decisions,
    );
    let l2 = incache_shape(2, "l2");
    layers::halo_layer(
        rep,
        "2d5p",
        &Key::new("2d5p", l2, Method::TransLayout2),
        32,
        0.05,
        5,
    );
    layers::probe_parallel(rep, "2d5p", l2, 32, [64, 64, 0], 4);
    rep.add("client.gen_late_p99_ms", 0.0, "ms");
    tr
}
