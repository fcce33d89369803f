//! `service-open`: an open loop of seeded Poisson arrivals from three
//! tenants (weights 2:1:1). Each job is drawn from a Zipf-weighted mix
//! of the six stencils x {dirichlet, periodic, reflect} x {f64, f32} on
//! small 1D/2D/3D shapes, 4–64 steps, at the server's defaults (TL2,
//! `Off`). The mix has more plan keys than the default cache holds, so
//! jobs hit, miss and evict. Jobs are timed from when they were due.
//! After each open-loop round a saturating burst of the same mix
//! measures capacity.

use std::time::{Duration, Instant};

use stencil_core::exec::{Method, Shape};
use stencil_core::{AnyGrid, StencilSpec};
use stencil_server::Server;

use crate::client::{
    burst, closed_loop, open_loop, take_peak_rss_mb, Job, JobRec, Outcome, Source,
};
use crate::gen::{self, Rng};
use crate::grids::{bits_hash, flops};
use crate::keys::{decide, oracle, Key, STENCILS};
use crate::layers;
use crate::report::{emit, Report, Round};
use crate::stats::quantile;
use crate::trace::Tracer;

/// Offered load, jobs per second: about a sixth of the ~1.8k jobs/s the
/// burst measured on the reference host (avx512, 2 cores) when this
/// benchmark was defined. At half load each 64-step 3d7p@f32 32x24x20
/// job (~38 ms) queues ~30 arrivals, and p50/p99 spread 60–70% between
/// seeds; at this rate, summarized per round, they spread 7–12%.
pub const RATE: f64 = 300.0;
/// Latency limit for `slo_miss_frac`.
pub const SLO_MS: f64 = 50.0;
/// Cards per deck (see `Deck`); each round's burst is one whole deck.
const DECK: usize = 250;
/// Set-ups per run; the window is split evenly between them. Each
/// round serves ~170 jobs at 10 s per run, so its p99 is its second or
/// third slowest job, and the run reports the mean over the middle
/// half of the rounds (see `report::emit`).
const ROUNDS: u64 = 18;
/// Jobs kept outstanding during the burst: enough to keep every
/// tenant's queue busy, well under the per-tenant queue capacity.
const BURST_DEPTH: usize = 512;
/// Step counts are 4..=64; the oracle hashes every one of them.
const MIN_STEPS: usize = 4;
const MAX_STEPS: usize = 64;
const TENANTS: [(&str, u32); 3] = [("a", 2), ("b", 1), ("c", 1)];
/// Cumulative `TENANTS` weights.
const TENANT_CDF: [f64; 3] = [2.0, 3.0, 4.0];
const ZIPF_S: f64 = 1.0;

/// Two small shapes per stencil, at 2–16k cells so one step costs
/// tens of kflops. Rows are whole multiples of 64 cells so the TL2 plans
/// (narrowed to AVX2 for f32 where a row cannot hold one AVX-512 f32
/// set) run on full vector sets — except 3d7p's second shape, 32x24x20,
/// where f32 TL2 narrows onto partial sets and runs ~100x slower per
/// flop than MultiLoad.
fn shapes(stencil: &str) -> [Shape; 2] {
    match stencil {
        "1d3p" => [Shape::d1(8192), Shape::d1(16384)],
        "1d5p" => [Shape::d1(4096), Shape::d1(8192)],
        "2d5p" => [Shape::d2(64, 64), Shape::d2(128, 48)],
        "2d9p" => [Shape::d2(64, 32), Shape::d2(64, 64)],
        "3d7p" => [Shape::d3(64, 8, 6), Shape::d3(32, 24, 20)],
        _ => [Shape::d3(64, 6, 4), Shape::d3(64, 8, 4)],
    }
}

/// Catalog index of each Zipf rank: a fixed shuffle, the same for
/// every seed, so that every seed sees the same popularity.
fn catalog_ranks() -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..72).collect();
    Rng::new(0x5EED).shuffle(&mut by_rank);
    by_rank
}

struct Catalog {
    keys: Vec<Key>,
    inputs: Vec<AnyGrid>,
    by_rank: Vec<usize>,
}

fn catalog(seed: u64) -> Catalog {
    let mut keys = Vec::new();
    for st in STENCILS {
        for b in ["", "@periodic", "@reflect"] {
            for d in ["", "@f32"] {
                let spec: StencilSpec = format!("{st}{b}{d}").parse().expect("paper stencil");
                for shape in shapes(st) {
                    keys.push(Key::new(&spec.to_string(), shape, Method::TransLayout2));
                }
            }
        }
    }
    let inputs = keys
        .iter()
        .enumerate()
        .map(|(i, k)| gen::grid(&k.spec, k.shape, gen::mix(seed ^ i as u64)))
        .collect();
    let by_rank = catalog_ranks();
    Catalog {
        keys,
        inputs,
        by_rank,
    }
}

/// The job mix as a deck of `(kind, steps)` cards: each key appears in
/// proportion to its Zipf weight (at least once), with step counts
/// spread over `MIN_STEPS..=MAX_STEPS` by a fixed stream, so a deck of
/// a given size holds the same work for every seed. The seed shuffles
/// the deck (again whenever it runs out) and picks each job's tenant.
struct Deck {
    cards: Vec<(usize, usize)>,
    pos: usize,
    rng: Rng,
}

impl Deck {
    fn new(by_rank: &[usize], size: usize, seed: u64) -> Deck {
        let zipf = gen::zipf_cdf(by_rank.len(), ZIPF_S);
        let total = zipf[zipf.len() - 1];
        let mut steps = Rng::new(0xDEC);
        let mut cards = Vec::new();
        for (rank, &kind) in by_rank.iter().enumerate() {
            let w = 1.0 / ((rank + 1) as f64).powf(ZIPF_S) / total;
            let n = ((w * size as f64).round() as usize).max(1);
            cards
                .extend((0..n).map(|_| (kind, MIN_STEPS + steps.below(MAX_STEPS - MIN_STEPS + 1))));
        }
        Deck {
            pos: cards.len(),
            cards,
            rng: Rng::new(seed),
        }
    }

    /// Deals the deck into `k` hands of (near) identical make-up: cards
    /// sorted by key and step count, dealt round-robin.
    fn deal(mut self, k: usize, seed: u64) -> Vec<Deck> {
        self.cards.sort_unstable();
        (0..k)
            .map(|h| Deck {
                cards: self.cards.iter().skip(h).step_by(k).copied().collect(),
                pos: usize::MAX,
                rng: Rng::new(gen::mix(seed ^ h as u64)),
            })
            .collect()
    }

    /// Next `(kind, steps, tenant)`.
    fn draw(&mut self) -> (usize, usize, &'static str) {
        if self.pos >= self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.pos = 0;
        }
        let (kind, steps) = self.cards[self.pos];
        self.pos += 1;
        let tenant = self.rng.weighted(&TENANT_CDF);
        (kind, steps, TENANTS[tenant].0)
    }
}

struct Src<'a> {
    cat: &'a Catalog,
    /// Oracle hash per key and step count (from `MIN_STEPS`).
    oracle: &'a [Vec<u64>],
    deck: &'a mut Deck,
}

impl Source for Src<'_> {
    fn next(&mut self) -> Job {
        let (kind, steps, tenant) = self.deck.draw();
        let key = &self.cat.keys[kind];
        let grid = self.cat.inputs[kind].clone();
        Job {
            kind,
            steps,
            flops: flops(&key.spec, key.shape, steps),
            spec: key
                .job(tenant, grid, steps)
                .timeout(Duration::from_secs(30)),
        }
    }

    fn check(&mut self, kind: usize, steps: usize, out: AnyGrid) -> bool {
        bits_hash(&out) == self.oracle[kind][steps - MIN_STEPS]
    }
}

/// Starts the server, generates the inputs and runs one verified
/// `MIN_STEPS` job per key, coldest rank first, so every plan has been
/// built once and the cache ends up holding the hottest keys. The same
/// work for every seed. Returns the server, the catalog, the warm-up
/// records and the input generation time.
fn setup(seed: u64, oracle: &[Vec<u64>]) -> (Server, Catalog, Vec<JobRec>, f64) {
    let server = Server::with_defaults();
    for (t, w) in TENANTS {
        server.set_weight(t, w);
    }
    let t = Instant::now();
    let cat = catalog(seed);
    let init_s = t.elapsed().as_secs_f64();
    let mut deck = Deck {
        cards: cat.by_rank.iter().rev().map(|&k| (k, MIN_STEPS)).collect(),
        pos: 0,
        rng: Rng::new(seed),
    };
    let n = deck.cards.len();
    let mut src = Src {
        cat: &cat,
        oracle,
        deck: &mut deck,
    };
    let warm = closed_loop(&server, &mut src, 0.0, n, &mut Tracer::new(false));
    (server, cat, warm, init_s)
}

pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) -> Tracer {
    let t = Instant::now();
    let oracle_hashes: Vec<Vec<u64>> = {
        let cat = catalog(seed);
        cat.keys
            .iter()
            .zip(&cat.inputs)
            .map(|(k, g)| {
                oracle(
                    &k.spec,
                    g.clone(),
                    &(MIN_STEPS..=MAX_STEPS).collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    println!("scalar oracle: {:.2} s", t.elapsed().as_secs_f64());
    println!(
        "service-open: 72 keys, Zipf s={ZIPF_S}, tenants 2:1:1, Poisson {RATE} jobs/s open loop, limit {SLO_MS} ms, burst of one {DECK}-job deck per round"
    );
    let by_rank = catalog_ranks();
    let mut arrivals = Rng::new(gen::mix(seed ^ 0xA22));
    if !trace {
        let mut rounds = Vec::new();
        // The open-loop jobs of the whole run form one deck, dealt so
        // that every round serves the same mix; each burst is a whole
        // deck of its own.
        let expected = (RATE * seconds).ceil() as usize;
        let hands = Deck::new(&by_rank, expected, seed).deal(ROUNDS as usize, seed);
        for (i, mut deck) in hands.into_iter().enumerate() {
            let mut burst_deck = Deck::new(&by_rank, DECK, gen::mix(seed ^ 0xB0 ^ i as u64));
            let t = Instant::now();
            let (server, cat, warm, _) = setup(seed, &oracle_hashes);
            let setup_s = t.elapsed().as_secs_f64();
            rep.count(&warm);
            take_peak_rss_mb();
            let mut src = Src {
                cat: &cat,
                oracle: &oracle_hashes,
                deck: &mut deck,
            };
            let window = seconds / ROUNDS as f64;
            let recs = open_loop(
                &server,
                &mut src,
                RATE,
                window,
                &mut arrivals,
                0,
                &mut Tracer::new(false),
            );
            rep.count(&recs);
            let n = burst_deck.cards.len();
            src.deck = &mut burst_deck;
            let (bursted, burst_s) = burst(
                &server,
                &mut src,
                n,
                BURST_DEPTH,
                recs.len() as u64,
                &mut Tracer::new(false),
            );
            rep.count(&bursted);
            let flops: f64 = bursted
                .iter()
                .filter(|r| r.outcome == Outcome::Ok)
                .map(|r| r.flops)
                .sum();
            println!(
                "round: {} jobs open loop (generator late p99 {:.3} ms), burst of {n} in {burst_s:.3} s",
                recs.len(),
                layers::gen_late_p99_ms(&recs)
            );
            rounds.push(Round {
                setup_s,
                gflops: flops / burst_s / 1e9,
                capacity: n as f64 / burst_s,
                rss_mb: take_peak_rss_mb(),
                latency: recs,
            });
        }
        emit(&rounds, Some(SLO_MS / 1e3), rep);
        return Tracer::new(false);
    }

    let (server, cat, warm, init_s) = setup(seed, &oracle_hashes);
    rep.count(&warm);
    let window = seconds / 2.0;
    let mut deck = Deck::new(&by_rank, (RATE * window).ceil() as usize, seed);
    let mut src = Src {
        cat: &cat,
        oracle: &oracle_hashes,
        deck: &mut deck,
    };
    let plain = open_loop(
        &server,
        &mut src,
        RATE,
        window,
        &mut arrivals,
        0,
        &mut Tracer::new(false),
    );
    rep.count(&plain);
    let late = layers::gen_late_p99_ms(&plain);
    let mut tr = Tracer::new(true);
    let before = server.cache_stats();
    let mut deck = Deck::new(&by_rank, (RATE * window).ceil() as usize, seed);
    let mut arrivals = Rng::new(gen::mix(seed ^ 0xA22));
    let mut src = Src {
        cat: &cat,
        oracle: &oracle_hashes,
        deck: &mut deck,
    };
    let traced = open_loop(&server, &mut src, RATE, window, &mut arrivals, 0, &mut tr);
    let after = tr
        .time(0, "server.cache_stats", "", || server.cache_stats())
        .0;
    rep.count(&traced);
    drop(server);
    let p50 = |v: &[JobRec]| quantile(&v.iter().map(|r| r.latency_s).collect::<Vec<_>>(), 0.5);
    rep.add(
        "trace.overhead_frac",
        p50(&traced) / p50(&plain) - 1.0,
        "ratio",
    );
    let replays = layers::replay_jobs(&traced, |k| (&cat.keys[k], &cat.inputs[k]), &mut tr);
    let decisions: Vec<_> = cat
        .keys
        .iter()
        .map(|k| decide(k, (MIN_STEPS + MAX_STEPS) / 2))
        .collect();
    let build_key = &cat.keys[cat.by_rank[0]];
    layers::common_layers(
        rep, &traced, before, after, window, &replays, build_key, init_s, &decisions,
    );
    let shape = shapes("2d5p")[1];
    layers::halo_layer(
        rep,
        "2d5p",
        &Key::new("2d5p", shape, Method::TransLayout2),
        32,
        0.05,
        5,
    );
    layers::probe_parallel(rep, "2d5p", shape, 32, [64, 32, 0], 4);
    rep.add("client.gen_late_p99_ms", late, "ms");
    tr
}
