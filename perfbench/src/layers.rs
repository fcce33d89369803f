//! Per-layer measurements: direct replays of a job's plan key through
//! the engine's public calls, the resident-session kernel table, the
//! halo-refresh and parallel probes, and the four-way split of each
//! traced job's latency.

use std::collections::BTreeMap;
use std::time::Instant;

use stencil_core::exec::{Method, Parallelism, PhaseTotals, Shape, Tiling};
use stencil_core::layout::{tl_grid1, tl_grid2, tl_grid3};
use stencil_core::{AnyGrid, StencilSpec};
use stencil_server::CacheStats;
use stencil_simd::{Dtype, Isa};

use crate::client::JobRec;
use crate::gen;
use crate::grids::{array_bytes, cells, flops, shape_name};
use crate::host::{self, Ceilings};
use crate::keys::{method_short, print_decisions, Decision, Key, STENCILS};
use crate::report::Report;
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;

/// One key and step count replayed outside the server.
pub struct Replay {
    /// First one-shot `DynPlan::run` (pays lazy scratch allocation).
    pub first_s: f64,
    /// Steady one-shot `DynPlan::run`.
    pub run_s: f64,
    /// `layout::tl_grid*` natural → transposed, and back (untiled
    /// transpose methods only; 0 otherwise).
    pub layout_in_s: f64,
    pub layout_out_s: f64,
    /// The body: a resident `DynSession::run` when untiled, the phased
    /// one-shot run when tiled.
    pub body_s: f64,
    pub phases: PhaseTotals,
    pub threads: usize,
    pub tiled: bool,
    /// Grid bytes one layout transform reads and writes (computed).
    pub layout_bytes: f64,
}

fn copy_into(dst: &mut AnyGrid, src: &AnyGrid) {
    match (dst, src) {
        (AnyGrid::D1(d), AnyGrid::D1(s)) => d.copy_from(s),
        (AnyGrid::D2(d), AnyGrid::D2(s)) => d.copy_from(s),
        (AnyGrid::D3(d), AnyGrid::D3(s)) => d.copy_from(s),
        (AnyGrid::D1F32(d), AnyGrid::D1F32(s)) => d.copy_from(s),
        (AnyGrid::D2F32(d), AnyGrid::D2F32(s)) => d.copy_from(s),
        (AnyGrid::D3F32(d), AnyGrid::D3F32(s)) => d.copy_from(s),
        _ => panic!("copy_into: grid kinds differ"),
    }
}

/// Toggle a grid between natural and transposed layout.
fn tl_grid(g: &mut AnyGrid, isa: Isa) {
    match g {
        AnyGrid::D1(g) => tl_grid1(g, isa),
        AnyGrid::D2(g) => tl_grid2(g, isa),
        AnyGrid::D3(g) => tl_grid3(g, isa),
        AnyGrid::D1F32(g) => tl_grid1(g, isa),
        AnyGrid::D2F32(g) => tl_grid2(g, isa),
        AnyGrid::D3F32(g) => tl_grid3(g, isa),
    }
}

fn is_tl(m: Method) -> bool {
    matches!(m, Method::TransLayout | Method::TransLayout2)
}

/// Replays `key` for `steps` from `input` through build, one-shot runs,
/// the layout transforms and the body, recording each call as a span
/// of `job`. Small grids repeat each timed call and keep the median.
pub fn replay(key: &Key, input: &AnyGrid, steps: usize, job: u64, tr: &mut Tracer) -> Replay {
    let reps = if array_bytes(&key.spec, key.shape) > 64 << 20 {
        1
    } else {
        5
    };
    let (plan, _) = tr.time(job, "exec.build", "replay", || key.plan());
    let mut plan = plan.expect("benchmark keys build");
    let tiled = key.tiling != Tiling::None;
    let mut g = input.clone();
    let (_, first_s) = tr.time(job, "exec.run.first", "replay", || plan.run(&mut g, steps));
    plan.reset_phase_totals();
    let mut runs = Vec::new();
    for _ in 0..reps {
        copy_into(&mut g, input);
        runs.push(
            tr.time(job, "exec.run", "replay", || plan.run(&mut g, steps))
                .1,
        );
    }
    let (phases, _) = tr.time(job, "exec.phase_totals", "replay", || plan.phase_totals());
    let phases = PhaseTotals {
        stage_in_ns: phases.stage_in_ns / reps as u64,
        compute_ns: phases.compute_ns / reps as u64,
        stage_out_ns: phases.stage_out_ns / reps as u64,
        halo_ns: phases.halo_ns / reps as u64,
    };
    let run_s = median(&runs);
    let (mut ins, mut outs, mut bodies) = (vec![0.0], vec![0.0], vec![run_s]);
    if !tiled {
        if is_tl(key.method) {
            let isa = plan.isa();
            (ins, outs) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                ins.push(
                    tr.time(job, "layout.tl_grid.in", "replay", || tl_grid(&mut g, isa))
                        .1,
                );
                outs.push(
                    tr.time(job, "layout.tl_grid.out", "replay", || tl_grid(&mut g, isa))
                        .1,
                );
            }
        }
        bodies.clear();
        for _ in 0..reps {
            copy_into(&mut g, input);
            let t = Instant::now();
            let mut sess = plan.session(&mut g);
            tr.span(job, "exec.session.open", "replay", t, Instant::now());
            bodies.push(
                tr.time(job, "exec.session.run", "replay", || sess.run(steps))
                    .1,
            );
            let t = Instant::now();
            drop(sess);
            tr.span(job, "exec.session.close", "replay", t, Instant::now());
        }
    }
    Replay {
        first_s,
        run_s,
        layout_in_s: median(&ins),
        layout_out_s: median(&outs),
        body_s: median(&bodies),
        phases,
        threads: plan.threads(),
        tiled,
        layout_bytes: 2.0 * cells(key.shape) as f64 * key.spec.dtype().size() as f64,
    }
}

/// Replays each distinct key and step count among `jobs` once, as spans
/// of the first job that used it. `job` gives a kind's key and input.
pub fn replay_jobs<'a>(
    jobs: &[JobRec],
    job: impl Fn(usize) -> (&'a Key, &'a AnyGrid),
    tr: &mut Tracer,
) -> BTreeMap<(usize, usize), Replay> {
    let mut replays = BTreeMap::new();
    for r in jobs {
        replays.entry((r.kind, r.steps)).or_insert_with(|| {
            let (key, input) = job(r.kind);
            replay(key, input, r.steps, r.seq, tr)
        });
    }
    replays
}

/// The layer metrics every traced run reports: the server layer of the
/// traced window (cache counters from `before` to `after`), the latency
/// split, the engine metrics of the replays, cold build cost of
/// `build_key`, input generation time, and the decision table.
#[allow(clippy::too_many_arguments)]
pub fn common_layers(
    rep: &mut Report,
    jobs: &[JobRec],
    before: CacheStats,
    after: CacheStats,
    window_s: f64,
    replays: &BTreeMap<(usize, usize), Replay>,
    build_key: &Key,
    init_s: f64,
    decisions: &[Decision],
) {
    server_layer(rep, jobs, before, after, window_s);
    split_layer(rep, jobs, replays);
    exec_layer(rep, replays);
    let (off, t2) = build_ms(build_key);
    rep.add("exec.build_ms_off", off, "ms");
    rep.add("exec.build_ms_threads2", t2, "ms");
    rep.add("grid.init_s", init_s, "s");
    let narrowed = decisions.iter().filter(|d| d.narrowed).count();
    rep.add("kernels.narrowed_keys", narrowed as f64, "count");
    print_decisions(decisions);
}

/// Median build time in ms of `key` at `Off` and at `Threads(2)`.
fn build_ms(key: &Key) -> (f64, f64) {
    let time = |par| {
        let k = Key { par, ..key.clone() };
        let v: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let p = k.plan().expect("benchmark keys build");
                let s = t.elapsed().as_secs_f64();
                drop(p);
                s * 1e3
            })
            .collect();
        median(&v)
    };
    (time(Parallelism::Off), time(Parallelism::Threads(2)))
}

/// Median wall seconds of `DynSession::run(steps)` on a resident
/// session of `key` over a seeded grid (one warm-up run first).
pub fn session_time(key: &Key, steps: usize, min_s: f64, min_reps: usize) -> f64 {
    let mut plan = key.plan().expect("benchmark keys build");
    let mut g = gen::grid(&key.spec, key.shape, 7);
    let mut sess = plan.session(&mut g);
    sess.run(steps);
    let mut v = Vec::new();
    let start = Instant::now();
    while v.len() < min_reps || (start.elapsed().as_secs_f64() < min_s && v.len() < 1000) {
        let t = Instant::now();
        sess.run(steps);
        v.push(t.elapsed().as_secs_f64());
    }
    median(&v)
}

/// Even step count giving about `target` flops per run.
pub fn steps_for(spec: &StencilSpec, shape: Shape, target: f64, min: usize) -> usize {
    let per_step = flops(spec, shape, 1);
    (((target / per_step) as usize).max(min) + 1) & !1
}

/// Interior shape per dimensionality at the two in-cache levels: 16 KiB
/// (L1) and 512 KiB (L2) per f64 array, x extent ≥ 64 so one AVX-512
/// f64 `vl²` set fits a row.
pub fn incache_shape(ndim: usize, level: &str) -> Shape {
    match (ndim, level) {
        (1, "l1") => Shape::d1(2048),
        (2, "l1") => Shape::d2(64, 32),
        (3, "l1") => Shape::d3(64, 8, 4),
        (1, _) => Shape::d1(65536),
        (2, _) => Shape::d2(256, 256),
        _ => Shape::d3(64, 32, 32),
    }
}

const TABLE_METHODS: [Method; 4] = [
    Method::MultiLoad,
    Method::Dlt,
    Method::TransLayout,
    Method::TransLayout2,
];

/// Resident-session kernel rates (GF/s, `Off`) at the in-cache sizes,
/// their roofline fractions, and the paper's Table 2 ratios.
pub fn kernel_layer(rep: &mut Report, ceil: &Ceilings) {
    let paper = [
        (Method::TransLayout, 1.98),
        (Method::TransLayout2, 2.81),
        (Method::Dlt, 1.35),
    ];
    let mut ratios: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    println!("kernel table (resident session, Parallelism::Off, GF/s; roofline = min(FMA peak, triad GB/s x flops/byte)):");
    for level in ["l1", "l2"] {
        for st in STENCILS {
            let spec: StencilSpec = st.parse().expect("paper stencil");
            let shape = incache_shape(spec.ndim(), level);
            let steps = steps_for(&spec, shape, 4e6, 2);
            let mut rates = BTreeMap::new();
            let mut row = format!("  {level} {st:<6} {:<9}", shape_name(shape));
            for m in TABLE_METHODS {
                let key = Key::new(st, shape, m);
                let isa = key.plan().expect("benchmark keys build").isa();
                let g = flops(&spec, shape, steps) / session_time(&key, steps, 0.02, 5) / 1e9;
                let fpb = spec.flops_per_point() as f64
                    / host::sweep_bytes_per_cell_step(m, spec.dtype().size());
                let roof = ceil.roof(isa.name(), Dtype::F64, level, fpb);
                rates.insert(method_short(m), g);
                row += &format!(
                    " {}={g:.2} ({:.0}% of {roof:.1})",
                    method_short(m),
                    100.0 * g / roof
                );
                if level == "l1" {
                    rep.add(
                        format!("kernels.gflops.{st}.{}", method_short(m)),
                        g,
                        "GF/s",
                    );
                    rep.add(
                        format!("kernels.roofline_frac.{st}.{}", method_short(m)),
                        g / roof,
                        "ratio",
                    );
                }
            }
            if level == "l1" {
                let key = Key::new(&format!("{st}@f32"), shape, Method::TransLayout2);
                let spec32 = &key.spec;
                let g = flops(spec32, shape, steps) / session_time(&key, steps, 0.02, 5) / 1e9;
                row += &format!(" tl2@f32={g:.2}");
                rep.add(format!("kernels.gflops.{st}.tl2_f32"), g, "GF/s");
            }
            println!("{row}");
            for (m, _) in paper {
                ratios
                    .entry((method_short(m), level))
                    .or_default()
                    .push(rates[method_short(m)] / rates["ml"]);
            }
        }
    }
    println!(
        "paper Table 2 check: single-thread speedup over MultiLoad (per stencil; geomean; paper):"
    );
    for (m, paper_x) in paper {
        for level in ["l1", "l2"] {
            let v = &ratios[&(method_short(m), level)];
            let cells: Vec<String> = STENCILS
                .iter()
                .zip(v)
                .map(|(s, r)| format!("{s}={r:.2}x"))
                .collect();
            let gm = geomean(v);
            println!(
                "  {:<4} {level}: {}  geomean {gm:.2}x  paper {paper_x:.2}x",
                method_short(m),
                cells.join(" ")
            );
            rep.add(
                format!("paper.speedup.{}.{level}", method_short(m)),
                gm,
                "ratio",
            );
        }
    }
}

/// Host ceilings as reference metrics.
pub fn host_layer(rep: &mut Report, ceil: &Ceilings) {
    for ((name, n), gbs) in host::TRIAD_LEVELS.iter().zip(ceil.triad_gbs) {
        println!(
            "host triad {name}: {gbs:.1} GB/s (3 arrays x {} KiB)",
            n * 8 / 1024
        );
        rep.add(format!("host.triad_gbs.{name}"), gbs, "GB/s");
    }
    for (isa, dtype, g) in &ceil.fma {
        println!("host fma {isa} {dtype}: {g:.1} GF/s");
        rep.add(format!("host.fma_gflops.{isa}.{dtype}"), *g, "GF/s");
    }
}

/// `halo.refresh_share_*`: periodic and reflect session time over the
/// Dirichlet session of the same stencil, shape and method.
pub fn halo_layer(
    rep: &mut Report,
    stencil: &str,
    base: &Key,
    steps: usize,
    min_s: f64,
    min_reps: usize,
) {
    let shape = base.shape;
    let base_t = session_time(base, steps, min_s, min_reps);
    for b in ["periodic", "reflect"] {
        let key = Key {
            spec: format!("{stencil}@{b}").parse().expect("paper stencil"),
            ..base.clone()
        };
        let t = session_time(&key, steps, min_s, min_reps);
        println!(
            "halo {stencil}@{b} {}: session {:.3} ms vs dirichlet {:.3} ms",
            shape_name(shape),
            t * 1e3,
            base_t * 1e3
        );
        rep.add(format!("halo.refresh_share_{b}"), t / base_t, "ratio");
    }
}

/// Server-layer metrics of a traced window. Cache counters are the
/// change from `before` to `after` the window.
fn server_layer(
    rep: &mut Report,
    recs: &[JobRec],
    before: CacheStats,
    after: CacheStats,
    window_s: f64,
) {
    let stats = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        inserts: after.inserts - before.inserts,
        ..after
    };
    let over: Vec<f64> = recs.iter().map(|r| (r.latency_s - r.run_s) * 1e3).collect();
    let submit: Vec<f64> = recs.iter().map(|r| r.submit_s * 1e6).collect();
    let depth = recs.iter().map(|r| r.queue_depth).max().unwrap_or(0);
    let busy: f64 = recs.iter().map(|r| r.run_s).sum();
    println!(
        "server: cache hits {} misses {} evictions {} (hit ratio {:.3}); queue depth max {depth}",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate()
    );
    rep.add("server.overhead_ms_p50", quantile(&over, 0.5), "ms");
    rep.add("server.overhead_ms_p99", quantile(&over, 0.99), "ms");
    rep.add("server.queue_depth_max", depth as f64, "count");
    rep.add("server.submit_us_p99", quantile(&submit, 0.99), "us");
    rep.add("server.cache_hit_ratio", stats.hit_rate(), "ratio");
    rep.add("server.cache_evictions", stats.evictions as f64, "count");
    rep.add("server.busy_frac", busy / window_s, "ratio");
}

/// The four-way split of each traced job's latency: server overhead
/// (latency minus the server's own sweep time), then the sweep split in
/// the proportions its replay measured — layout in/out, body, and the
/// residual of the one-shot run that neither explains. The parts sum to
/// the latency by construction; the residual is reported.
fn split_layer(rep: &mut Report, recs: &[JobRec], replays: &BTreeMap<(usize, usize), Replay>) {
    let (mut wall, mut server, mut layout, mut body, mut resid) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in recs {
        let Some(p) = replays.get(&(r.kind, r.steps)) else {
            continue;
        };
        let l = (p.layout_in_s + p.layout_out_s) / p.run_s;
        let b = p.body_s / p.run_s;
        wall += r.latency_s;
        server += r.latency_s - r.run_s;
        layout += l * r.run_s;
        body += b * r.run_s;
        resid += (1.0 - l - b).abs() * r.run_s;
    }
    println!(
        "trace split over {:.3} s of job latency: server {:.1}%  layout {:.1}%  body {:.1}%  unattributed {:.1}%",
        wall,
        100.0 * server / wall,
        100.0 * layout / wall,
        100.0 * body / wall,
        100.0 * resid / wall
    );
    rep.add("trace.server_frac", server / wall, "ratio");
    rep.add("trace.layout_frac", layout / wall, "ratio");
    rep.add("trace.body_frac", body / wall, "ratio");
    rep.add("trace.unattributed_frac", resid / wall, "ratio");
}

/// Engine-layer metrics from the replays: build and first-run cost,
/// layout transforms, and the phase split of tiled bodies.
fn exec_layer(rep: &mut Report, replays: &BTreeMap<(usize, usize), Replay>) {
    let rs: Vec<&Replay> = replays.values().collect();
    let extra: Vec<f64> = rs.iter().map(|r| (r.first_s - r.run_s) * 1e3).collect();
    rep.add("exec.first_run_extra_ms", median(&extra), "ms");
    let tl: Vec<&&Replay> = rs.iter().filter(|r| r.layout_in_s > 0.0).collect();
    let ins: Vec<f64> = tl.iter().map(|r| r.layout_in_s * 1e3).collect();
    let outs: Vec<f64> = tl.iter().map(|r| r.layout_out_s * 1e3).collect();
    let bytes: f64 = tl.iter().map(|r| 2.0 * r.layout_bytes).sum();
    let secs: f64 = tl.iter().map(|r| r.layout_in_s + r.layout_out_s).sum();
    let untiled: Vec<&&Replay> = rs.iter().filter(|r| !r.tiled).collect();
    let sess: f64 = untiled.iter().map(|r| r.body_s).sum();
    let oneshot: f64 = untiled.iter().map(|r| r.run_s).sum();
    rep.add(
        "layout.in_ms",
        if ins.is_empty() { 0.0 } else { median(&ins) },
        "ms",
    );
    rep.add(
        "layout.out_ms",
        if outs.is_empty() { 0.0 } else { median(&outs) },
        "ms",
    );
    rep.add(
        "layout.gbs",
        if secs > 0.0 { bytes / secs / 1e9 } else { 0.0 },
        "GB/s",
    );
    rep.add(
        "layout.share",
        if oneshot > 0.0 {
            1.0 - sess / oneshot
        } else {
            0.0
        },
        "ratio",
    );
    let tiled: Vec<&&Replay> = rs.iter().filter(|r| r.tiled).collect();
    let denom: f64 = tiled
        .iter()
        .map(|r| r.threads as f64 * r.body_s * 1e9)
        .sum();
    let phase = |f: fn(&PhaseTotals) -> u64| -> f64 {
        if denom > 0.0 {
            tiled.iter().map(|r| f(&r.phases) as f64).sum::<f64>() / denom
        } else {
            0.0
        }
    };
    let fr = [
        ("exec.stage_in_frac", phase(|p| p.stage_in_ns)),
        ("exec.stage_out_frac", phase(|p| p.stage_out_ns)),
        ("exec.compute_frac", phase(|p| p.compute_ns)),
        ("exec.halo_frac", phase(|p| p.halo_ns)),
    ];
    let sum: f64 = fr.iter().map(|f| f.1).sum();
    for (n, v) in fr {
        rep.add(n, v, "ratio");
    }
    rep.add(
        "exec.unattributed_frac",
        if denom > 0.0 { 1.0 - sum } else { 0.0 },
        "ratio",
    );
}

/// `exec.tess_vs_untiled` and `exec.par_speedup` on a probe grid:
/// tessellated over untiled one-shot time, and the single-thread
/// (`Off`) over the `Threads(2)` untiled time.
pub fn probe_parallel(
    rep: &mut Report,
    stencil: &str,
    shape: Shape,
    steps: usize,
    tile: [usize; 3],
    h: usize,
) {
    let time = |key: &Key| oneshot_time(key, steps, 3);
    let mut untiled = Key::new(stencil, shape, Method::TransLayout2);
    untiled.par = Parallelism::Threads(2);
    let tess = Key {
        tiling: Tiling::Tessellate {
            w: tile,
            h,
            threads: 2,
        },
        ..untiled.clone()
    };
    let off = Key {
        par: Parallelism::Off,
        ..untiled.clone()
    };
    let (tu, tt, to) = (time(&untiled), time(&tess), time(&off));
    println!(
        "parallel probe {stencil} {}: untiled t2 {:.3} ms, tess t2 {:.3} ms, untiled off {:.3} ms",
        shape_name(shape),
        tu * 1e3,
        tt * 1e3,
        to * 1e3
    );
    rep.add("exec.tess_vs_untiled", tt / tu, "ratio");
    rep.add("exec.par_speedup", to / tu, "ratio");
}

/// Median seconds of a steady one-shot `DynPlan::run(steps)` of `key`
/// on a seeded grid, after one warm-up run.
pub fn oneshot_time(key: &Key, steps: usize, reps: usize) -> f64 {
    let mut plan = key.plan().expect("benchmark keys build");
    let mut g = gen::grid(&key.spec, key.shape, 11);
    plan.run(&mut g, steps);
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            plan.run(&mut g, steps);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Tail of the generator's lateness in ms (open loop), 0 otherwise.
pub fn gen_late_p99_ms(recs: &[JobRec]) -> f64 {
    let v: Vec<f64> = recs.iter().map(|r| r.late_s * 1e3).collect();
    if v.is_empty() {
        0.0
    } else {
        quantile(&v, 0.99)
    }
}
