//! Plan keys (everything that selects a distinct compiled plan), the
//! scalar oracle, and the per-key decision table read back from the
//! public `DynPlan` accessors.

use stencil_core::exec::{DynPlan, Method, Parallelism, Plan, PlanError, Shape, Tiling};
use stencil_core::{AnyGrid, StencilSpec};
use stencil_server::JobSpec;
use stencil_simd::Isa;

use crate::grids::{bits_hash, shape_name};
use crate::host;

/// The paper's six stencils.
pub const STENCILS: [&str; 6] = ["1d3p", "1d5p", "2d5p", "2d9p", "3d7p", "3d27p"];

#[derive(Clone, Debug)]
pub struct Key {
    pub spec: StencilSpec,
    pub shape: Shape,
    pub method: Method,
    pub tiling: Tiling,
    pub par: Parallelism,
}

impl Key {
    pub fn new(spec: &str, shape: Shape, method: Method) -> Key {
        Key {
            spec: spec.parse().expect("benchmark specs are valid"),
            shape,
            method,
            tiling: Tiling::None,
            par: Parallelism::Off,
        }
    }

    pub fn plan(&self) -> Result<DynPlan, PlanError> {
        Plan::new(self.shape)
            .method(self.method)
            .tiling(self.tiling)
            .parallelism(self.par)
            .stencil(&self.spec)
    }

    pub fn job(&self, tenant: &str, grid: AnyGrid, steps: usize) -> JobSpec {
        JobSpec::new(tenant, self.spec.clone(), grid, steps)
            .method(self.method)
            .tiling(self.tiling)
            .parallelism(self.par)
    }

    pub fn name(&self) -> String {
        let tiling = match self.tiling {
            Tiling::None => String::new(),
            Tiling::Tessellate { w, h, .. } => format!("+tess({}x{},h{})", w[0], w[1], h),
            Tiling::Split { w, h, .. } => format!("+split({w},h{h})"),
        };
        let par = match self.par {
            Parallelism::Off => "off".to_string(),
            Parallelism::Threads(n) => format!("t{n}"),
            Parallelism::Auto => "auto".to_string(),
        };
        format!(
            "{}[{}]{}{} {}",
            self.spec,
            shape_name(self.shape),
            method_short(self.method),
            tiling,
            par
        )
    }
}

pub fn method_short(m: Method) -> &'static str {
    match m {
        Method::Scalar => "scalar",
        Method::MultiLoad => "ml",
        Method::Reorg => "reorg",
        Method::Dlt => "dlt",
        Method::TransLayout => "tl",
        Method::TransLayout2 => "tl2",
    }
}

/// Hashes of the scalar oracle's output after each of the increasing
/// step counts in `checkpoints`, stepping `g` from its input. The
/// oracle is a `Method::Scalar` plan at `Parallelism::Off`.
pub fn oracle(spec: &StencilSpec, mut g: AnyGrid, checkpoints: &[usize]) -> Vec<u64> {
    let mut plan = Plan::new(g.shape())
        .method(Method::Scalar)
        .parallelism(Parallelism::Off)
        .stencil(spec)
        .expect("the scalar oracle accepts every benchmark spec");
    let mut done = 0;
    checkpoints
        .iter()
        .map(|&t| {
            plan.run(&mut g, t - done);
            done = t;
            bits_hash(&g)
        })
        .collect()
}

/// One row of the decision table: what a key's plan resolved to.
pub struct Decision {
    pub key: String,
    pub method: &'static str,
    pub isa: Isa,
    pub tiling: Tiling,
    pub threads: usize,
    /// The plan resolved below the host's best ISA.
    pub narrowed: bool,
    /// Computed bytes per cell of one `steps`-step one-shot job.
    pub bytes_per_cell: f64,
    /// Flops per cell of the same job.
    pub flops_per_cell: f64,
}

/// What `key`'s plan resolved to, with the byte model of a one-shot job
/// of `steps` steps.
pub fn decide(key: &Key, steps: usize) -> Decision {
    let plan = key.plan().expect("benchmark keys build");
    let elem = key.spec.dtype().size();
    Decision {
        key: key.name(),
        method: plan.method().name(),
        isa: plan.isa(),
        tiling: plan.tiling(),
        threads: plan.threads(),
        narrowed: plan.isa() != Isa::detect_best(),
        bytes_per_cell: steps as f64 * host::sweep_bytes_per_cell_step(plan.method(), elem)
            + host::extra_bytes_per_cell(plan.method(), plan.tiling(), elem, steps),
        flops_per_cell: (steps * key.spec.flops_per_point()) as f64,
    }
}

pub fn print_decisions(rows: &[Decision]) {
    println!(
        "decision table ({} keys; best ISA {}; bytes are computed, not measured):",
        rows.len(),
        Isa::detect_best()
    );
    for d in rows {
        let tiling = match d.tiling {
            Tiling::None => "none",
            Tiling::Tessellate { .. } => "tessellate",
            Tiling::Split { .. } => "split",
        };
        println!(
            "  {:<40} method={:<12} isa={:<9} tiling={:<10} threads={} job={:.0} B/cell ({:.2} flop/B) {}",
            d.key,
            d.method,
            d.isa.name(),
            tiling,
            d.threads,
            d.bytes_per_cell,
            d.flops_per_cell / d.bytes_per_cell,
            if d.narrowed { "NARROWED" } else { "" }
        );
    }
}
