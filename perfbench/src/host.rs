//! Host ceilings: a STREAM-style triad at each cache level and in
//! memory, an FMA-throughput loop per ISA and dtype, and a byte model
//! per method. Together they give each kernel its roofline bound: the
//! lower of peak compute and bandwidth times flops per byte.

use std::hint::black_box;
use std::time::Instant;

use stencil_core::exec::{Method, Tiling};
use stencil_simd::Dtype;

use crate::stats::median;

/// Triad array lengths (f64 elements) per level. Three arrays each:
/// 24 KiB (L1), 768 KiB (L2), 96 MiB (LLC), 1.1 GiB (memory).
pub const TRIAD_LEVELS: [(&str, usize); 4] = [
    ("l1", 1 << 10),
    ("l2", 1 << 15),
    ("llc", 1 << 22),
    ("mem", 48 << 20),
];

pub struct Ceilings {
    /// Triad GB/s per level, in [`TRIAD_LEVELS`] order.
    pub triad_gbs: [f64; 4],
    /// FMA GF/s as `(isa, dtype, gflops)`; 0 for an ISA the CPU lacks.
    pub fma: Vec<(&'static str, Dtype, f64)>,
}

impl Ceilings {
    pub fn probe() -> Ceilings {
        let triad_gbs = TRIAD_LEVELS.map(|(_, n)| triad(n));
        let mut fma = Vec::new();
        for isa in ["avx512", "avx2", "portable"] {
            for dtype in [Dtype::F64, Dtype::F32] {
                fma.push((isa, dtype, fma_gflops(isa, dtype)));
            }
        }
        Ceilings { triad_gbs, fma }
    }

    /// Peak GF/s of `isa` (a plan's resolved ISA name) at `dtype`; the
    /// portable ISAs map to the portable loop.
    pub fn peak(&self, isa: &str, dtype: Dtype) -> f64 {
        let class = if isa.starts_with("portable") {
            "portable"
        } else {
            isa
        };
        self.fma
            .iter()
            .find(|(i, d, _)| *i == class && *d == dtype)
            .map_or(f64::NAN, |f| f.2)
    }

    /// Triad bandwidth of level `name`.
    pub fn bandwidth(&self, name: &str) -> f64 {
        let i = TRIAD_LEVELS
            .iter()
            .position(|(l, _)| *l == name)
            .expect("a triad level name");
        self.triad_gbs[i]
    }

    /// Roofline bound in GF/s for a kernel doing `flops_per_byte` whose
    /// data sits at `level`.
    pub fn roof(&self, isa: &str, dtype: Dtype, level: &str, flops_per_byte: f64) -> f64 {
        self.peak(isa, dtype)
            .min(self.bandwidth(level) * flops_per_byte)
    }
}

/// Computed (not measured) bytes per cell per step that a resident
/// session sweep moves: one read and one write stream per step, halved
/// by TL2's fused two-step pass. Cache misses are not counted.
pub fn sweep_bytes_per_cell_step(method: Method, elem: usize) -> f64 {
    match method {
        Method::TransLayout2 => elem as f64,
        _ => 2.0 * elem as f64,
    }
}

/// Computed bytes per cell that one call adds around the sweep: the
/// transpose or DLT round trip of an untiled one-shot run (each
/// direction reads and writes the grid), or, under tessellation, the
/// staging arena's per-chunk traffic (both parities in, one out).
pub fn extra_bytes_per_cell(method: Method, tiling: Tiling, elem: usize, steps: usize) -> f64 {
    let e = elem as f64;
    match (method, tiling) {
        (Method::TransLayout | Method::TransLayout2, Tiling::Tessellate { h, .. }) => {
            let chunks = steps.div_ceil(h.max(1)) as f64;
            chunks * 6.0 * e
        }
        (Method::TransLayout | Method::TransLayout2 | Method::Dlt, _) => 4.0 * e,
        _ => 0.0,
    }
}

/// Median GB/s of `a = b + s·c` over arrays of `n` f64 (24 bytes per
/// element counted; write-allocate traffic not counted).
fn triad(n: usize) -> f64 {
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let reps_per_sample = (4 << 20) / n + 1;
    triad_pass(&mut a, &b, &c);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed().as_secs_f64() < 0.2 && samples.len() < 50) {
        let t = Instant::now();
        for _ in 0..reps_per_sample {
            triad_pass(black_box(&mut a), black_box(&b), black_box(&c));
        }
        let s = t.elapsed().as_secs_f64();
        samples.push(24.0 * n as f64 * reps_per_sample as f64 / s / 1e9);
    }
    black_box(&a);
    median(&samples)
}

fn triad_pass(a: &mut [f64], b: &[f64], c: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU supports AVX-512F (checked just above).
        unsafe { x86::triad512(a, b, c) };
        return;
    }
    triad_plain(a, b, c);
}

#[inline(always)]
fn triad_plain(a: &mut [f64], b: &[f64], c: &[f64]) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + 3.0 * c;
    }
}

/// FMA throughput in GF/s (2 flops per lane per FMA) of twelve
/// independent accumulator chains; 0 if the ISA is unavailable.
fn fma_gflops(isa: &str, dtype: Dtype) -> f64 {
    let iters: u64 = 2_000_000;
    let run = || -> Option<f64> {
        let t = Instant::now();
        let lanes = fma_loop(isa, dtype, black_box(iters))?;
        let s = t.elapsed().as_secs_f64();
        Some(2.0 * lanes as f64 * CHAINS as f64 * iters as f64 / s / 1e9)
    };
    let mut samples = Vec::new();
    for _ in 0..5 {
        match run() {
            Some(g) => samples.push(g),
            None => return 0.0,
        }
    }
    median(&samples)
}

const CHAINS: usize = 12;

/// Runs the loop and returns the lane count, or `None` if the CPU lacks
/// the ISA.
fn fma_loop(isa: &str, dtype: Dtype, iters: u64) -> Option<usize> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        "avx512" if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: AVX-512F support was checked by the match guard.
            Some(unsafe {
                match dtype {
                    Dtype::F64 => black_box(x86::fma512_pd(iters)),
                    Dtype::F32 => black_box(x86::fma512_ps(iters)),
                }
            })
        }
        #[cfg(target_arch = "x86_64")]
        "avx2"
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma") =>
        {
            // SAFETY: AVX2 and FMA support were checked by the match guard.
            Some(unsafe {
                match dtype {
                    Dtype::F64 => black_box(x86::fma256_pd(iters)),
                    Dtype::F32 => black_box(x86::fma256_ps(iters)),
                }
            })
        }
        "portable" => Some(match dtype {
            Dtype::F64 => portable_fma::<f64>(iters),
            Dtype::F32 => portable_fma::<f32>(iters),
        }),
        _ => None,
    }
}

/// Twelve scalar multiply-add chains, as portable code compiles them
/// (two flops per chain step).
fn portable_fma<T>(iters: u64) -> usize
where
    T: Copy + std::ops::Mul<Output = T> + std::ops::Add<Output = T> + From<f32>,
{
    let m = black_box(T::from(0.999_999));
    let a = black_box(T::from(1e-7));
    let mut acc = [T::from(1.0); CHAINS];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = *r * m + a;
        }
    }
    black_box(acc);
    1
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    use super::CHAINS;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn triad512(a: &mut [f64], b: &[f64], c: &[f64]) {
        let n = a.len().min(b.len()).min(c.len());
        let body = n - n % 8;
        let s = _mm512_set1_pd(3.0);
        for i in (0..body).step_by(8) {
            // SAFETY: `i + 8 <= body <= n`, the length of all three slices.
            let v = _mm512_fmadd_pd(
                s,
                _mm512_loadu_pd(c.as_ptr().add(i)),
                _mm512_loadu_pd(b.as_ptr().add(i)),
            );
            _mm512_storeu_pd(a.as_mut_ptr().add(i), v);
        }
        super::triad_plain(&mut a[body..n], &b[body..n], &c[body..n]);
    }

    macro_rules! fma_fn {
        ($name:ident, $feat:literal, $set1:ident, $fma:ident, $lanes:expr) => {
            /// # Safety
            /// The CPU must support the enabled target features.
            #[target_feature(enable = $feat)]
            pub unsafe fn $name(iters: u64) -> usize {
                let m = $set1(black_box(0.999_999));
                let a = $set1(black_box(1e-7));
                let mut acc = [$set1(1.0); CHAINS];
                for _ in 0..iters {
                    for r in acc.iter_mut() {
                        *r = $fma(*r, m, a);
                    }
                }
                black_box(acc);
                $lanes
            }
        };
    }

    fma_fn!(fma512_pd, "avx512f", _mm512_set1_pd, _mm512_fmadd_pd, 8);
    fma_fn!(fma512_ps, "avx512f", _mm512_set1_ps, _mm512_fmadd_ps, 16);
    fma_fn!(fma256_pd, "avx2,fma", _mm256_set1_pd, _mm256_fmadd_pd, 4);
    fma_fn!(fma256_ps, "avx2,fma", _mm256_set1_ps, _mm256_fmadd_ps, 8);
}
