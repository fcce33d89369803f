//! Seeded input generation: the only source of randomness in the
//! benchmark. The same `--seed` gives the same jobs, grids and arrival
//! times; the program under test sees only what is generated here.

use stencil_core::exec::Shape;
use stencil_core::{AnyGrid, StencilSpec};

/// SplitMix64: small, fast, and good enough for workload sampling.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential gap with the given rate (events per second).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Index drawn from cumulative weights `cdf` (last entry = total).
    pub fn weighted(&mut self, cdf: &[f64]) -> usize {
        let u = self.unit() * cdf[cdf.len() - 1];
        cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer, also used to derive sub-seeds.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cumulative Zipf weights `1/rank^s` for ranks `1..=n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect()
}

/// Cheap seeded cell value in `[0, 1)`: cheap enough to fill a
/// gigabyte grid in well under a second.
#[inline]
pub fn cell(seed: u64, z: usize, y: usize, x: usize) -> f64 {
    let h = mix(seed
        ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (z as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A grid for `spec` on `shape` whose interior is seeded noise.
pub fn grid(spec: &StencilSpec, shape: Shape, seed: u64) -> AnyGrid {
    AnyGrid::from_fn_spec(shape, spec, |z, y, x| cell(seed, z, y, x))
        .expect("generated shapes match their specs")
}
