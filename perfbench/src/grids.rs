//! Grid helpers: output-bit hashing for the oracle comparison, in-place
//! refills, and the flop and byte counts the metrics are computed from.

use stencil_core::exec::Shape;
use stencil_core::{AnyGrid, Grid3, StencilSpec};
use stencil_simd::Elem;

use crate::gen;

/// FNV-style hash of every interior element's bit pattern, in
/// row-major order. Two grids hash equal only if (barring a 64-bit
/// collision) they are bitwise identical.
pub fn bits_hash(g: &AnyGrid) -> u64 {
    let mut h = Hasher::new();
    match g {
        AnyGrid::D1(g) => h.slice(g.interior()),
        AnyGrid::D1F32(g) => h.slice(g.interior()),
        AnyGrid::D2(g) => (0..g.ny()).for_each(|y| h.slice(g.row(y))),
        AnyGrid::D2F32(g) => (0..g.ny()).for_each(|y| h.slice(g.row(y))),
        AnyGrid::D3(g) => hash3(&mut h, g),
        AnyGrid::D3F32(g) => hash3(&mut h, g),
    }
    h.0
}

struct Hasher(u64);

impl Hasher {
    fn new() -> Hasher {
        Hasher(0xCBF2_9CE4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn slice<T: Elem>(&mut self, s: &[T]) {
        for &v in s {
            self.word(v.to_f64().to_bits());
        }
    }
}

fn hash3<T: Elem>(h: &mut Hasher, g: &Grid3<T>) {
    for z in 0..g.nz() as isize {
        for y in 0..g.ny() as isize {
            for x in 0..g.nx() as isize {
                h.word(g.get(z, y, x).to_f64().to_bits());
            }
        }
    }
}

/// Rewrite a 2D f64 grid's interior with the seeded values
/// [`gen::grid`] produced, without reallocating it.
pub fn refill2(g: &mut AnyGrid, seed: u64) {
    let AnyGrid::D2(g) = g else {
        panic!("refill2 takes a 2D f64 grid");
    };
    for y in 0..g.ny() {
        for x in 0..g.nx() {
            g.set(y as isize, x as isize, gen::cell(seed, 0, y, x));
        }
    }
}

/// Interior cells of `shape`.
pub fn cells(shape: Shape) -> usize {
    shape.dims()[..shape.ndim()].iter().product()
}

/// Useful stencil flops of `steps` sweeps of `spec` over `shape`.
pub fn flops(spec: &StencilSpec, shape: Shape, steps: usize) -> f64 {
    spec.flops_per_point() as f64 * cells(shape) as f64 * steps as f64
}

/// `shape` as `NXxNY[xNZ]`.
pub fn shape_name(shape: Shape) -> String {
    shape.dims()[..shape.ndim()]
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Interior bytes of one array of `shape` for `spec`'s element type.
pub fn array_bytes(spec: &StencilSpec, shape: Shape) -> usize {
    cells(shape) * spec.dtype().size()
}
