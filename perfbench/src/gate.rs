//! The correctness gate: every product the program returns is compared
//! with a serial reference computed during set-up.

use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, Matrix};

/// Largest accepted `max |got − want| / max |want|`. The distributed
/// schedules sum the inner dimension in a different order than the
/// serial kernel; with k ≤ 1024 that moves results by ~1e-13 relative.
pub const REL_TOL: f64 = 1e-9;

/// One operand pair and its serial product.
pub struct Operands {
    pub a: Matrix,
    pub b: Matrix,
    pub c_ref: Matrix,
}

impl Operands {
    /// Seeded `m × k` and `k × n` operands and their serial product.
    pub fn generate(m: usize, k: usize, n: usize, seed: u64) -> Self {
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed ^ 0x5bd1_e995);
        let c_ref = reference(&a, &b);
        Operands { a, b, c_ref }
    }
}

/// The serial product with the packed kernel.
pub fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(GemmKernel::Packed, a, b, &mut c);
    c
}

/// Checks `got` against `want` within [`REL_TOL`].
pub fn check_product(got: &Matrix, want: &Matrix) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!("shape {:?}, want {:?}", got.shape(), want.shape()));
    }
    if let Some(bad) = got.as_slice().iter().find(|x| !x.is_finite()) {
        return Err(format!("non-finite element {bad}"));
    }
    let scale = want
        .as_slice()
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    let rel = got.max_abs_diff(want) / scale;
    if rel > REL_TOL {
        return Err(format!("relative error {rel:e} > {REL_TOL:e}"));
    }
    Ok(())
}

/// Flips one element of a product: the `--corrupt-one` test hook that
/// proves a wrong result fails the run.
pub fn corrupt(c: &mut Matrix) {
    let v = c.get(0, 0);
    c.set(0, 0, v + 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_product_fails_the_gate() {
        let ops = Operands::generate(33, 17, 29, 7);
        let mut got = reference(&ops.a, &ops.b);
        assert!(check_product(&got, &ops.c_ref).is_ok());
        corrupt(&mut got);
        assert!(check_product(&got, &ops.c_ref).is_err());
        let scale = ops
            .c_ref
            .as_slice()
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let mut tiny = ops.c_ref.clone();
        tiny.set(3, 4, tiny.get(3, 4) + 1e-6 * scale);
        assert!(check_product(&tiny, &ops.c_ref).is_err());
        let mut nan = ops.c_ref.clone();
        nan.set(0, 0, f64::NAN);
        assert!(check_product(&nan, &ops.c_ref).is_err());
        assert!(check_product(&Matrix::zeros(33, 28), &ops.c_ref).is_err());
    }
}
