//! Auto-vectorizable elementwise row kernels.
//!
//! Every hot per-row loop of the flush-apply path — the optimizer steps the
//! flushing threads run, gradient accumulation, and row staging copies —
//! funnels through this module so the compiler sees one canonical,
//! vectorization-friendly shape per operation: a `LANES`-wide inner loop
//! over `chunks_exact` (no bounds checks, no early exits) plus a scalar
//! remainder.
//!
//! # Element-order invariant
//!
//! Each kernel computes element `i` of the output from element `i` of its
//! inputs only, with exactly the scalar operation sequence of the naive
//! loop it replaced (`+`, `*`, `/`, `sqrt` — all IEEE-754
//! correctly-rounded, scalar or SIMD). Elements are mutually independent,
//! so lane grouping cannot change any result bit: routing a path through
//! these kernels preserves bit-equality against the serial oracle. This is
//! load-bearing — the engine's four-way equivalence tests compare
//! parameters with `==`, not a tolerance.

/// Lane width of the unrolled inner loops. Eight f32s = one AVX2 register;
/// narrower targets simply split the chunk, wider ones fuse two.
pub const LANES: usize = 8;

/// Wide lane width for long rows: two AVX2 registers (one AVX-512
/// register) per iteration. Rows at least this wide take the wide inner
/// loop; element independence keeps results bit-identical either way.
pub const LANES_WIDE: usize = 16;

/// Splits `(a, b)` into LANES-aligned heads and a shared-length tail.
#[inline(always)]
fn split2<'a>(
    a: &'a mut [f32],
    b: &'a [f32],
) -> (&'a mut [f32], &'a [f32], &'a mut [f32], &'a [f32]) {
    debug_assert_eq!(a.len(), b.len());
    let head = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at_mut(head);
    let (bh, bt) = b.split_at(head);
    (ah, bh, at, bt)
}

/// `split2` with a LANES_WIDE-aligned head.
#[inline(always)]
fn split2_wide<'a>(
    a: &'a mut [f32],
    b: &'a [f32],
) -> (&'a mut [f32], &'a [f32], &'a mut [f32], &'a [f32]) {
    debug_assert_eq!(a.len(), b.len());
    let head = a.len() - a.len() % LANES_WIDE;
    let (ah, at) = a.split_at_mut(head);
    let (bh, bt) = b.split_at(head);
    (ah, bh, at, bt)
}

/// Wide-lane accumulate: `acc[i] += grad[i]` with a LANES_WIDE inner loop
/// and a LANES/scalar remainder. Bit-identical to [`add`] because each
/// element is independent and uses the same single `+`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
fn add_wide(acc: &mut [f32], grad: &[f32]) {
    assert_eq!(acc.len(), grad.len(), "gradient length != dim");
    let (ah, gh, at, gt) = split2_wide(acc, grad);
    for (ac, gc) in ah
        .chunks_exact_mut(LANES_WIDE)
        .zip(gh.chunks_exact(LANES_WIDE))
    {
        for i in 0..LANES_WIDE {
            ac[i] += gc[i];
        }
    }
    add_narrow(at, gt);
}

/// Wide-lane SGD step: `row[i] -= lr * grad[i]` over LANES_WIDE chunks.
/// Bit-identical to [`sgd_step`].
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
fn sgd_step_wide(row: &mut [f32], grad: &[f32], lr: f32) {
    assert_eq!(row.len(), grad.len(), "row/gradient length mismatch");
    let (rh, gh, rt, gt) = split2_wide(row, grad);
    for (rc, gc) in rh
        .chunks_exact_mut(LANES_WIDE)
        .zip(gh.chunks_exact(LANES_WIDE))
    {
        for i in 0..LANES_WIDE {
            rc[i] -= lr * gc[i];
        }
    }
    sgd_step_narrow(rt, gt, lr);
}

/// SGD step: `row[i] -= lr * grad[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn sgd_step(row: &mut [f32], grad: &[f32], lr: f32) {
    assert_eq!(row.len(), grad.len(), "row/gradient length mismatch");
    if row.len() >= LANES_WIDE {
        return sgd_step_wide(row, grad, lr);
    }
    sgd_step_narrow(row, grad, lr);
}

#[inline]
fn sgd_step_narrow(row: &mut [f32], grad: &[f32], lr: f32) {
    let (rh, gh, rt, gt) = split2(row, grad);
    for (rc, gc) in rh.chunks_exact_mut(LANES).zip(gh.chunks_exact(LANES)) {
        for i in 0..LANES {
            rc[i] -= lr * gc[i];
        }
    }
    for (p, &g) in rt.iter_mut().zip(gt) {
        *p -= lr * g;
    }
}

/// Adagrad step: `acc[i] += grad[i]²; row[i] -= lr * grad[i] / (√acc[i] + eps)`.
///
/// The per-element operation order matches the scalar optimizers
/// (`frugal_tensor`-style accumulate-then-step), so a row driven through
/// this kernel stays bit-identical to one driven through the serial
/// reference.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn adagrad_step(row: &mut [f32], acc: &mut [f32], grad: &[f32], lr: f32, eps: f32) {
    assert_eq!(row.len(), grad.len(), "row/gradient length mismatch");
    assert_eq!(row.len(), acc.len(), "row/state length mismatch");
    let head = row.len() - row.len() % LANES;
    let (rh, rt) = row.split_at_mut(head);
    let (ah, at) = acc.split_at_mut(head);
    let (gh, gt) = grad.split_at(head);
    for ((rc, ac), gc) in rh
        .chunks_exact_mut(LANES)
        .zip(ah.chunks_exact_mut(LANES))
        .zip(gh.chunks_exact(LANES))
    {
        for i in 0..LANES {
            ac[i] += gc[i] * gc[i];
            rc[i] -= lr * gc[i] / (ac[i].sqrt() + eps);
        }
    }
    for ((p, a), &g) in rt.iter_mut().zip(at.iter_mut()).zip(gt) {
        *a += g * g;
        *p -= lr * g / (a.sqrt() + eps);
    }
}

/// Accumulate: `acc[i] += grad[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn add(acc: &mut [f32], grad: &[f32]) {
    assert_eq!(acc.len(), grad.len(), "gradient length != dim");
    if acc.len() >= LANES_WIDE {
        return add_wide(acc, grad);
    }
    add_narrow(acc, grad);
}

#[inline]
fn add_narrow(acc: &mut [f32], grad: &[f32]) {
    let (ah, gh, at, gt) = split2(acc, grad);
    for (ac, gc) in ah.chunks_exact_mut(LANES).zip(gh.chunks_exact(LANES)) {
        for i in 0..LANES {
            ac[i] += gc[i];
        }
    }
    for (a, &g) in at.iter_mut().zip(gt) {
        *a += g;
    }
}

/// Row copy: `dst[i] = src[i]` — the cache-fill / row-staging path.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn copy(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    dst.copy_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32 in roughly [-1, 1).
    fn val(i: usize, salt: u64) -> f32 {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((h >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }

    /// Lengths that exercise empty, sub-lane, exact-lane, and remainder
    /// paths.
    const LENS: &[usize] = &[0, 1, 3, 7, 8, 9, 16, 31, 32, 33, 100];

    #[test]
    fn sgd_step_matches_scalar_bitwise() {
        for &n in LENS {
            let grad: Vec<f32> = (0..n).map(|i| val(i, 1)).collect();
            let mut a: Vec<f32> = (0..n).map(|i| val(i, 2)).collect();
            let mut b = a.clone();
            sgd_step(&mut a, &grad, 0.137);
            for (p, &g) in b.iter_mut().zip(&grad) {
                *p -= 0.137 * g;
            }
            assert_eq!(a, b, "len {n}");
        }
    }

    #[test]
    fn adagrad_step_matches_scalar_bitwise() {
        for &n in LENS {
            let grad: Vec<f32> = (0..n).map(|i| val(i, 3)).collect();
            let mut row_a: Vec<f32> = (0..n).map(|i| val(i, 4)).collect();
            let mut acc_a: Vec<f32> = (0..n).map(|i| val(i, 5).abs()).collect();
            let mut row_b = row_a.clone();
            let mut acc_b = acc_a.clone();
            adagrad_step(&mut row_a, &mut acc_a, &grad, 0.5, 1e-8);
            for ((p, a), &g) in row_b.iter_mut().zip(acc_b.iter_mut()).zip(&grad) {
                *a += g * g;
                *p -= 0.5 * g / (a.sqrt() + 1e-8);
            }
            assert_eq!(row_a, row_b, "len {n} rows");
            assert_eq!(acc_a, acc_b, "len {n} state");
        }
    }

    #[test]
    fn add_matches_scalar_bitwise() {
        for &n in LENS {
            let grad: Vec<f32> = (0..n).map(|i| val(i, 6)).collect();
            let mut a: Vec<f32> = (0..n).map(|i| val(i, 7)).collect();
            let mut b = a.clone();
            add(&mut a, &grad);
            for (x, &g) in b.iter_mut().zip(&grad) {
                *x += g;
            }
            assert_eq!(a, b, "add len {n}");
        }
    }

    #[test]
    fn wide_variants_match_scalar_bitwise() {
        for &n in LENS {
            let grad: Vec<f32> = (0..n).map(|i| val(i, 9)).collect();
            let mut a: Vec<f32> = (0..n).map(|i| val(i, 10)).collect();
            let mut b = a.clone();
            add_wide(&mut a, &grad);
            for (x, &g) in b.iter_mut().zip(&grad) {
                *x += g;
            }
            assert_eq!(a, b, "add_wide len {n}");
            sgd_step_wide(&mut a, &grad, 0.137);
            for (p, &g) in b.iter_mut().zip(&grad) {
                *p -= 0.137 * g;
            }
            assert_eq!(a, b, "sgd_step_wide len {n}");
        }
    }

    #[test]
    fn copy_roundtrips() {
        let src: Vec<f32> = (0..33).map(|i| val(i, 8)).collect();
        let mut dst = vec![0.0; 33];
        copy(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sgd_rejects_mismatched_lengths() {
        sgd_step(&mut [0.0, 0.0], &[1.0], 0.1);
    }

    #[test]
    #[should_panic(expected = "row/state length mismatch")]
    fn adagrad_rejects_mismatched_state() {
        adagrad_step(&mut [0.0], &mut [0.0, 0.0], &[1.0], 0.1, 1e-8);
    }
}
