//! Shared scoring kernels: one canonical summation order used by *both*
//! the per-row `score` path and the batched `score_batch` path, so the two
//! are bit-identical by construction.
//!
//! Two implementations of the same contract live here:
//!
//! * [`scalar`] — the reference kernels (unrolled over four independent
//!   accumulators, combined as `((a0 + a1) + (a2 + a3)) + tail`); every
//!   golden number in the repo was produced by these.
//! * explicit AVX2 lanes for the same sweeps (x86-64 only). Lane `k`
//!   accumulates exactly the elements `i ≡ k (mod 4)` that scalar
//!   accumulator `a_k` does, every lane operation is the IEEE-identical
//!   elementwise counterpart of the scalar op (no FMA contraction, no
//!   reciprocal-multiply — the division stays a division), and the final
//!   combine extracts the lanes and adds them in the scalar order. The
//!   lanes are therefore **bit-identical** to the scalar kernels on every
//!   input, which `tests/prop_simd.rs` pins differentially.
//!
//! The crate-level [`dot`] / [`dot_standardized`] entry points pick the
//! AVX2 lanes at run time when [`simd::avx2_active`] says the CPU has them
//! and fall back to [`scalar`] otherwise, so every build runs the same
//! code and only the machine decides the path.

/// Reference kernels — the exact PR-5 scalar sweeps.
pub mod scalar {
    use crate::scale::Standardizer;

    /// Standardizes one value exactly as [`Standardizer::transform_into`]
    /// does: non-finite inputs map to the training mean (zero) and the
    /// result clamps to ±[`Standardizer::CLAMP`].
    #[inline]
    pub fn standardize_one(v: f64, mean: f64, std: f64) -> f64 {
        if v.is_finite() {
            ((v - mean) / std).clamp(-Standardizer::CLAMP, Standardizer::CLAMP)
        } else {
            0.0
        }
    }

    /// Dot product with four independent accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn dot(w: &[f64], x: &[f64]) -> f64 {
        assert_eq!(w.len(), x.len(), "dot operand length mismatch");
        let split = w.len() - w.len() % 4;
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut i = 0;
        while i < split {
            a0 += w[i] * x[i];
            a1 += w[i + 1] * x[i + 1];
            a2 += w[i + 2] * x[i + 2];
            a3 += w[i + 3] * x[i + 3];
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < w.len() {
            tail += w[i] * x[i];
            i += 1;
        }
        ((a0 + a1) + (a2 + a3)) + tail
    }

    /// Fused standardize-and-dot: `w · standardize(x)` in one sweep, with
    /// the same four-accumulator order as [`dot`] and no intermediate
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if any operand length differs.
    #[inline]
    pub fn dot_standardized(w: &[f64], x: &[f64], mean: &[f64], std: &[f64]) -> f64 {
        assert_eq!(w.len(), x.len(), "dot operand length mismatch");
        assert_eq!(w.len(), mean.len(), "standardizer length mismatch");
        assert_eq!(w.len(), std.len(), "standardizer length mismatch");
        let split = w.len() - w.len() % 4;
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut i = 0;
        while i < split {
            a0 += w[i] * standardize_one(x[i], mean[i], std[i]);
            a1 += w[i + 1] * standardize_one(x[i + 1], mean[i + 1], std[i + 1]);
            a2 += w[i + 2] * standardize_one(x[i + 2], mean[i + 2], std[i + 2]);
            a3 += w[i + 3] * standardize_one(x[i + 3], mean[i + 3], std[i + 3]);
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < w.len() {
            tail += w[i] * standardize_one(x[i], mean[i], std[i]);
            i += 1;
        }
        ((a0 + a1) + (a2 + a3)) + tail
    }
}

pub(crate) use scalar::standardize_one;

/// Runtime CPU detection behind the AVX2 builds of the scoring kernels
/// (here) and the NN trainer (`mlp`), plus the explicit-lane kernels
/// themselves.
pub mod simd {
    /// Whether this CPU has AVX2, so the vector paths actually run.
    #[inline]
    pub fn avx2_active() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) mod avx2 {
        use crate::scale::Standardizer;
        use std::arch::x86_64::{
            __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_castsi256_pd, _mm256_cmp_pd,
            _mm256_div_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd,
            _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
            _mm256_sub_pd, _CMP_LT_OQ,
        };

        /// Extracts the four lanes and combines them in the scalar
        /// kernels' order: `(a0 + a1) + (a2 + a3)`.
        #[inline(always)]
        unsafe fn combine(acc: __m256d) -> f64 {
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is a 4-element f64 buffer; unaligned store.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        }

        /// # Safety
        ///
        /// Caller must ensure AVX2 is available and `w.len() == x.len()`.
        #[target_feature(enable = "avx2")]
        pub(in crate::kernel) unsafe fn dot(w: &[f64], x: &[f64]) -> f64 {
            let n = w.len();
            let split = n - n % 4;
            // SAFETY: every load reads 4 f64s at i..i+4 with i+4 <= split
            // <= n, inside both slices.
            unsafe {
                let mut acc = _mm256_setzero_pd();
                let mut i = 0;
                while i < split {
                    let wv = _mm256_loadu_pd(w.as_ptr().add(i));
                    let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(wv, xv));
                    i += 4;
                }
                let mut tail = 0.0f64;
                while i < n {
                    tail += w[i] * x[i];
                    i += 1;
                }
                combine(acc) + tail
            }
        }

        /// # Safety
        ///
        /// Caller must ensure AVX2 is available and all slices share one
        /// length.
        ///
        /// Lane semantics match [`crate::kernel::scalar::standardize_one`]
        /// exactly: the clamp is `max` then `min` (same result as
        /// `f64::clamp` for every non-NaN `z`, and `z` is NaN only when
        /// the input is non-finite), and the finite mask then forces
        /// non-finite inputs to +0.0 — the same +0.0 the scalar branch
        /// returns.
        #[target_feature(enable = "avx2")]
        pub(in crate::kernel) unsafe fn dot_standardized(
            w: &[f64],
            x: &[f64],
            mean: &[f64],
            std: &[f64],
        ) -> f64 {
            let n = w.len();
            let split = n - n % 4;
            // SAFETY: every load reads 4 f64s at i..i+4 with i+4 <= split
            // <= n, inside all four slices.
            unsafe {
                let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
                let inf = _mm256_set1_pd(f64::INFINITY);
                let hi = _mm256_set1_pd(Standardizer::CLAMP);
                let lo = _mm256_set1_pd(-Standardizer::CLAMP);
                let mut acc = _mm256_setzero_pd();
                let mut i = 0;
                while i < split {
                    let v = _mm256_loadu_pd(x.as_ptr().add(i));
                    let m = _mm256_loadu_pd(mean.as_ptr().add(i));
                    let s = _mm256_loadu_pd(std.as_ptr().add(i));
                    let wv = _mm256_loadu_pd(w.as_ptr().add(i));
                    let z = _mm256_div_pd(_mm256_sub_pd(v, m), s);
                    let z = _mm256_min_pd(_mm256_max_pd(z, lo), hi);
                    // is_finite(v) ⇔ |v| < ∞ (NaN compares false, ordered).
                    let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(v, abs_mask), inf);
                    let z = _mm256_and_pd(z, finite);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(wv, z));
                    i += 4;
                }
                let mut tail = 0.0f64;
                while i < n {
                    tail += w[i] * super::super::scalar::standardize_one(x[i], mean[i], std[i]);
                    i += 1;
                }
                combine(acc) + tail
            }
        }
    }
}

/// Dot product with four independent accumulators: the AVX2 lanes when the
/// CPU has them, [`scalar::dot`] otherwise. Bit-identical either way.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(w: &[f64], x: &[f64]) -> f64 {
    assert_eq!(w.len(), x.len(), "dot operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx2_active() {
            // SAFETY: AVX2 support was just checked; lengths are equal.
            return unsafe { simd::avx2::dot(w, x) };
        }
    }
    scalar::dot(w, x)
}

/// Fused standardize-and-dot: `w · standardize(x)` in one sweep, dispatched
/// like [`dot`]. Bit-identical either way.
///
/// # Panics
///
/// Panics if any operand length differs.
#[inline]
pub fn dot_standardized(w: &[f64], x: &[f64], mean: &[f64], std: &[f64]) -> f64 {
    assert_eq!(w.len(), x.len(), "dot operand length mismatch");
    assert_eq!(w.len(), mean.len(), "standardizer length mismatch");
    assert_eq!(w.len(), std.len(), "standardizer length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx2_active() {
            // SAFETY: AVX2 support was just checked; lengths are equal.
            return unsafe { simd::avx2::dot_standardized(w, x, mean, std) };
        }
    }
    scalar::dot_standardized(w, x, mean, std)
}

/// Dot product of integer-valued quantized weights against dequantized
/// inputs, in the canonical four-accumulator order. Used by the quantized
/// kernels; the `i16` storage keeps quantized weight tensors 4x smaller
/// than `f64` while every product stays exactly representable.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_i16(qw: &[i16], x: &[f64]) -> f64 {
    assert_eq!(qw.len(), x.len(), "dot operand length mismatch");
    let split = qw.len() - qw.len() % 4;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i < split {
        a0 += f64::from(qw[i]) * x[i];
        a1 += f64::from(qw[i + 1]) * x[i + 1];
        a2 += f64::from(qw[i + 2]) * x[i + 2];
        a3 += f64::from(qw[i + 3]) * x[i + 3];
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < qw.len() {
        tail += f64::from(qw[i]) * x[i];
        i += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_reference_on_awkward_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13] {
            let w: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
            let x: Vec<f64> = (0..n).map(|i| 1.0 - 0.25 * i as f64).collect();
            let reference: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((dot(&w, &x) - reference).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn fused_matches_standardize_then_dot() {
        let w = [0.3, -1.2, 4.0, 0.0, 2.5];
        let x = [10.0, f64::NAN, -3.0, 1e300, 0.5];
        let mean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let std = [1.0, 2.0, 0.5, 1.0, 4.0];
        let z: Vec<f64> = x
            .iter()
            .zip(&mean)
            .zip(&std)
            .map(|((&v, &m), &s)| standardize_one(v, m, s))
            .collect();
        assert_eq!(dot_standardized(&w, &x, &mean, &std), dot(&w, &z));
    }

    #[test]
    fn dot_is_deterministic_bitwise() {
        let w: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        let x: Vec<f64> = (0..17).map(|i| (i as f64).cos()).collect();
        assert_eq!(dot(&w, &x).to_bits(), dot(&w, &x).to_bits());
    }

    #[test]
    fn simd_dot_is_bit_identical_to_scalar() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 64, 65] {
            let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.77).sin() * 3.0).collect();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.31).cos() * 1e3).collect();
            assert_eq!(
                scalar::dot(&w, &x).to_bits(),
                dot(&w, &x).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn simd_fused_is_bit_identical_to_scalar_on_adversarial_inputs() {
        // NaN, ±∞, out-of-distribution magnitudes, exact-mean values and
        // negative-zero divisions all in one sweep, at a non-lane-multiple
        // length.
        let x = [
            10.0,
            f64::NAN,
            -3.0,
            1e300,
            0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
            -1e-320,
            0.0,
            7.5,
        ];
        let w: Vec<f64> = (0..x.len()).map(|i| (i as f64 - 4.0) * 0.3).collect();
        let mean: Vec<f64> = (0..x.len()).map(|i| i as f64 * 0.5).collect();
        let std: Vec<f64> = (0..x.len()).map(|i| 1e-9 + i as f64).collect();
        assert_eq!(
            scalar::dot_standardized(&w, &x, &mean, &std).to_bits(),
            dot_standardized(&w, &x, &mean, &std).to_bits()
        );
    }

    #[test]
    fn dot_i16_matches_f64_reference() {
        let qw: Vec<i16> = vec![-32768, -127, 0, 1, 42, 32767, 7];
        let x: Vec<f64> = (0..qw.len()).map(|i| (i as f64 - 3.0) * 0.25).collect();
        let wf: Vec<f64> = qw.iter().map(|&q| f64::from(q)).collect();
        assert_eq!(dot_i16(&qw, &x).to_bits(), dot(&wf, &x).to_bits());
    }
}
