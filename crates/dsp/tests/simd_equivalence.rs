//! The SIMD bit-identity invariant (property tests): every kernel in
//! [`dhf_dsp::simd`] with an AVX2 arm must return **bit-identical**
//! results forced-scalar and at the native level, for any input values
//! and any length, including every tail residue `len % 4 ∈ {0, 1, 2, 3}`
//! (the widest lane is four `f64`s, so the residue decides how much
//! remainder handling runs). The elementwise kernels always run the
//! scalar reference, so they have nothing to compare.
//!
//! This is the contract that lets runtime dispatch (and the
//! `DHF_FORCE_SCALAR` escape hatch) change *which instructions execute*
//! without ever changing results — the serving determinism invariant in
//! `dhf_serve` builds directly on it.

use dhf_dsp::simd::{self, Level};
use dhf_dsp::Complex;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The dispatch pin is process-global, so tests that flip it must not
/// interleave (results would still agree — that is the very invariant —
/// but each test's claimed level coverage would not be trustworthy).
static DISPATCH: Mutex<()> = Mutex::new(());

/// Holds the dispatch lock and restores auto dispatch on drop, even if an
/// assertion unwinds mid-test.
struct Pinned {
    _guard: MutexGuard<'static, ()>,
}

impl Pinned {
    fn lock() -> Pinned {
        Pinned { _guard: DISPATCH.lock().unwrap_or_else(|e| e.into_inner()) }
    }

    /// Pins forced-scalar (`true`) or auto dispatch (`false`) and returns
    /// the level kernels will now run.
    fn set(&self, forced: bool) -> Level {
        simd::force_scalar(forced);
        simd::active_level()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        simd::force_scalar(false);
    }
}

/// Deterministic value stream from a drawn seed: finite values spanning
/// signs and magnitudes, with exact `0.0`/`-0.0` sprinkled in (the bit
/// comparison distinguishes the two zeros).
fn values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-300 * (1.0 + (r >> 32) as f64),
                3 => -3.5e300 * ((r >> 32) as f64 / 4294967296.0),
                4..=7 => ((r >> 11) as f64 / (1u64 << 53) as f64) * 2e9 - 1e9,
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
            }
        })
        .collect()
}

fn complex_values(seed: u64, n: usize) -> Vec<Complex> {
    values(seed, 2 * n).chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
}

fn bits(a: &[f64]) -> Vec<u64> {
    a.iter().map(|v| v.to_bits()).collect()
}

fn cbits(a: &[Complex]) -> Vec<u64> {
    a.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reduction kernels over real planes. The length is built as
    /// `4·q + r` with the residue drawn uniformly, so every tail shape is
    /// exercised by construction.
    #[test]
    fn plane_kernels_are_bit_identical_across_levels(
        q in 0usize..24,
        r in 0usize..4,
        seed in 1u64..u64::MAX,
    ) {
        let n = 4 * q + r;
        let a = values(seed, n);
        let b = values(seed.rotate_left(17) ^ 0xabcd, n);

        let pin = Pinned::lock();
        // Scalar reference results, computed once through the public
        // reference module (the semantic source of truth).
        let want_sum = simd::scalar::sum_sq(&a);
        let want_sum2 = simd::scalar::sum_sq2(&a, &b);

        for forced in [true, false] {
            let level = pin.set(forced);
            prop_assert_eq!(
                simd::sum_sq(&a).to_bits(), want_sum.to_bits(),
                "sum_sq at {} (n {})", level, n
            );
            prop_assert_eq!(
                simd::sum_sq2(&a, &b).to_bits(), want_sum2.to_bits(),
                "sum_sq2 at {} (n {})", level, n
            );
        }
    }

    /// Complex kernels: butterfly stages, pointwise complex multiplies
    /// (plain and conjugated), and both split-twiddle real-FFT combines.
    /// `m` sweeps past several multiples of the lane width so the vector
    /// loop, the scalar edge bins, and the odd-leftover paths all run.
    #[test]
    fn complex_kernels_are_bit_identical_across_levels(
        half_log in 0u32..6,
        blocks in 1usize..4,
        flags in 0usize..4,
        m in 1usize..34,
        seed in 1u64..u64::MAX,
    ) {
        let (inverse, conj) = (flags & 1 != 0, flags & 2 != 0);
        let half = 1usize << half_log;
        let n = 2 * half * blocks;
        let buf0 = complex_values(seed, n);
        let tw: Vec<Complex> = (0..half)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / half as f64))
            .collect();
        let z = complex_values(seed ^ 0x5555, m);
        let b = complex_values(seed.rotate_left(23) ^ 0x9999, m);
        let split_tw: Vec<Complex> = (0..=m)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / m as f64))
            .collect();

        let pin = Pinned::lock();
        let mut want_stage = buf0.clone();
        simd::scalar::radix2_stage(&mut want_stage, &tw, half, inverse);
        let mut want_cmul = vec![Complex::ZERO; m];
        simd::scalar::cmul_into(&mut want_cmul, &z, &b, conj);
        let (mut want_re, mut want_im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
        simd::scalar::real_split_combine_soa(&z, &split_tw, &mut want_re, &mut want_im);
        let mut want_aos = vec![Complex::ZERO; m + 1];
        simd::scalar::real_split_combine_aos(&z, &split_tw, &mut want_aos);

        for forced in [true, false] {
            let level = pin.set(forced);
            let mut buf = buf0.clone();
            simd::radix2_stage(&mut buf, &tw, half, inverse);
            prop_assert_eq!(
                cbits(&buf), cbits(&want_stage),
                "radix2_stage at {} (half {}, blocks {})", level, half, blocks
            );

            let mut out = vec![Complex::ZERO; m];
            simd::cmul_into(&mut out, &z, &b, conj);
            prop_assert_eq!(cbits(&out), cbits(&want_cmul), "cmul_into at {}", level);

            let mut acc = z.clone();
            simd::cmul_in_place(&mut acc, &b, conj);
            prop_assert_eq!(cbits(&acc), cbits(&want_cmul), "cmul_in_place at {}", level);

            let (mut re, mut im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
            simd::real_split_combine_soa(&z, &split_tw, &mut re, &mut im);
            prop_assert_eq!(bits(&re), bits(&want_re), "combine re at {} (m {})", level, m);
            prop_assert_eq!(bits(&im), bits(&want_im), "combine im at {} (m {})", level, m);

            let mut out = vec![Complex::ZERO; m + 1];
            simd::real_split_combine_aos(&z, &split_tw, &mut out);
            prop_assert_eq!(cbits(&out), cbits(&want_aos), "combine aos at {} (m {})", level, m);
        }
    }

    /// The whole-transform view: a packed real FFT and its inverse must
    /// come out bit-identical whichever level ran them (the transforms
    /// chain every kernel above, so this catches any level-dependent
    /// re-association the per-kernel tests might miss).
    #[test]
    fn fft_outputs_are_bit_identical_across_levels(
        n_log in 1u32..9,
        seed in 1u64..u64::MAX,
    ) {
        let n = 1usize << n_log;
        let signal = values(seed, n);
        let pin = Pinned::lock();

        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for forced in [true, false] {
            let level = pin.set(forced);
            let spec = dhf_dsp::fft::fft_real(&signal);
            let back = dhf_dsp::fft::ifft_real(&spec, n);
            let got = (cbits(&spec), bits(&back));
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    prop_assert_eq!(&got.0, &want.0, "rfft spectrum at {} (n {})", level, n);
                    prop_assert_eq!(&got.1, &want.1, "irfft round trip at {} (n {})", level, n);
                }
            }
        }
    }
}
