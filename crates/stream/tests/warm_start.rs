//! Warm-start invariants (property and regression tests): deep-prior
//! warm starting is a *latency* optimization, so it must not cost the
//! things the cold path guarantees — bit-determinism per seed, dispatch
//! independence across SIMD levels, and separation quality within a
//! bounded gap of the cold path.

use dhf_core::DhfConfig;
use dhf_dsp::simd::{self, Level};
use dhf_metrics::si_sdr_db;
use dhf_stream::{separate_streamed, StreamingConfig};
use proptest::prelude::*;

/// Two drifting quasi-periodic sources (same family as the equivalence
/// tests).
fn make_mix(fs: f64, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let track1: Vec<f64> = (0..n)
        .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 2.0).sin())
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 3.0).cos())
        .collect();
    let render = |track: &[f64], amp: f64, h2: f64| -> Vec<f64> {
        let mut phase = 0.0;
        track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                amp * (phase.sin() + h2 * (2.0 * phase).sin())
            })
            .collect()
    };
    let s1 = render(&track1, 1.0, 0.5);
    let s2 = render(&track2, 0.35, 0.3);
    let mix: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
    (mix, s1, s2, vec![track1, track2])
}

/// Deep-prior configuration with warm starting pinned ON (independent of
/// the `DHF_WARM_START` environment).
fn warm_cfg(chunk_len: usize, overlap: usize) -> StreamingConfig {
    StreamingConfig::new(chunk_len, overlap, DhfConfig::fast()).unwrap().with_warm_start()
}

/// Deep-prior configuration with warm starting pinned OFF.
fn cold_cfg(chunk_len: usize, overlap: usize) -> StreamingConfig {
    let mut dhf = DhfConfig::fast();
    dhf.inpaint.warm = None;
    StreamingConfig::new(chunk_len, overlap, dhf).unwrap()
}

fn bits(sources: &[Vec<f64>]) -> Vec<Vec<u64>> {
    sources.iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Warm-started streaming is bit-deterministic: two sessions over the
    /// same stream produce bit-identical estimates for any chunk
    /// geometry, exactly like the cold path.
    #[test]
    fn warm_streaming_is_bit_deterministic(
        chunk_len in 2600usize..3400,
        overlap_frac in 0.0f64..0.4,
    ) {
        let fs = 100.0;
        let n = 6500;
        let overlap = ((chunk_len as f64 * overlap_frac) as usize).min(chunk_len / 2);
        let (mix, _, _, tracks) = make_mix(fs, n);
        let tracks1 = tracks[..1].to_vec();
        let cfg = warm_cfg(chunk_len, overlap);
        let (a, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();
        let (b, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();
        prop_assert_eq!(bits(&a), bits(&b), "chunk_len {}, overlap {}", chunk_len, overlap);
    }
}

/// Warm-started streaming is bit-identical forced-scalar and at the
/// native SIMD level: the f32 fine-tune path inherits the kernel layer's
/// bit-identity contract, so `DHF_FORCE_SCALAR=1` CI runs reproduce
/// native results exactly.
#[test]
fn warm_streaming_is_bit_identical_across_dispatch_levels() {
    /// Restores auto dispatch even if an assertion unwinds mid-test.
    struct AutoDispatch;
    impl Drop for AutoDispatch {
        fn drop(&mut self) {
            simd::force_scalar(false);
        }
    }
    let _auto = AutoDispatch;

    let fs = 100.0;
    let n = 6500;
    let (mix, _, _, tracks) = make_mix(fs, n);
    let tracks1 = tracks[..1].to_vec();
    let cfg = warm_cfg(3000, 400);

    let mut reference: Option<(Level, Vec<Vec<u64>>)> = None;
    for forced in [true, false] {
        simd::force_scalar(forced);
        let level = simd::active_level();
        let (out, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();
        let out_bits = bits(&out);
        match &reference {
            None => reference = Some((level, out_bits)),
            Some((ref_level, ref_bits)) => assert_eq!(
                &out_bits, ref_bits,
                "warm streaming diverged between {ref_level:?} and {level:?}"
            ),
        }
    }
}

/// Warm-vs-cold quality regression: resuming the previous chunk's
/// weights (bounded fine-tune) must stay within a fixed SI-SDR gap of
/// training every chunk from scratch — the warm path buys latency, not
/// a quality cliff.
#[test]
fn warm_start_quality_stays_within_gap_of_cold() {
    let fs = 100.0;
    let n = 9000;
    let (mix, s1, s2, tracks) = make_mix(fs, n);
    let truths = [&s1, &s2];

    let (cold, dropped_cold) = separate_streamed(&mix, fs, &tracks, &cold_cfg(3000, 400)).unwrap();
    let (warm, dropped_warm) = separate_streamed(&mix, fs, &tracks, &warm_cfg(3000, 400)).unwrap();
    assert_eq!(dropped_cold, 0);
    assert_eq!(dropped_warm, 0);

    // Interior scoring (clear of the global stream edges).
    let (lo, hi) = (500, n - 500);
    for (src, truth) in truths.iter().enumerate() {
        let cold_db = si_sdr_db(&truth[lo..hi], &cold[src][lo..hi]);
        let warm_db = si_sdr_db(&truth[lo..hi], &warm[src][lo..hi]);
        // Measured on this fixture: source 0 cold 16.2 / warm 16.2 dB;
        // source 1 cold 0.3 / warm 3.3 dB — carrying weights forward
        // actually helps the weak source, since the resumed net starts
        // near a good basin. Bound any regression at 1.5 dB.
        assert!(
            warm_db > cold_db - 1.5,
            "source {src}: warm {warm_db:.2} dB fell more than 1.5 dB below cold {cold_db:.2} dB"
        );
        // And the warm path must still genuinely separate.
        let mix_db = si_sdr_db(&truth[lo..hi], &mix[lo..hi]);
        assert!(
            warm_db > mix_db,
            "source {src}: warm {warm_db:.2} dB must beat mix-as-estimate {mix_db:.2} dB"
        );
    }
}
