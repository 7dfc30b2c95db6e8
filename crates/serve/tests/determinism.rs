//! The serving determinism invariant (property test): a session's output
//! through the sharded [`SessionManager`] must be **bit-identical** to
//! running the same stream through a plain serial
//! [`dhf_stream::StreamingSeparator`] — for any number of concurrent
//! sessions, worker counts, chunkings, and push granularities.
//!
//! This is the contract that makes the serving layer safe to deploy over
//! the reproduction: scheduling, sharding, batching, and queueing may
//! reorder *work*, but never change *results*.
//!
//! The invariant deliberately spans the whole spectral data path — the
//! packed real FFT (`rfft`/`irfft`) and the SoA `Spectrogram` workspace
//! every session reuses — so a numeric change anywhere in that path that
//! made worker-side results diverge from serial ones fails here first.

use dhf_core::DhfConfig;
use dhf_serve::{ServeConfig, SessionManager};
use dhf_stream::{separate_streamed, HpssFrontConfig, StreamingConfig};
use dhf_synth::artifact::{self, ArtifactConfig};
use proptest::prelude::*;

/// Two drifting quasi-periodic sources (the shared `dhf_synth` fixture),
/// parameterized per session so every concurrent stream is distinct.
fn make_mix(fs: f64, n: usize, variant: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let duet = dhf_synth::duet::drifting_duet(fs, n, variant as u64);
    (duet.mixed, duet.f0_tracks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn served_sessions_are_bit_identical_to_serial_runs(
        n_sessions in 3usize..7,
        workers in 1usize..5,
        chunk_len in 2600usize..3400,
        overlap_frac in 0.05f64..0.40,
        packet in 180usize..900,
    ) {
        let fs = 100.0;
        let n = 6500;
        let overlap = ((chunk_len as f64 * overlap_frac) as usize).min(chunk_len / 2);
        let dhf = DhfConfig::fast().with_harmonic_interp();
        let scfg = StreamingConfig::new(chunk_len, overlap, dhf).unwrap();

        // Serial references, one independent separator per stream.
        let streams: Vec<(Vec<f64>, Vec<Vec<f64>>)> =
            (0..n_sessions).map(|s| make_mix(fs, n, s)).collect();
        let serial: Vec<(Vec<Vec<f64>>, usize)> = streams
            .iter()
            .map(|(mix, tracks)| separate_streamed(mix, fs, tracks, &scfg).unwrap())
            .collect();

        // Served: all sessions concurrently, packets interleaved
        // round-robin across sessions so every worker juggles its
        // sessions mid-stream, with interior polls racing the workers.
        let manager = SessionManager::new(ServeConfig::new(workers).unwrap());
        let ids: Vec<_> = (0..n_sessions)
            .map(|_| manager.open(fs, 2, scfg.clone()).unwrap())
            .collect();
        let mut got: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 2]; n_sessions];
        let deliver = |s: usize, blocks: Vec<dhf_stream::StreamBlock>,
                       got: &mut Vec<Vec<Vec<f64>>>| {
            for b in blocks {
                assert_eq!(got[s][0].len(), b.start, "session {s}: blocks out of order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[s][src].extend_from_slice(est);
                }
            }
        };
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + packet).min(n);
            for (s, (mix, tracks)) in streams.iter().enumerate() {
                let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
                let receipt = manager.push(ids[s], &mix[lo..hi], &t).unwrap();
                prop_assert_eq!(receipt.dropped_samples, 0);
                let out = manager.poll(ids[s]).unwrap();
                prop_assert!(out.error.is_none());
                deliver(s, out.blocks, &mut got);
            }
            lo = hi;
        }
        for (s, id) in ids.iter().enumerate() {
            let fin = manager.close(*id).unwrap();
            prop_assert!(fin.error.is_none());
            prop_assert_eq!(fin.dropped_samples, serial[s].1, "session {}", s);
            deliver(s, fin.blocks, &mut got);
        }
        let report = manager.shutdown().unwrap();
        prop_assert_eq!(report.telemetry.samples_in(), (n_sessions * n) as u64);

        for (s, (want, _)) in serial.iter().enumerate() {
            prop_assert_eq!(
                &got[s], want,
                "session {} served output differs from its serial run \
                 (workers {}, chunk {}, overlap {}, packet {})",
                s, workers, chunk_len, overlap, packet
            );
        }
    }

    /// The cross-mode corollary: a served session pinned to the scalar
    /// SIMD fallback must still be bit-identical to a serial run under
    /// native dispatch. This is the serving-level proof of the kernel
    /// layer's bit-identity contract (`dhf_dsp::simd`): the AVX2 arms
    /// may only change which instructions execute, never the samples —
    /// the same guarantee CI leans on when it re-runs the whole suite
    /// with `DHF_FORCE_SCALAR=1`.
    #[test]
    fn forced_scalar_sessions_match_native_simd_serial_runs(
        workers in 1usize..4,
        chunk_len in 2600usize..3400,
        packet in 250usize..900,
    ) {
        let fs = 100.0;
        let n = 6500;
        let scfg = StreamingConfig::new(
            chunk_len,
            chunk_len / 8,
            DhfConfig::fast().with_harmonic_interp(),
        )
        .unwrap();
        let (mix, tracks) = make_mix(fs, n, 42);

        // Serial reference under whatever the host natively dispatches.
        let (want, want_dropped) = separate_streamed(&mix, fs, &tracks, &scfg).unwrap();

        // Served run with every kernel pinned to the scalar reference
        // (released on every exit path — the pin is process-wide).
        struct AutoDispatch;
        impl Drop for AutoDispatch {
            fn drop(&mut self) {
                dhf_dsp::simd::force_scalar(false);
            }
        }
        let _auto = AutoDispatch;
        dhf_dsp::simd::force_scalar(true);
        prop_assert_eq!(dhf_dsp::simd::active_level(), dhf_dsp::simd::Level::Scalar);

        let manager = SessionManager::new(ServeConfig::new(workers).unwrap());
        let id = manager.open(fs, 2, scfg).unwrap();
        let mut got = vec![Vec::new(); 2];
        let mut lo = 0usize;
        let deliver = |blocks: Vec<dhf_stream::StreamBlock>, got: &mut Vec<Vec<f64>>| {
            for b in blocks {
                assert_eq!(got[0].len(), b.start, "blocks out of order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[src].extend_from_slice(est);
                }
            }
        };
        while lo < n {
            let hi = (lo + packet).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(id, &mix[lo..hi], &t).unwrap();
            let out = manager.poll(id).unwrap();
            prop_assert!(out.error.is_none());
            deliver(out.blocks, &mut got);
            lo = hi;
        }
        let fin = manager.close(id).unwrap();
        prop_assert!(fin.error.is_none());
        prop_assert_eq!(fin.dropped_samples, want_dropped);
        deliver(fin.blocks, &mut got);

        prop_assert_eq!(
            &got, &want,
            "forced-scalar served output differs from the native serial run \
             (workers {}, chunk {}, packet {})",
            workers, chunk_len, packet
        );
    }

    /// The artifact-bearing corollary: a session contaminated by each
    /// `dhf_synth::artifact` family and opened with the HPSS front filter
    /// (the `DHF_SCENARIO=artifact` session shape) must still be
    /// bit-identical to its serial run — the front filter is part of the
    /// engine, so scheduling and batching must not perturb it either.
    #[test]
    fn artifact_sessions_with_hpss_front_match_serial_runs(
        workers in 1usize..4,
        chunk_len in 2600usize..3400,
        packet in 250usize..900,
        family in 0usize..3,
    ) {
        let fs = 100.0;
        let n = 6500;
        let scfg = StreamingConfig::new(
            chunk_len,
            chunk_len / 8,
            DhfConfig::fast().with_harmonic_interp(),
        )
        .unwrap()
        .with_hpss_front(HpssFrontConfig::default());
        let (mut mix, tracks) = make_mix(fs, n, 7);
        let art = match family {
            0 => ArtifactConfig::spikes(9),
            1 => ArtifactConfig::wander(9),
            _ => ArtifactConfig::gait(n as f64 / fs, 9),
        };
        // The duet fixture is zero-DC, so scale the unit-DC artifact
        // waveform to the mix's own amplitude instead of a DC level.
        for (x, a) in mix.iter_mut().zip(artifact::waveform(&art, n, fs)) {
            *x += 2.0 * a;
        }

        let (want, want_dropped) = separate_streamed(&mix, fs, &tracks, &scfg).unwrap();

        let manager = SessionManager::new(ServeConfig::new(workers).unwrap());
        let id = manager.open(fs, 2, scfg).unwrap();
        let mut got = vec![Vec::new(); 2];
        let deliver = |blocks: Vec<dhf_stream::StreamBlock>, got: &mut Vec<Vec<f64>>| {
            for b in blocks {
                assert_eq!(got[0].len(), b.start, "blocks out of order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[src].extend_from_slice(est);
                }
            }
        };
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + packet).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(id, &mix[lo..hi], &t).unwrap();
            let out = manager.poll(id).unwrap();
            prop_assert!(out.error.is_none());
            deliver(out.blocks, &mut got);
            lo = hi;
        }
        let fin = manager.close(id).unwrap();
        prop_assert!(fin.error.is_none());
        prop_assert_eq!(fin.dropped_samples, want_dropped);
        deliver(fin.blocks, &mut got);

        prop_assert_eq!(
            &got, &want,
            "artifact session with HPSS front differs from its serial run \
             (workers {}, chunk {}, packet {}, family {})",
            workers, chunk_len, packet, family
        );
    }
}
