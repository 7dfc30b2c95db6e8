//! The online chunked separator.

use crate::hpss::FrontFilter;
use crate::stitch::{blend_seam, crossfade_weights};
use crate::{StreamError, StreamingConfig};
use dhf_core::{DhfError, RoundContext};

/// Seed stride between chunks, so chunk `c` round `r` draws deep-prior
/// noise from salt `c·CHUNK_SALT_STRIDE + r` — never colliding with a
/// neighbouring chunk's rounds.
const CHUNK_SALT_STRIDE: u64 = 0x1000;

/// A contiguous run of separated output samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBlock {
    /// Absolute stream position of the first sample in the block.
    pub start: usize,
    /// Separated estimates, one inner vector per source (track order),
    /// all the same length.
    pub sources: Vec<Vec<f64>>,
}

impl StreamBlock {
    /// Number of samples in the block (per source).
    pub fn len(&self) -> usize {
        self.sources.first().map_or(0, Vec::len)
    }

    /// Whether the block carries no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of [`StreamingSeparator::flush`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlushOutcome {
    /// Final output block, if any samples were still pending.
    pub block: Option<StreamBlock>,
    /// Trailing samples that could not be separated because the leftover
    /// was too short to unwarp into one analysis window.
    pub dropped_samples: usize,
}

/// Online DHF separation with bounded latency.
///
/// Samples (and the matching per-source f0 values) are ingested
/// incrementally with [`push`](StreamingSeparator::push); whenever a full
/// analysis chunk is available the separator runs the multi-round DHF
/// pipeline on it through a persistent [`RoundContext`] (cached FFT plans
/// and reused spectrogram buffers) and emits the chunk's stride worth of
/// stitched output. Consecutive chunks overlap by
/// [`StreamingConfig::overlap`] samples; the seam is cross-faded with
/// raised-cosine weights so stitching artifacts stay far below the
/// separation error (see the equivalence property test).
///
/// ```
/// use dhf_core::DhfConfig;
/// use dhf_stream::{StreamingConfig, StreamingSeparator};
///
/// # fn main() -> Result<(), dhf_stream::StreamError> {
/// let fs = 100.0;
/// // Tiny chunks keep this example quick; production streams use ~30 s
/// // chunks (see `StreamingConfig`) for better separation quality.
/// let cfg = StreamingConfig::new(400, 100, DhfConfig::fast().with_harmonic_interp())?;
/// let mut sep = StreamingSeparator::new(fs, 1, cfg)?;
///
/// let mut emitted = 0;
/// for packet_start in (0..600).step_by(100) {
///     // 1 s packets of a 1.3 Hz quasi-periodic source, plus its f0.
///     let samples: Vec<f64> = (packet_start..packet_start + 100)
///         .map(|i| (std::f64::consts::TAU * 1.3 * i as f64 / fs).sin())
///         .collect();
///     let track = vec![1.3; 100];
///     for block in sep.push(&samples, &[&track])? {
///         assert_eq!(block.start, emitted, "blocks arrive contiguous, in order");
///         emitted += block.len();
///     }
/// }
/// let tail = sep.flush()?;
/// emitted += tail.block.map_or(0, |b| b.len());
/// assert_eq!(emitted, 600, "every ingested sample came back separated");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingSeparator {
    fs: f64,
    n_sources: usize,
    cfg: StreamingConfig,
    ctx: RoundContext,
    /// Buffered mixed samples; `buf[0]` sits at absolute position `buf_start`.
    buf: Vec<f64>,
    /// Buffered f0 tracks, indexed like `buf`.
    tracks: Vec<Vec<f64>>,
    buf_start: usize,
    /// Total samples ingested over the session.
    ingested: usize,
    /// Absolute start of the next chunk to analyze.
    next_start: usize,
    /// Chunks separated so far (drives seed decorrelation).
    chunk_index: u64,
    /// Per-source estimates for `[next_start, next_start + overlap)` from
    /// the previous chunk, awaiting the cross-fade (empty before the first
    /// chunk and right after a flush).
    tail: Vec<Vec<f64>>,
    /// Precomputed seam cross-fade weights (length = `overlap`).
    xfade: Vec<f64>,
    /// Blocks separated by a partially-failed [`push`](Self::push),
    /// delivered by the next successful push or flush.
    pending: Vec<StreamBlock>,
    /// Optional HPSS transient-rejection filter applied to each chunk
    /// before separation. Stateless across chunks (each call analyzes
    /// only its own samples), so [`reset`](Self::reset) has nothing to
    /// clear here — only its buffer capacities persist, which is the
    /// point.
    front: Option<FrontFilter>,
}

// Sessions are owned by serving-runtime worker threads and handed over at
// open; every piece of session state must stay `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamingSeparator>();
    assert_send::<crate::StreamingConfig>();
    assert_send::<StreamBlock>();
    assert_send::<FlushOutcome>();
    assert_send::<crate::StreamError>();
};

impl StreamingSeparator {
    /// Opens a session for `n_sources` sources sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a non-positive sample
    /// rate or zero sources.
    pub fn new(fs: f64, n_sources: usize, cfg: StreamingConfig) -> Result<Self, StreamError> {
        if fs <= 0.0 || !fs.is_finite() {
            return Err(StreamError::InvalidConfig {
                name: "fs",
                message: "sample rate must be positive and finite".into(),
            });
        }
        if n_sources == 0 {
            return Err(StreamError::InvalidConfig {
                name: "n_sources",
                message: "need at least one source".into(),
            });
        }
        let mut ctx = RoundContext::new(cfg.dhf());
        // The streaming hot loop runs one separation per chunk; skip the
        // spectrogram-sized diagnostic clones the offline API collects.
        ctx.set_collect_reports(false);
        let xfade = crossfade_weights(cfg.overlap());
        let front = match cfg.hpss_front() {
            Some(fc) => Some(FrontFilter::new(fc.clone(), fs)?),
            None => None,
        };
        Ok(StreamingSeparator {
            fs,
            n_sources,
            cfg,
            ctx,
            buf: Vec::new(),
            tracks: vec![Vec::new(); n_sources],
            buf_start: 0,
            ingested: 0,
            next_start: 0,
            chunk_index: 0,
            tail: Vec::new(),
            xfade,
            pending: Vec::new(),
            front,
        })
    }

    /// The session's chunking configuration.
    pub fn config(&self) -> &StreamingConfig {
        &self.cfg
    }

    /// Sample rate the session was opened with.
    pub fn sample_rate(&self) -> f64 {
        self.fs
    }

    /// Number of sources the session separates.
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Total samples ingested so far.
    pub fn samples_ingested(&self) -> usize {
        self.ingested
    }

    /// Absolute stream position up to which output has been emitted.
    pub fn samples_emitted(&self) -> usize {
        self.next_start
    }

    /// FFT plans built by the session's separation context; constant after
    /// the first chunk of a steady stream (the plan-cache invariant).
    pub fn fft_plans_built(&self) -> usize {
        self.ctx.fft_plans_built()
    }

    /// Deep-prior fits resumed warm from a previous chunk's weights.
    /// Always zero unless the configuration enables warm starting
    /// ([`StreamingConfig::with_warm_start`]).
    pub fn warm_hits(&self) -> u64 {
        self.ctx.warm_hits()
    }

    /// Deep-prior fits trained from scratch (first chunk, or a cold
    /// fallback after a track discontinuity changed the net architecture).
    pub fn cold_fits(&self) -> u64 {
        self.ctx.cold_fits()
    }

    /// Sources currently holding a resident trained net that the next
    /// chunk can resume.
    pub fn warm_resident(&self) -> usize {
        self.ctx.warm_resident()
    }

    /// Snapshots every resident warm net as `(source index, weights)`
    /// pairs — the hand-off format for serving runtimes that pool warm
    /// state across recycled sessions.
    pub fn export_warm_state(&self) -> Vec<(usize, dhf_nn::WeightState)> {
        self.ctx.export_warm_state()
    }

    /// Seeds per-source warm state captured from a compatible earlier
    /// session. Snapshots whose architecture does not match the nets this
    /// session builds are ignored at fit time (cold fallback), never
    /// adopted wrongly.
    pub fn import_warm_state(&mut self, state: Vec<(usize, dhf_nn::WeightState)>) {
        self.ctx.import_warm_state(state);
    }

    /// Rewinds the session to a fresh stream at position 0, discarding all
    /// buffered samples, stitching state, and pending blocks — but keeping
    /// the separation context's cached FFT plans, window tables, and
    /// spectrogram buffers hot.
    ///
    /// This is the session-reuse hook for serving runtimes: recycling a
    /// separator for a new stream of the same shape skips the first-chunk
    /// plan-building cost entirely (see the `reset_reuses_cached_plans`
    /// test).
    pub fn reset(&mut self) {
        self.buf.clear();
        for t in &mut self.tracks {
            t.clear();
        }
        self.buf_start = 0;
        self.ingested = 0;
        self.next_start = 0;
        self.chunk_index = 0;
        self.tail.clear();
        self.pending.clear();
        // Warm weights belong to the stream that trained them; a new
        // stream must cold-start so a reset session reproduces a fresh
        // one bit for bit.
        self.ctx.clear_warm_state();
    }

    /// Ingests `samples` plus each source's matching f0 values, returning
    /// every output block that became ready (zero or more).
    ///
    /// # Errors
    ///
    /// Returns a validation error (wrong track count/length, non-positive
    /// f0 — located by absolute stream position) before buffering anything,
    /// or a wrapped [`DhfError`] if a chunk separation fails. Blocks
    /// already separated by the failing call are retained and delivered by
    /// the next successful `push` or [`flush`](Self::flush) — no emitted
    /// stride is ever lost.
    pub fn push(
        &mut self,
        samples: &[f64],
        f0_tracks: &[&[f64]],
    ) -> Result<Vec<StreamBlock>, StreamError> {
        if f0_tracks.len() != self.n_sources {
            return Err(StreamError::SourceCountMismatch {
                expected: self.n_sources,
                got: f0_tracks.len(),
            });
        }
        for t in f0_tracks {
            if t.len() != samples.len() {
                return Err(StreamError::TrackLengthMismatch {
                    signal: samples.len(),
                    track: t.len(),
                });
            }
        }
        for (ti, t) in f0_tracks.iter().enumerate() {
            if let Some(i) = dhf_core::first_invalid_f0(t) {
                return Err(StreamError::NonPositiveTrackValue {
                    track: ti,
                    sample: self.ingested + i,
                });
            }
        }

        self.buf.extend_from_slice(samples);
        for (stored, pushed) in self.tracks.iter_mut().zip(f0_tracks) {
            stored.extend_from_slice(pushed);
        }
        self.ingested += samples.len();

        let mut blocks = std::mem::take(&mut self.pending);
        while self.ingested >= self.next_start + self.cfg.chunk_len() {
            match self.process_chunk() {
                Ok(block) => blocks.push(block),
                Err(e) => {
                    // Keep the strides this call already separated; the
                    // next successful push or flush delivers them.
                    self.pending = blocks;
                    return Err(e);
                }
            }
        }
        Ok(blocks)
    }

    /// Separates the chunk at `next_start` and emits its stride.
    fn process_chunk(&mut self) -> Result<StreamBlock, StreamError> {
        let _span = dhf_obs::span(dhf_obs::Stage::ChunkAdvance);
        let s = self.next_start;
        let chunk_len = self.cfg.chunk_len();
        let overlap = self.cfg.overlap();
        let hop = self.cfg.hop();
        let off = s - self.buf_start;

        let mixed = match self.front.as_mut() {
            Some(f) => f.filter(&self.buf[off..off + chunk_len]),
            None => &self.buf[off..off + chunk_len],
        };
        let chunk_tracks: Vec<&[f64]> =
            self.tracks.iter().map(|t| &t[off..off + chunk_len]).collect();
        let salt = self.chunk_index * CHUNK_SALT_STRIDE;
        let result = self.ctx.separate_refs(mixed, self.fs, &chunk_tracks, salt)?;

        let mut sources = Vec::with_capacity(self.n_sources);
        for (src, est) in result.sources.iter().enumerate() {
            let mut out = vec![0.0f64; hop];
            if overlap > 0 && !self.tail.is_empty() {
                blend_seam(&self.tail[src], &est[..overlap], &self.xfade, &mut out[..overlap]);
            } else {
                out[..overlap].copy_from_slice(&est[..overlap]);
            }
            out[overlap..].copy_from_slice(&est[overlap..hop]);
            sources.push(out);
        }
        self.tail = result.sources.iter().map(|est| est[hop..].to_vec()).collect();

        self.chunk_index += 1;
        self.next_start = s + hop;
        self.discard_consumed();
        Ok(StreamBlock { start: s, sources })
    }

    /// Drops buffered samples no future chunk will read. One `chunk_len`
    /// of history *behind* the emit point is retained so that
    /// [`flush`](Self::flush) can run its final chunk at full length
    /// (reaching back past already-emitted samples) instead of a short
    /// chunk that would force the pipeline's window-shrink heuristic and
    /// degrade the stream's last seconds.
    fn discard_consumed(&mut self) {
        let keep_abs = self.next_start.saturating_sub(self.cfg.chunk_len());
        let keep_from = keep_abs.saturating_sub(self.buf_start);
        if keep_from > 0 {
            self.buf.drain(..keep_from);
            for t in &mut self.tracks {
                t.drain(..keep_from);
            }
            self.buf_start = keep_abs;
        }
    }

    /// Ends the stream: separates whatever remains past the last emitted
    /// sample as one final (shorter) chunk, cross-fades it with the stored
    /// tail, and emits everything.
    ///
    /// If the leftover is too short for even one analysis window, the
    /// stored tail is emitted as-is and the uncoverable remainder is
    /// reported in [`FlushOutcome::dropped_samples`].
    ///
    /// The session stays usable afterwards; stitching restarts at the
    /// current stream position.
    ///
    /// # Errors
    ///
    /// Propagates non-length chunk separation failures.
    pub fn flush(&mut self) -> Result<FlushOutcome, StreamError> {
        let _span = dhf_obs::span(dhf_obs::Stage::ChunkFlush);
        let s = self.next_start;
        let end = self.ingested;
        let overlap = self.cfg.overlap();
        let remaining = end.saturating_sub(s);

        let outcome = if remaining == 0 {
            FlushOutcome { block: self.take_tail_block(s), dropped_samples: 0 }
        } else {
            // Run the final chunk at full length where history allows,
            // reaching back past already-emitted samples: a short final
            // chunk would trip the pipeline's window-shrink heuristic and
            // separate the stream's last seconds with a coarser analysis
            // than every interior chunk got.
            let full_start = end.saturating_sub(self.cfg.chunk_len());
            let len = end - full_start;
            let off = full_start - self.buf_start;
            let emit_off = s - full_start;
            let mixed = match self.front.as_mut() {
                Some(f) => f.filter(&self.buf[off..off + len]),
                None => &self.buf[off..off + len],
            };
            let chunk_tracks: Vec<&[f64]> =
                self.tracks.iter().map(|t| &t[off..off + len]).collect();
            let salt = self.chunk_index * CHUNK_SALT_STRIDE;
            match self.ctx.separate_refs(mixed, self.fs, &chunk_tracks, salt) {
                Ok(result) => {
                    let seam = if self.tail.is_empty() { 0 } else { overlap.min(remaining) };
                    let mut sources = Vec::with_capacity(self.n_sources);
                    for (src, est) in result.sources.iter().enumerate() {
                        let mut out = est[emit_off..].to_vec();
                        if seam > 0 {
                            let incoming: Vec<f64> = out[..seam].to_vec();
                            blend_seam(
                                &self.tail[src][..seam],
                                &incoming,
                                &self.xfade,
                                &mut out[..seam],
                            );
                        }
                        sources.push(out);
                    }
                    FlushOutcome {
                        block: Some(StreamBlock { start: s, sources }),
                        dropped_samples: 0,
                    }
                }
                Err(DhfError::InputTooShort { .. }) => {
                    let covered = self.tail.first().map_or(0, Vec::len).min(remaining);
                    FlushOutcome {
                        block: self.take_tail_block(s),
                        dropped_samples: remaining - covered,
                    }
                }
                Err(e) => return Err(e.into()),
            }
        };

        // Reset stitching state at the new stream position.
        self.tail.clear();
        self.next_start = self.ingested;
        self.chunk_index += 1;
        self.discard_consumed();
        Ok(self.merge_pending(outcome))
    }

    /// Prepends blocks retained from a partially-failed push to the flush
    /// outcome. Pending blocks and the flush block are contiguous strides,
    /// so they merge into one block.
    fn merge_pending(&mut self, outcome: FlushOutcome) -> FlushOutcome {
        if self.pending.is_empty() {
            return outcome;
        }
        let mut drained = self.pending.drain(..);
        let mut merged = drained.next().expect("non-empty pending");
        for b in drained {
            debug_assert_eq!(merged.start + merged.len(), b.start);
            for (dst, est) in merged.sources.iter_mut().zip(&b.sources) {
                dst.extend_from_slice(est);
            }
        }
        if let Some(b) = outcome.block {
            debug_assert_eq!(merged.start + merged.len(), b.start);
            for (dst, est) in merged.sources.iter_mut().zip(&b.sources) {
                dst.extend_from_slice(est);
            }
        }
        FlushOutcome { block: Some(merged), dropped_samples: outcome.dropped_samples }
    }

    /// Wraps the stored tail (if any) as a block starting at `s`.
    fn take_tail_block(&mut self, s: usize) -> Option<StreamBlock> {
        if self.tail.is_empty() || self.tail[0].is_empty() {
            return None;
        }
        let sources = std::mem::take(&mut self.tail);
        Some(StreamBlock { start: s, sources })
    }
}

/// Convenience wrapper: streams `mixed` through a fresh session in one
/// call and returns the concatenated per-source estimates plus the count
/// of trailing samples the flush could not cover.
///
/// # Errors
///
/// Same conditions as [`StreamingSeparator::push`] / `flush`.
pub fn separate_streamed(
    mixed: &[f64],
    fs: f64,
    f0_tracks: &[Vec<f64>],
    cfg: &StreamingConfig,
) -> Result<(Vec<Vec<f64>>, usize), StreamError> {
    let mut sep = StreamingSeparator::new(fs, f0_tracks.len(), cfg.clone())?;
    let track_refs: Vec<&[f64]> = f0_tracks.iter().map(Vec::as_slice).collect();
    let mut blocks = sep.push(mixed, &track_refs)?;
    let flushed = sep.flush()?;
    if let Some(b) = flushed.block {
        blocks.push(b);
    }
    let mut out = vec![Vec::new(); f0_tracks.len()];
    for b in blocks {
        debug_assert_eq!(out[0].len(), b.start, "blocks must be contiguous from 0");
        for (src, est) in b.sources.iter().enumerate() {
            out[src].extend_from_slice(est);
        }
    }
    Ok((out, flushed.dropped_samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_core::{DhfConfig, DhfError};

    /// Two drifting quasi-periodic sources (same family as the core tests).
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

    fn fast_stream_cfg(chunk_len: usize, overlap: usize) -> StreamingConfig {
        StreamingConfig::new(chunk_len, overlap, DhfConfig::fast().with_harmonic_interp()).unwrap()
    }

    /// Deep-prior path (no harmonic-interp bypass) with warm starting on.
    fn warm_stream_cfg(chunk_len: usize, overlap: usize) -> StreamingConfig {
        StreamingConfig::new(chunk_len, overlap, DhfConfig::fast()).unwrap().with_warm_start()
    }

    #[test]
    fn warm_start_resumes_weights_across_chunks() {
        let fs = 100.0;
        let n = 6600;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = warm_stream_cfg(3000, 400);
        assert!(cfg.warm_start().is_some());

        let mut sep = StreamingSeparator::new(fs, 1, cfg.clone()).unwrap();
        assert_eq!(sep.warm_hits() + sep.cold_fits(), 0);
        let refs: [&[f64]; 1] = [&tracks[0]];
        sep.push(&mix, &refs).unwrap();
        // Two full chunks are complete here (the shrunken flush chunk may
        // legitimately go cold — its geometry differs — so assert before).
        assert_eq!(sep.cold_fits(), 1, "only the first chunk trains from scratch");
        assert_eq!(sep.warm_hits(), 1, "the second chunk must resume the first's weights");
        assert_eq!(sep.warm_resident(), 1);
        sep.flush().unwrap();

        // Warm sessions stay fully deterministic.
        let tracks1 = tracks[..1].to_vec();
        let (a, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();
        let (b, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();
        assert_eq!(a, b, "warm-started streaming must be bit-deterministic");
    }

    #[test]
    fn reset_clears_warm_state_and_reproduces_a_fresh_session() {
        let fs = 100.0;
        let n = 6600;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = warm_stream_cfg(3000, 400);
        let tracks1 = tracks[..1].to_vec();
        let (fresh, _) = separate_streamed(&mix, fs, &tracks1, &cfg).unwrap();

        let mut sep = StreamingSeparator::new(fs, 1, cfg).unwrap();
        let refs: [&[f64]; 1] = [&tracks1[0]];
        sep.push(&mix, &refs).unwrap();
        sep.flush().unwrap();
        assert!(sep.warm_resident() > 0);
        sep.reset();
        assert_eq!(sep.warm_resident(), 0, "reset must drop warm weights with the stream");

        let mut blocks = sep.push(&mix, &refs).unwrap();
        if let Some(b) = sep.flush().unwrap().block {
            blocks.push(b);
        }
        let mut reused = vec![Vec::new(); 1];
        for b in blocks {
            for (src, est) in b.sources.iter().enumerate() {
                reused[src].extend_from_slice(est);
            }
        }
        assert_eq!(reused, fresh, "warm state must not leak across reset");
    }

    #[test]
    fn exported_warm_state_warms_a_fresh_session() {
        let fs = 100.0;
        let n = 3000; // exactly one chunk
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = warm_stream_cfg(3000, 400);
        let refs: [&[f64]; 1] = [&tracks[0]];

        let mut donor = StreamingSeparator::new(fs, 1, cfg.clone()).unwrap();
        donor.push(&mix, &refs).unwrap();
        assert_eq!(donor.cold_fits(), 1);
        let state = donor.export_warm_state();
        assert_eq!(state.len(), 1, "the trained net must be exportable");

        let mut warmed = StreamingSeparator::new(fs, 1, cfg).unwrap();
        warmed.import_warm_state(state);
        warmed.push(&mix, &refs).unwrap();
        assert_eq!(warmed.cold_fits(), 0, "the seeded snapshot must be adopted");
        assert_eq!(warmed.warm_hits(), 1);
    }

    #[test]
    fn emits_hop_sized_blocks_with_bounded_latency() {
        let fs = 100.0;
        let n = 9000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 600);
        let hop = cfg.hop();
        let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();

        let mut emitted = 0usize;
        for (i, chunk) in mix.chunks(250).enumerate() {
            let lo = i * 250;
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..lo + chunk.len()]).collect();
            let blocks = sep.push(chunk, &t).unwrap();
            for b in &blocks {
                assert_eq!(b.start, emitted, "blocks must be contiguous");
                assert_eq!(b.len(), hop);
                assert_eq!(b.sources.len(), 2);
                emitted += b.len();
            }
            // Latency bound: everything older than one chunk is out.
            let ingested = lo + chunk.len();
            assert!(
                emitted + sep.config().max_latency_samples() >= ingested,
                "latency exceeded: emitted {emitted} of {ingested}"
            );
        }
        assert_eq!(emitted, sep.samples_emitted());
        assert!(emitted >= n - sep.config().max_latency_samples());

        let fin = sep.flush().unwrap();
        assert_eq!(fin.dropped_samples, 0);
        let last = fin.block.unwrap();
        assert_eq!(last.start, emitted);
        assert_eq!(emitted + last.len(), n, "flush must emit the remainder");
    }

    #[test]
    fn push_validates_tracks_with_absolute_positions() {
        let fs = 100.0;
        let cfg = fast_stream_cfg(3000, 600);
        let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();
        let zeros = [0.0f64; 100];
        let good = vec![1.3f64; 100];
        assert!(sep.push(&zeros, &[&good, &good]).is_ok());

        // Wrong source count.
        assert!(matches!(
            sep.push(&zeros, &[&good]),
            Err(StreamError::SourceCountMismatch { expected: 2, got: 1 })
        ));
        // Wrong track length.
        let short = vec![1.3f64; 99];
        assert!(matches!(
            sep.push(&zeros, &[&good, &short]),
            Err(StreamError::TrackLengthMismatch { signal: 100, track: 99 })
        ));
        // Non-positive value at absolute stream position 100 + 40 = 140.
        let mut bad = vec![1.3f64; 100];
        bad[40] = -0.5;
        assert!(matches!(
            sep.push(&zeros, &[&good, &bad]),
            Err(StreamError::NonPositiveTrackValue { track: 1, sample: 140 })
        ));
        // A failed push buffers nothing.
        assert_eq!(sep.samples_ingested(), 100);
    }

    #[test]
    fn streaming_is_deterministic() {
        let fs = 100.0;
        let n = 7000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 400);
        let (a, _) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();
        let (b, _) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chunking_is_invariant_to_push_granularity() {
        let fs = 100.0;
        let n = 7000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 400);
        // All at once.
        let (all, dropped_all) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();
        // Sample-dribbled in uneven pieces.
        let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();
        let mut emitted = vec![Vec::new(); 2];
        let mut lo = 0usize;
        for &piece in [333usize, 1000, 77, 2590, 3000].iter().cycle() {
            if lo >= n {
                break;
            }
            let hi = (lo + piece).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            for b in sep.push(&mix[lo..hi], &t).unwrap() {
                for (src, est) in b.sources.iter().enumerate() {
                    emitted[src].extend_from_slice(est);
                }
            }
            lo = hi;
        }
        let fin = sep.flush().unwrap();
        if let Some(b) = fin.block {
            for (src, est) in b.sources.iter().enumerate() {
                emitted[src].extend_from_slice(est);
            }
        }
        assert_eq!(dropped_all, fin.dropped_samples);
        assert_eq!(all, emitted, "push granularity must not change the output");
    }

    #[test]
    fn plan_cache_settles_after_first_chunk() {
        let fs = 100.0;
        let n = 15000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 600);
        let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();
        let track_refs: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();

        // Feed exactly one chunk, then record the plan count.
        let t: Vec<&[f64]> = track_refs.iter().map(|t| &t[..3000]).collect();
        sep.push(&mix[..3000], &t).unwrap();
        let plans_after_first = sep.fft_plans_built();
        assert!(plans_after_first > 0);

        // Stream the rest: steady-state chunks build no new plans.
        let t: Vec<&[f64]> = track_refs.iter().map(|t| &t[3000..]).collect();
        sep.push(&mix[3000..], &t).unwrap();
        assert!(sep.samples_emitted() > 3000);
        assert_eq!(
            sep.fft_plans_built(),
            plans_after_first,
            "steady-state chunks must reuse cached FFT plans"
        );
    }

    #[test]
    fn reset_reuses_cached_plans_and_reproduces_a_fresh_session() {
        let fs = 100.0;
        let n = 7000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 400);

        // Reference: a brand-new session over the stream.
        let (fresh, fresh_dropped) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();

        // Reused: run a session once, reset, run the same stream again.
        let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();
        let track_refs: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();
        sep.push(&mix, &track_refs).unwrap();
        sep.flush().unwrap();
        let plans_first_run = sep.fft_plans_built();

        sep.reset();
        assert_eq!(sep.samples_ingested(), 0);
        assert_eq!(sep.samples_emitted(), 0);
        let mut blocks = sep.push(&mix, &track_refs).unwrap();
        let fin = sep.flush().unwrap();
        if let Some(b) = fin.block {
            blocks.push(b);
        }
        let mut reused = vec![Vec::new(); 2];
        for b in blocks {
            for (src, est) in b.sources.iter().enumerate() {
                reused[src].extend_from_slice(est);
            }
        }
        assert_eq!(fin.dropped_samples, fresh_dropped);
        assert_eq!(reused, fresh, "a reset session must reproduce a fresh one bit-for-bit");
        assert_eq!(
            sep.fft_plans_built(),
            plans_first_run,
            "reset must keep the plan cache hot (no rebuilt plans on reuse)"
        );
    }

    #[test]
    fn reset_discards_pending_blocks_from_a_failed_push() {
        let fs = 100.0;
        let cfg = fast_stream_cfg(3000, 0);
        let mut sep = StreamingSeparator::new(fs, 1, cfg).unwrap();
        let n = 6000;
        let mixed: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 1.3 * i as f64 / fs).sin()).collect();
        let mut track = vec![1.3f64; 3000];
        track.resize(n, 1e-7);
        assert!(sep.push(&mixed, &[&track]).is_err());

        sep.reset();
        let good = vec![1.3f64; n];
        let blocks = sep.push(&mixed, &[&good]).unwrap();
        // Post-reset blocks restart at position 0 with nothing stale mixed in.
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks.iter().map(StreamBlock::len).sum::<usize>(), 6000);
    }

    #[test]
    fn failed_chunk_retains_earlier_blocks() {
        let fs = 100.0;
        let n = 6000;
        let cfg = fast_stream_cfg(3000, 0);
        let mut sep = StreamingSeparator::new(fs, 1, cfg).unwrap();
        let mixed: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 1.3 * i as f64 / fs).sin()).collect();
        // Healthy first chunk; the second chunk's track is so slow it
        // unwarps to nothing and fails with InputTooShort mid-push.
        let mut track = vec![1.3f64; 3000];
        track.resize(n, 1e-7);
        let err = sep.push(&mixed, &[&track]).unwrap_err();
        assert!(matches!(err, StreamError::Dhf(DhfError::InputTooShort { .. })));
        // The stride separated before the failure is not lost: flush
        // delivers it (and reports the unseparable remainder as dropped).
        let fin = sep.flush().unwrap();
        let block = fin.block.unwrap();
        assert_eq!(block.start, 0);
        assert_eq!(block.len(), 3000);
        assert_eq!(fin.dropped_samples, 3000);
    }

    #[test]
    fn flush_on_short_leftover_reports_drop() {
        let fs = 100.0;
        let n = 3100; // one chunk + 100 leftover samples (< one window)
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = fast_stream_cfg(3000, 600);
        let (out, dropped) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();
        // The chunk emits [0, 2400) and leaves a 600-sample tail; the
        // 700 leftover samples past 2400 still form a viable (shrunken-
        // window) final chunk, so everything is covered.
        assert_eq!(dropped, 0);
        assert_eq!(out[0].len(), n);

        // A stream far shorter than one analysis window drops everything.
        let (mix, _, _, tracks) = make_mix(fs, 50);
        let (out, dropped) = separate_streamed(&mix, fs, &tracks, &cfg).unwrap();
        assert_eq!(dropped, 50);
        assert!(out[0].is_empty());
    }
}
