//! Harmonic mask construction (paper §3.3).
//!
//! In the pattern-aligned spectrogram the target source occupies constant
//! integer-frequency rows; every *other* source traces time-varying ridges
//! at `k · f_other(t)/f_target(t)` unwarped Hz. The mask conceals a band
//! around each such ridge for the first `harmonics` multiples, hiding all
//! significant interference from the in-painting loss (Eq. 9). Overlaps
//! with the target's own rows are hidden too — those crossover cells are
//! precisely what the deep prior must in-paint.

use dhf_dsp::stft::StftConfig;

/// A binary visibility mask over a `bins × frames` spectrogram
/// (bin-major). `true` = visible to the loss, `false` = concealed.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicMask {
    bins: usize,
    frames: usize,
    visible: Vec<bool>,
}

impl HarmonicMask {
    /// An empty mask (zero bins and frames) — the placeholder a reusable
    /// round context starts from; the first [`HarmonicMask::rebuild`]
    /// overwrites shape and data.
    pub fn empty() -> Self {
        HarmonicMask { bins: 0, frames: 0, visible: Vec::new() }
    }

    /// Builds a mask that conceals every listed interferer harmonic
    /// unconditionally (see [`HarmonicMask::rebuild`] for the arguments).
    pub fn build(
        cfg: &StftConfig,
        frames: usize,
        interferer_ratios: &[Vec<f64>],
        harmonics: usize,
        bandwidth_hz: f64,
    ) -> Self {
        let mut mask = HarmonicMask::empty();
        mask.rebuild(cfg, frames, interferer_ratios, harmonics, bandwidth_hz, None);
        mask
    }

    /// Rebuilds the mask for one separation round in place, reusing its
    /// buffer — the per-round entry point of the pipeline's reusable round
    /// context.
    ///
    /// * `cfg` — the unwarped-space STFT layout (1 unwarped Hz = target
    ///   fundamental).
    /// * `frames` — number of STFT frames.
    /// * `interferer_ratios` — for each non-target source, its frequency
    ///   ratio `f_other/f_target` evaluated at each frame centre
    ///   (`frames` values per source).
    /// * `harmonics` — how many multiples of each interferer to conceal.
    /// * `bandwidth_hz` — half-width of the concealed band in unwarped Hz.
    /// * `magnitude` — the round's bin-major magnitude image. When given,
    ///   a harmonic is left visible if its ridge carries no energy: no
    ///   frame puts the ridge at or below Nyquist, or the magnitude along
    ///   it sums to zero. Hiding such a band would cost target cells for
    ///   no benefit. `None` conceals every harmonic.
    pub fn rebuild(
        &mut self,
        cfg: &StftConfig,
        frames: usize,
        interferer_ratios: &[Vec<f64>],
        harmonics: usize,
        bandwidth_hz: f64,
        magnitude: Option<&[f64]>,
    ) {
        let bins = cfg.bins();
        self.bins = bins;
        self.frames = frames;
        self.visible.clear();
        self.visible.resize(bins * frames, true);
        let visible = &mut self.visible;
        for ratios in interferer_ratios {
            for k in 1..=harmonics {
                if let Some(mag) = magnitude {
                    let mut ridge_energy = 0.0f64;
                    for (m, &ratio) in ratios.iter().take(frames).enumerate() {
                        let centre = k as f64 * ratio;
                        if ratio > 0.0 && centre <= cfg.fs() / 2.0 {
                            ridge_energy += mag[cfg.frequency_to_bin(centre) * frames + m];
                        }
                    }
                    if ridge_energy <= 0.0 {
                        continue;
                    }
                }
                for (m, &ratio) in ratios.iter().take(frames).enumerate() {
                    if ratio <= 0.0 {
                        continue;
                    }
                    let centre = k as f64 * ratio;
                    if centre > cfg.fs() / 2.0 + bandwidth_hz {
                        continue;
                    }
                    let lo_hz = (centre - bandwidth_hz).max(0.0);
                    let hi_hz = centre + bandwidth_hz;
                    let lo = cfg.frequency_to_bin(lo_hz);
                    let hi = cfg.frequency_to_bin(hi_hz.min(cfg.fs() / 2.0));
                    for b in lo..=hi.min(bins - 1) {
                        visible[b * frames + m] = false;
                    }
                }
            }
        }
    }

    /// Number of frequency bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Visibility of the cell (`bin`, `frame`).
    #[inline]
    pub fn is_visible(&self, bin: usize, frame: usize) -> bool {
        self.visible[bin * self.frames + frame]
    }

    /// Bin-major `f32` image (1 = visible, 0 = hidden) for the loss.
    pub fn as_f32(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.write_f32_into(&mut out);
        out
    }

    /// Writes the bin-major `f32` visibility image into `out` (cleared
    /// first), reusing its capacity.
    pub fn write_f32_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.visible.iter().map(|&v| if v { 1.0 } else { 0.0 }));
    }

    /// Bin-major hidden-cell flags (`true` = concealed), the layout
    /// [`dhf_metrics::masked_energy_ratio`] expects.
    pub fn hidden_flags(&self) -> Vec<bool> {
        self.visible.iter().map(|&v| !v).collect()
    }

    /// Fraction of cells concealed.
    pub fn hidden_fraction(&self) -> f64 {
        if self.visible.is_empty() {
            return 0.0;
        }
        self.visible.iter().filter(|&&v| !v).count() as f64 / self.visible.len() as f64
    }

    /// Per-frame visibility of a single bin row as a borrowed slice (the
    /// bin-major layout makes each row contiguous) — used by the cyclic
    /// phase interpolator without copying.
    pub fn row_visibility(&self, bin: usize) -> &[bool] {
        &self.visible[bin * self.frames..(bin + 1) * self.frames]
    }
}

/// A comb gain over frequency that keeps only bands around the target's
/// harmonic rows (`k` unwarped Hz): the optional output restriction the
/// pipeline applies before resynthesis so that off-comb hallucinations of
/// the prior cannot leak into the separated signal.
pub fn target_comb_gain(cfg: &StftConfig, harmonics: usize, bandwidth_hz: f64) -> Vec<f64> {
    let bins = cfg.bins();
    let mut gain = vec![0.0f64; bins];
    for k in 1..=harmonics {
        let centre = k as f64;
        if centre > cfg.fs() / 2.0 + bandwidth_hz {
            break;
        }
        for (b, g) in gain.iter_mut().enumerate() {
            let f = cfg.bin_frequency(b);
            if (f - centre).abs() <= bandwidth_hz {
                *g = 1.0;
            }
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StftConfig {
        // Unwarped space: 16 Hz, window 128 → 8 bins per unwarped Hz.
        StftConfig::new(128, 32, 16.0).unwrap()
    }

    #[test]
    fn mask_conceals_interferer_ridge() {
        let cfg = cfg();
        let frames = 10;
        // Interferer fixed at ratio 1.5 → ridge at bin 12 (1.5 × 8).
        let ratios = vec![vec![1.5; frames]];
        let mask = HarmonicMask::build(&cfg, frames, &ratios, 2, 0.1);
        for m in 0..frames {
            assert!(!mask.is_visible(12, m), "ridge bin should be hidden");
            assert!(!mask.is_visible(24, m), "2nd harmonic should be hidden");
            assert!(mask.is_visible(8, m), "target row (1 Hz = bin 8) stays visible");
            assert!(mask.is_visible(4, m), "background stays visible");
        }
    }

    #[test]
    fn crossover_hides_target_row() {
        let cfg = cfg();
        let frames = 6;
        // Interferer sweeps through the target's 2nd harmonic (2.0) at
        // frame 3.
        let ratios = vec![vec![1.7, 1.8, 1.9, 2.0, 2.1, 2.2]];
        let mask = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.1);
        // Target 2nd-harmonic row = bin 16.
        assert!(mask.is_visible(16, 0), "no overlap yet at frame 0");
        assert!(!mask.is_visible(16, 3), "crossover frame must be hidden");
    }

    #[test]
    fn bandwidth_widens_the_concealed_band() {
        let cfg = cfg();
        let frames = 4;
        let ratios = vec![vec![1.5; frames]];
        let narrow = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.05);
        let wide = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.4);
        assert!(wide.hidden_fraction() > narrow.hidden_fraction());
    }

    #[test]
    fn no_interferers_means_fully_visible() {
        let cfg = cfg();
        let mask = HarmonicMask::build(&cfg, 5, &[], 4, 0.2);
        assert_eq!(mask.hidden_fraction(), 0.0);
        assert_eq!(mask.as_f32().iter().filter(|&&v| v == 1.0).count(), cfg.bins() * 5);
    }

    #[test]
    fn hidden_flags_complement_visibility() {
        let cfg = cfg();
        let ratios = vec![vec![1.3; 3]];
        let mask = HarmonicMask::build(&cfg, 3, &ratios, 2, 0.15);
        let hidden = mask.hidden_flags();
        let f32s = mask.as_f32();
        for i in 0..hidden.len() {
            assert_eq!(hidden[i], f32s[i] == 0.0);
        }
    }

    #[test]
    fn target_comb_selects_integer_rows() {
        let cfg = cfg();
        let gain = target_comb_gain(&cfg, 3, 0.15);
        // 8 bins per Hz: rows 8, 16, 24 selected (±1 bin), others zero.
        assert_eq!(gain[8], 1.0);
        assert_eq!(gain[16], 1.0);
        assert_eq!(gain[24], 1.0);
        assert_eq!(gain[4], 0.0);
        assert_eq!(gain[12], 0.0);
        // DC is never selected.
        assert_eq!(gain[0], 0.0);
    }

    #[test]
    fn energetic_ridges_are_concealed_and_empty_ones_skipped() {
        let cfg = cfg();
        let frames = 6;
        let bins = cfg.bins();
        // Bright ridge along ratio 1.5 (bin 12) and its 2nd harmonic
        // (bin 24) over a faint background.
        let ratios = vec![vec![1.5; frames]];
        let mut mag = vec![0.01f64; bins * frames];
        for m in 0..frames {
            mag[12 * frames + m] = 1.0;
        }
        let mut mask = HarmonicMask::empty();
        mask.rebuild(&cfg, frames, &ratios, 3, 0.15, Some(&mag));
        // Every harmonic with energy along its ridge is concealed exactly
        // as the unconditional build conceals it.
        assert_eq!(mask, HarmonicMask::build(&cfg, frames, &ratios, 3, 0.15));
        assert!(mask.hidden_fraction() > 0.0);

        // A ridge whose magnitude sums to zero stays visible, while the
        // unconditional build still hides it.
        let dark = vec![0.0f64; bins * frames];
        mask.rebuild(&cfg, frames, &ratios, 3, 0.15, Some(&dark));
        assert_eq!(mask.hidden_fraction(), 0.0);
        assert!(!HarmonicMask::build(&cfg, frames, &ratios, 3, 0.15).is_visible(12, 0));

        // Only the zero-energy harmonic is skipped: with the 1st harmonic
        // dark and the 2nd lit, bin 12 stays visible and bin 24 is hidden.
        let mut second_only = vec![0.0f64; bins * frames];
        for m in 0..frames {
            second_only[24 * frames + m] = 0.5;
        }
        mask.rebuild(&cfg, frames, &ratios, 2, 0.05, Some(&second_only));
        for m in 0..frames {
            assert!(mask.is_visible(12, m), "zero-energy 1st harmonic is skipped");
            assert!(!mask.is_visible(24, m), "energetic 2nd harmonic is concealed");
        }
    }

    #[test]
    fn row_visibility_matches_cells() {
        let cfg = cfg();
        let ratios = vec![vec![1.5; 4]];
        let mask = HarmonicMask::build(&cfg, 4, &ratios, 1, 0.1);
        let row = mask.row_visibility(12);
        assert_eq!(row, vec![false; 4]);
        let row8 = mask.row_visibility(8);
        assert_eq!(row8, vec![true; 4]);
    }
}
