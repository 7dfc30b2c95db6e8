//! Spectrogram magnitude in-painting (paper §3.3, Eq. 9).
//!
//! The deep-prior path fits the SpAc LU-Net to the *visible* cells of the
//! magnitude image; the network's structural bias (harmonic frequency
//! neighbourhoods, dilated constant-bin time neighbourhoods) extends the
//! target's pattern into the concealed cells. A deterministic
//! harmonic-interpolation path is provided as an ablation and fallback:
//! it linearly interpolates each bin across its hidden frames — the
//! "prior" reduced to pure temporal continuity.

use crate::DhfError;
use dhf_nn::{DeepPriorNet, FitParams, NetConfig, TrainReport, WarmFitParams, WeightState};
use dhf_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// In-painting strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum InpaintMethod {
    /// The paper's deep prior (SpAc LU-Net trained per round).
    DeepPrior,
    /// Deterministic per-bin linear interpolation over time (ablation).
    HarmonicInterp,
}

/// In-painting configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InpaintConfig {
    /// Strategy.
    pub method: InpaintMethod,
    /// Optimizer steps per round (deep prior only).
    pub iterations: usize,
    /// Adam learning rate (deep prior only).
    pub lr: f32,
    /// Network hyper-parameters; the pipeline overrides the time dilation
    /// per round (paper §4.2 picks 13 or 15 by masking situation).
    pub net: NetConfig,
    /// Seed for the network init and noise code.
    pub seed: u64,
    /// Warm-start budget. `Some` lets callers that keep a [`WarmSlot`]
    /// alive (the streaming engine's persistent round context) resume the
    /// previous invocation's trained prior with a short fine-tune instead
    /// of a from-scratch fit. `None` (the default) always fits cold.
    pub warm: Option<WarmFitParams>,
}

impl Default for InpaintConfig {
    fn default() -> Self {
        InpaintConfig {
            method: InpaintMethod::DeepPrior,
            iterations: FitParams::FULL.iterations,
            lr: FitParams::FULL.lr,
            net: NetConfig::default(),
            seed: 0x0D1F,
            warm: None,
        }
    }
}

/// Result of one in-painting invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InpaintOutcome {
    /// In-painted magnitude image (bin-major `bins × frames`).
    pub magnitude: Vec<f64>,
    /// Training summary (deep prior only).
    pub report: Option<TrainReport>,
}

/// Persistent warm-start state for one in-painting lane.
///
/// The streaming engine keeps one slot per source: the net trained on
/// chunk *k* stays resident and chunk *k+1* resumes it with a short
/// fine-tune ([`InpaintConfig::warm`]). A slot can also be *seeded* with a
/// [`WeightState`] snapshot (the serving runtime's warm pools hand states
/// across sessions); the next compatible in-paint adopts it instead of
/// fitting cold.
#[derive(Debug, Default)]
pub struct WarmSlot {
    net: Option<DeepPriorNet>,
    pending: Option<WeightState>,
}

impl WarmSlot {
    /// Forgets the resident net and any pending snapshot.
    pub fn clear(&mut self) {
        self.net = None;
        self.pending = None;
    }

    /// True when a trained net is resident.
    pub fn is_warm(&self) -> bool {
        self.net.is_some()
    }

    /// Snapshots the resident net's weights (for serving warm pools).
    pub fn capture(&self) -> Option<WeightState> {
        self.net.as_ref().map(DeepPriorNet::capture_weights)
    }

    /// Stages a snapshot for adoption by the next compatible in-paint.
    pub fn seed(&mut self, state: WeightState) {
        self.pending = Some(state);
    }
}

/// How a deep-prior invocation obtained its weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmEvent {
    /// Resumed a resident (or seeded) weight state with a warm fine-tune.
    Warm,
    /// Fit from scratch.
    Cold,
    /// No fit ran (non-deep-prior method, or an all-zero image).
    Bypass,
}

/// Deterministic per-bin linear interpolation across hidden frames.
fn harmonic_interp(
    magnitude: &[f64],
    bins: usize,
    frames: usize,
    mask_visible: &[f32],
) -> Vec<f64> {
    use dhf_dsp::interp::linear_interp;
    let mut out = magnitude.to_vec();
    for b in 0..bins {
        let row = &magnitude[b * frames..(b + 1) * frames];
        let vis: Vec<usize> = (0..frames).filter(|&m| mask_visible[b * frames + m] > 0.5).collect();
        if vis.is_empty() {
            for v in &mut out[b * frames..(b + 1) * frames] {
                *v = 0.0;
            }
            continue;
        }
        if vis.len() == frames {
            continue;
        }
        let xs: Vec<f64> = vis.iter().map(|&m| m as f64).collect();
        let ys: Vec<f64> = vis.iter().map(|&m| row[m]).collect();
        let queries: Vec<f64> = (0..frames).map(|m| m as f64).collect();
        let filled = linear_interp(&xs, &ys, &queries).expect("valid interpolation input");
        for m in 0..frames {
            if mask_visible[b * frames + m] <= 0.5 {
                out[b * frames + m] = filled[m];
            }
        }
    }
    out
}

/// Preparation of a deep-prior fit: peak normalization, time-axis
/// padding to the pooling schedule, the adaptive output bias, and the
/// padded target/mask images.
struct FitSetup {
    peak: f64,
    padded: usize,
    target: Tensor,
    mask: Tensor,
    net_cfg: NetConfig,
}

/// Returns `None` for an all-zero image (nothing to in-paint).
fn fit_setup(
    magnitude: &[f64],
    bins: usize,
    frames: usize,
    mask_visible: &[f32],
    cfg: &InpaintConfig,
) -> Option<FitSetup> {
    let peak = magnitude.iter().cloned().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return None;
    }
    let td = cfg.net.time_divisor();
    let padded = frames.div_ceil(td) * td;

    // Adaptive output bias: start the sigmoid head at the mean *visible*
    // normalized magnitude, so a weak target's rows are reachable and the
    // hidden background starts at the right level. Without this, a weak
    // source buried under a strong residual inherits a floor far above
    // its own amplitude and the in-painted cells carry excess energy.
    let mut vis_sum = 0.0f64;
    let mut vis_count = 0.0f64;
    for (i, &m) in magnitude.iter().enumerate() {
        if mask_visible[i] > 0.5 {
            vis_sum += m / peak;
            vis_count += 1.0;
        }
    }
    let mean_visible = if vis_count > 0.0 { (vis_sum / vis_count).clamp(1e-4, 0.5) } else { 0.05 };
    let output_bias = (mean_visible / (1.0 - mean_visible)).ln() as f32;

    // Build padded target and mask ([1, bins, padded]); the padding is
    // invisible to the loss.
    let mut target = Tensor::zeros(&[1, bins, padded]);
    let mut mask = Tensor::zeros(&[1, bins, padded]);
    for b in 0..bins {
        for m in 0..frames {
            target.data_mut()[b * padded + m] = (magnitude[b * frames + m] / peak) as f32;
            mask.data_mut()[b * padded + m] = mask_visible[b * frames + m];
        }
    }

    let mut net_cfg = cfg.net.clone();
    net_cfg.output_bias = output_bias;
    Some(FitSetup { peak, padded, target, mask, net_cfg })
}

/// How many extra time frames a warm fit may pad beyond the minimum to
/// land on a resident (or seeded) net's extent. Unwarped chunk lengths
/// wobble a few frames as the f0 track drifts; without this slack the
/// architecture fingerprint would miss on nearly every drifting stream
/// and warm starts would silently degrade to cold refits.
pub const WARM_PAD_SLACK_FRAMES: usize = 16;

/// Widens a prepared fit to `new_padded` time frames. The extra columns
/// carry zero target and zero mask, so they are invisible to the loss —
/// a slightly wider net fits the same content.
fn repad(setup: &mut FitSetup, bins: usize, new_padded: usize) {
    if new_padded == setup.padded {
        return;
    }
    let old = setup.padded;
    let mut target = Tensor::zeros(&[1, bins, new_padded]);
    let mut mask = Tensor::zeros(&[1, bins, new_padded]);
    for b in 0..bins {
        for m in 0..old {
            target.data_mut()[b * new_padded + m] = setup.target.data()[b * old + m];
            mask.data_mut()[b * new_padded + m] = setup.mask.data()[b * old + m];
        }
    }
    setup.target = target;
    setup.mask = mask;
    setup.padded = new_padded;
}

/// Keeps the original magnitude at visible cells and fills the concealed
/// ones from the denormalized fitted image (the paper in-paints only the
/// hidden cells).
fn overlay_output(
    magnitude: &[f64],
    bins: usize,
    frames: usize,
    mask_visible: &[f32],
    peak: f64,
    img: &Tensor,
) -> Vec<f64> {
    let padded = img.shape()[2];
    let mut out = vec![0.0f64; bins * frames];
    for b in 0..bins {
        for m in 0..frames {
            let visible = mask_visible[b * frames + m] > 0.5;
            out[b * frames + m] = if visible {
                magnitude[b * frames + m]
            } else {
                img.data()[b * padded + m] as f64 * peak
            };
        }
    }
    out
}

/// In-paints a magnitude image under a visibility mask
/// (`mask_visible[i] == 1.0` means trusted).
///
/// The deep prior is normalized to the image peak, fit on the visible
/// cells over a time axis padded to the pooling schedule, then
/// denormalized and cropped; only the concealed cells take its output.
///
/// When [`InpaintConfig::warm`] is set and `slot` holds a compatible
/// trained net (or a seeded snapshot), the fit resumes from those weights
/// with a bounded fine-tune; otherwise it fits cold and leaves the freshly
/// trained net resident for the next call. When `warm` is `None` every fit
/// is cold, at the minimal padding, and the slot is left empty.
///
/// Compatibility tolerates frame-count wobble: the fit may pad up to
/// [`WARM_PAD_SLACK_FRAMES`] extra time frames beyond the minimum to land
/// on the resident net's extent, so the slightly varying unwarped chunk
/// lengths of a drifting stream still warm-start. A chunk that *outgrows*
/// the resident net (or drifts past the slack) falls back to cold.
///
/// # Errors
///
/// Returns [`DhfError::Net`] if the network cannot be built for the
/// (padded) image extents or its configuration is degenerate.
///
/// # Panics
///
/// Panics if `magnitude.len() != bins * frames` or the mask size differs.
pub fn inpaint_magnitude(
    magnitude: &[f64],
    bins: usize,
    frames: usize,
    mask_visible: &[f32],
    cfg: &InpaintConfig,
    slot: &mut WarmSlot,
) -> Result<(InpaintOutcome, WarmEvent), DhfError> {
    assert_eq!(magnitude.len(), bins * frames, "magnitude image size");
    assert_eq!(mask_visible.len(), bins * frames, "mask image size");
    if cfg.method == InpaintMethod::HarmonicInterp {
        let magnitude = harmonic_interp(magnitude, bins, frames, mask_visible);
        return Ok((InpaintOutcome { magnitude, report: None }, WarmEvent::Bypass));
    }
    // Warm starts disabled: fit in a scratch slot so nothing stays resident.
    let mut cold_only = WarmSlot::default();
    let slot = if cfg.warm.is_some() {
        slot
    } else {
        slot.clear();
        &mut cold_only
    };
    let Some(mut setup) = fit_setup(magnitude, bins, frames, mask_visible, cfg) else {
        return Ok((
            InpaintOutcome { magnitude: magnitude.to_vec(), report: None },
            WarmEvent::Bypass,
        ));
    };
    // Pad-slack scan: prefer the extent whose architecture matches the
    // resident net, else one matching a seeded snapshot, else keep the
    // minimum padding (always the case for an empty slot).
    let td = cfg.net.time_divisor();
    let resident_fp = slot.net.as_ref().map(|n| n.weight_fingerprint());
    let pending_fp = slot.pending.as_ref().map(|s| s.fingerprint());
    let mut chosen = None;
    let mut p = setup.padded;
    while p <= setup.padded + WARM_PAD_SLACK_FRAMES {
        let f = setup.net_cfg.architecture_fingerprint(bins, p);
        if Some(f) == resident_fp {
            chosen = Some(p);
            break;
        }
        if chosen.is_none() && Some(f) == pending_fp {
            chosen = Some(p);
        }
        p += td;
    }
    if let Some(p) = chosen {
        repad(&mut setup, bins, p);
    }
    let fp = setup.net_cfg.architecture_fingerprint(bins, setup.padded);
    let resident_ok = slot.net.as_ref().is_some_and(|n| n.weight_fingerprint() == fp);
    let mut event = WarmEvent::Warm;
    if !resident_ok {
        // Discontinuity (extent or dilation change) or first call:
        // rebuild, adopting a seeded snapshot when one fits.
        slot.net = None;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut net = DeepPriorNet::new(&setup.net_cfg, bins, setup.padded, &mut rng)?;
        let adopted = match slot.pending.take() {
            Some(state) => net.restore_weights(&state).is_ok(),
            None => false,
        };
        if !adopted {
            event = WarmEvent::Cold;
        }
        slot.net = Some(net);
    }
    let net = slot.net.as_mut().expect("slot holds a net here");
    let report = match cfg.warm {
        Some(params) if event == WarmEvent::Warm => {
            net.fit_warm(&setup.target, &setup.mask, &params)
        }
        _ => net.fit(&setup.target, &setup.mask, cfg.iterations, cfg.lr),
    };
    let out =
        overlay_output(magnitude, bins, frames, mask_visible, setup.peak, &net.output_image());
    Ok((InpaintOutcome { magnitude: out, report: Some(report) }, event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_nn::ConvKind;

    /// A 16×12 image with a bright constant row at bin 4 and a hidden
    /// column span.
    fn ridge_case() -> (Vec<f64>, usize, usize, Vec<f32>) {
        let (bins, frames) = (16, 12);
        let mut mag = vec![0.05f64; bins * frames];
        for m in 0..frames {
            mag[4 * frames + m] = 0.9;
            mag[8 * frames + m] = 0.45;
        }
        let mut mask = vec![1.0f32; bins * frames];
        for m in 5..8 {
            for b in 0..bins {
                mask[b * frames + m] = 0.0;
            }
        }
        (mag, bins, frames, mask)
    }

    fn tiny_cfg(method: InpaintMethod) -> InpaintConfig {
        InpaintConfig {
            method,
            iterations: 200,
            lr: 0.02,
            net: NetConfig {
                base_channels: 6,
                depth: 1,
                conv: ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 1, dil_t: 2 },
                ..NetConfig::default()
            },
            seed: 7,
            warm: None,
        }
    }

    /// One in-paint from a fresh slot (warm starts need a slot that lives
    /// across calls).
    fn cold(
        magnitude: &[f64],
        bins: usize,
        frames: usize,
        mask_visible: &[f32],
        cfg: &InpaintConfig,
    ) -> Result<InpaintOutcome, DhfError> {
        let mut slot = WarmSlot::default();
        inpaint_magnitude(magnitude, bins, frames, mask_visible, cfg, &mut slot).map(|(o, _)| o)
    }

    #[test]
    fn harmonic_interp_bridges_gap_exactly_for_constant_rows() {
        let (mag, bins, frames, mask) = ridge_case();
        let out =
            cold(&mag, bins, frames, &mask, &tiny_cfg(InpaintMethod::HarmonicInterp)).unwrap();
        assert!(out.report.is_none());
        for m in 5..8 {
            assert!((out.magnitude[4 * frames + m] - 0.9).abs() < 1e-9);
            assert!((out.magnitude[8 * frames + m] - 0.45).abs() < 1e-9);
        }
    }

    #[test]
    fn harmonic_interp_zeroes_fully_hidden_rows() {
        let (mut mag, bins, frames, mut mask) = ridge_case();
        for m in 0..frames {
            mask[2 * frames + m] = 0.0;
            mag[2 * frames + m] = 0.7;
        }
        let out =
            cold(&mag, bins, frames, &mask, &tiny_cfg(InpaintMethod::HarmonicInterp)).unwrap();
        for m in 0..frames {
            assert_eq!(out.magnitude[2 * frames + m], 0.0);
        }
    }

    #[test]
    fn deep_prior_keeps_visible_cells_verbatim() {
        let (mag, bins, frames, mask) = ridge_case();
        let cfg = InpaintConfig { iterations: 10, ..tiny_cfg(InpaintMethod::DeepPrior) };
        let out = cold(&mag, bins, frames, &mask, &cfg).unwrap();
        for b in 0..bins {
            for m in 0..frames {
                if mask[b * frames + m] > 0.5 {
                    assert_eq!(out.magnitude[b * frames + m], mag[b * frames + m]);
                }
            }
        }
        assert!(out.report.is_some());
    }

    #[test]
    fn deep_prior_reconstructs_hidden_ridge_above_background() {
        let (mag, bins, frames, mask) = ridge_case();
        let out = cold(&mag, bins, frames, &mask, &tiny_cfg(InpaintMethod::DeepPrior)).unwrap();
        for m in 5..8 {
            let ridge = out.magnitude[4 * frames + m];
            let bg = out.magnitude[10 * frames + m];
            assert!(ridge > bg + 0.1, "frame {m}: ridge {ridge} vs bg {bg}");
        }
        let rep = out.report.unwrap();
        assert!(rep.final_loss < rep.initial_loss);
    }

    #[test]
    fn deep_prior_pads_odd_frame_counts() {
        // frames = 13, depth 1 → padded to 14.
        let (bins, frames) = (8, 13);
        let mag = vec![0.2f64; bins * frames];
        let mask = vec![1.0f32; bins * frames];
        let cfg = InpaintConfig { iterations: 3, ..tiny_cfg(InpaintMethod::DeepPrior) };
        let out = cold(&mag, bins, frames, &mask, &cfg).unwrap();
        assert_eq!(out.magnitude.len(), bins * frames);
    }

    #[test]
    fn zero_image_passes_through() {
        let mag = vec![0.0f64; 32];
        let mask = vec![1.0f32; 32];
        let out = cold(&mag, 4, 8, &mask, &tiny_cfg(InpaintMethod::DeepPrior)).unwrap();
        assert_eq!(out.magnitude, mag);
    }

    #[test]
    fn warm_entry_cold_path_matches_plain_inpaint_bitwise() {
        let (mag, bins, frames, mask) = ridge_case();
        let cfg = InpaintConfig { iterations: 40, ..tiny_cfg(InpaintMethod::DeepPrior) };

        // Warm disabled: a cold fit, nothing kept resident.
        let mut slot = WarmSlot::default();
        let (plain, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
        assert!(!slot.is_warm());

        // Warm enabled but slot empty: the first fit is cold and bitwise
        // identical to the warm-disabled one, and the net stays resident.
        let warm_cfg = InpaintConfig { warm: Some(WarmFitParams::default()), ..cfg.clone() };
        let (first, ev) =
            inpaint_magnitude(&mag, bins, frames, &mask, &warm_cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
        assert!(slot.is_warm());
        assert_eq!(first, plain);

        // Warm disabled again: the resident net is dropped, not resumed.
        let (off, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
        assert!(!slot.is_warm());
        assert_eq!(off, plain);
    }

    #[test]
    fn second_invocation_is_warm_and_bounded() {
        let (mag, bins, frames, mask) = ridge_case();
        let warm_params = WarmFitParams::default();
        let cfg = InpaintConfig {
            iterations: 150,
            warm: Some(warm_params),
            ..tiny_cfg(InpaintMethod::DeepPrior)
        };
        let mut slot = WarmSlot::default();
        let (_, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);

        // "Next chunk": slightly attenuated image, same geometry.
        let next: Vec<f64> = mag.iter().map(|&v| v * 0.97).collect();
        let (out, ev) = inpaint_magnitude(&next, bins, frames, &mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Warm);
        let rep = out.report.unwrap();
        assert!(rep.iterations <= warm_params.max_iterations);
    }

    #[test]
    fn geometry_change_falls_back_to_cold() {
        let (mag, bins, frames, mask) = ridge_case();
        let cfg = InpaintConfig {
            iterations: 20,
            warm: Some(WarmFitParams::default()),
            ..tiny_cfg(InpaintMethod::DeepPrior)
        };
        let mut slot = WarmSlot::default();
        let (_, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);

        // One frame fewer still pads to the same extent: the resident
        // net is structurally valid and the fit stays warm.
        let near_mag = &mag[..bins * (frames - 1)];
        let near_mask: Vec<f32> = mask[..bins * (frames - 1)].to_vec();
        let (_, ev) =
            inpaint_magnitude(near_mag, bins, frames - 1, &near_mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Warm);

        // Shrinking past a padding boundary stays warm too: the pad-slack
        // scan widens the fit back to the resident net's extent (the
        // extra columns are invisible to the loss).
        let short_mag = &mag[..bins * (frames - 4)];
        let short_mask: Vec<f32> = mask[..bins * (frames - 4)].to_vec();
        let (_, ev) =
            inpaint_magnitude(short_mag, bins, frames - 4, &short_mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Warm);

        // A chunk that outgrows the resident net cannot fit it → cold.
        let long_frames = frames + WARM_PAD_SLACK_FRAMES + 2;
        let long_mag = vec![0.2f64; bins * long_frames];
        let long_mask = vec![1.0f32; bins * long_frames];
        let (_, ev) =
            inpaint_magnitude(&long_mag, bins, long_frames, &long_mask, &cfg, &mut slot).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
    }

    #[test]
    fn seeded_snapshot_is_adopted_as_warm() {
        let (mag, bins, frames, mask) = ridge_case();
        let cfg = InpaintConfig {
            iterations: 60,
            warm: Some(WarmFitParams::default()),
            ..tiny_cfg(InpaintMethod::DeepPrior)
        };
        let mut donor = WarmSlot::default();
        let (_, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut donor).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
        let state = donor.capture().unwrap();

        // A fresh slot seeded with the snapshot warms on first use — the
        // serving runtime's cross-session hand-off.
        let mut fresh = WarmSlot::default();
        fresh.seed(state);
        let (_, ev) = inpaint_magnitude(&mag, bins, frames, &mask, &cfg, &mut fresh).unwrap();
        assert_eq!(ev, WarmEvent::Warm);

        // A slightly shorter chunk re-pads onto the snapshot's extent and
        // still warms (the pad-slack scan also matches seeded snapshots)…
        let mut near = WarmSlot::default();
        near.seed(donor.capture().unwrap());
        let short_mag = &mag[..bins * (frames - 4)];
        let short_mask: Vec<f32> = mask[..bins * (frames - 4)].to_vec();
        let (_, ev) =
            inpaint_magnitude(short_mag, bins, frames - 4, &short_mask, &cfg, &mut near).unwrap();
        assert_eq!(ev, WarmEvent::Warm);

        // …but a chunk the snapshot's net cannot hold is discarded and
        // the fit goes cold.
        let mut wrong = WarmSlot::default();
        wrong.seed(donor.capture().unwrap());
        let long_frames = frames + WARM_PAD_SLACK_FRAMES + 2;
        let long_mag = vec![0.2f64; bins * long_frames];
        let long_mask = vec![1.0f32; bins * long_frames];
        let (_, ev) =
            inpaint_magnitude(&long_mag, bins, long_frames, &long_mask, &cfg, &mut wrong).unwrap();
        assert_eq!(ev, WarmEvent::Cold);
    }
}
