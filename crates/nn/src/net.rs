//! The deep-prior network: a light U-Net fit to a single masked
//! spectrogram (paper §3.2–3.3).

use crate::blocks::{conv_block, project_out, ConvKind};
use crate::config::{NetConfig, WarmFitParams};
use crate::NnError;
use dhf_tensor::{init, optim::Adam, Graph, Scalar, Tensor, VarId};
use rand::Rng;

/// Summary of one [`DeepPriorNet::fit`] or [`DeepPriorNet::fit_warm`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Masked-MSE loss before the first update.
    pub initial_loss: f32,
    /// Masked-MSE loss after the last update.
    pub final_loss: f32,
    /// Number of optimizer steps actually taken (for warm fits this can be
    /// below the configured cap when the loss plateaus early).
    pub iterations: usize,
}

/// A portable snapshot of a trained prior: every trainable parameter plus
/// the fixed noise code `z`, in graph order.
///
/// The noise code travels with the weights on purpose — a deep prior's
/// weights are tuned to *its* `z`; restoring one without the other lands
/// far from the captured optimum. Snapshots are stored at `f32` (the
/// serving precision) regardless of the precision they were captured from.
///
/// A `fingerprint` of the architecture (extents, channel plan, convolution
/// flavour) guards restores: [`DeepPriorNet::restore_weights`] refuses a
/// state captured from a structurally different network.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightState {
    fingerprint: u64,
    tensors: Vec<Tensor<f32>>,
}

impl WeightState {
    /// Architecture fingerprint this state was captured from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total number of scalars in the snapshot (parameters + noise code).
    pub fn numel(&self) -> usize {
        self.tensors.iter().map(Tensor::numel).sum()
    }

    /// Serializes to a little-endian byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize =
            self.tensors.iter().map(|t| 4 + 4 * t.shape().len() + 4 * t.numel()).sum();
        let mut out = Vec::with_capacity(12 + payload);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &v in t.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a stream produced by [`WeightState::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the stream is truncated or a
    /// declared shape is inconsistent with the remaining payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NnError> {
        const TRUNCATED: NnError = NnError::BadConfig("weight state bytes truncated");
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], NnError> {
            let end = pos.checked_add(n).ok_or(TRUNCATED)?;
            let slice = bytes.get(pos..end).ok_or(TRUNCATED)?;
            pos = end;
            Ok(slice)
        };
        let fingerprint = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let count = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            if rank > 8 {
                return Err(NnError::BadConfig("weight state tensor rank out of range"));
            }
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize);
            }
            let numel: usize = shape.iter().product();
            let raw = take(4 * numel)?;
            let data = raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap()));
            tensors.push(Tensor::from_vec(&shape, data.collect()));
        }
        if pos != bytes.len() {
            return Err(NnError::BadConfig("weight state bytes have trailing garbage"));
        }
        Ok(WeightState { fingerprint, tensors })
    }
}

/// A U-Net deep prior over a single `[1, F, T]` magnitude image.
///
/// Construction follows the paper's Fig. 2: encoder levels of two
/// convolution blocks followed by **time-only** average pooling, a
/// bottleneck block, and decoder levels of nearest upsampling, skip
/// concatenation, and one convolution block. Frequency pooling is attached
/// only when [`NetConfig::freq_pool`] is set (Zhang-baseline ablation).
///
/// The working precision is generic (default `f32`, the production path;
/// `f64` is the accuracy reference). Weight snapshots move through
/// [`WeightState`], enabling warm-started fine-tunes across streaming
/// chunks via [`DeepPriorNet::fit_warm`].
pub struct DeepPriorNet<S: Scalar = f32> {
    graph: Graph<S>,
    output: VarId,
    target: VarId,
    mask: VarId,
    loss: VarId,
    z: VarId,
    bins: usize,
    frames: usize,
    fingerprint: u64,
}

impl<S: Scalar> std::fmt::Debug for DeepPriorNet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepPriorNet")
            .field("bins", &self.bins)
            .field("frames", &self.frames)
            .field("params", &self.graph.param_count())
            .finish()
    }
}

impl<S: Scalar> DeepPriorNet<S> {
    /// Builds the network for a `bins × frames` spectrogram.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadExtent`] when `frames` (or `bins`, if
    /// frequency pooling is enabled) is not divisible by the pooling
    /// schedule, and [`NnError::BadConfig`] for degenerate configurations.
    pub fn new<R: Rng>(
        cfg: &NetConfig,
        bins: usize,
        frames: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if cfg.base_channels == 0 || cfg.in_channels == 0 {
            return Err(NnError::BadConfig("channel counts must be positive"));
        }
        // The kernel builders assert these; reject them here as typed errors.
        match cfg.conv {
            ConvKind::Standard { kf, kt, .. } if kf % 2 == 0 || kt % 2 == 0 => {
                return Err(NnError::BadConfig("kernel extents must be odd"));
            }
            ConvKind::Harmonic { kt, .. } if kt % 2 == 0 => {
                return Err(NnError::BadConfig("kernel extents must be odd"));
            }
            ConvKind::Harmonic { harmonics: 0, .. } => {
                return Err(NnError::BadConfig("harmonic count must be positive"));
            }
            ConvKind::Harmonic { anchor: 0, .. } => {
                return Err(NnError::BadConfig("harmonic anchor must be positive"));
            }
            _ => {}
        }
        if cfg.freq_pool == Some(0) {
            return Err(NnError::BadConfig("frequency pooling factor must be positive"));
        }
        let td = cfg.time_divisor();
        if frames % td != 0 || frames == 0 {
            return Err(NnError::BadExtent { axis: "time", extent: frames, divisor: td });
        }
        let fd = cfg.freq_divisor();
        if bins % fd != 0 || bins == 0 {
            return Err(NnError::BadExtent { axis: "freq", extent: bins, divisor: fd });
        }

        let mut g: Graph<S> = Graph::new();
        let z = g.input(init::noise_input(&[cfg.in_channels, bins, frames], cfg.z_std, rng));

        let mut x = z;
        let mut in_ch = cfg.in_channels;
        let mut skips: Vec<(VarId, usize)> = Vec::with_capacity(cfg.depth);
        // Encoder.
        for level in 0..cfg.depth {
            let ch = cfg.base_channels << level;
            x = conv_block(&mut g, x, in_ch, ch, &cfg.conv, cfg.relu_slope, rng);
            x = conv_block(&mut g, x, ch, ch, &cfg.conv, cfg.relu_slope, rng);
            skips.push((x, ch));
            x = g.avg_pool_time(x, 2);
            if let Some(fp) = cfg.freq_pool {
                x = g.max_pool_freq(x, fp);
            }
            in_ch = ch;
        }
        // Bottleneck.
        let bott_ch = cfg.base_channels << cfg.depth;
        x = conv_block(&mut g, x, in_ch, bott_ch, &cfg.conv, cfg.relu_slope, rng);
        in_ch = bott_ch;
        // Decoder.
        for level in (0..cfg.depth).rev() {
            x = g.upsample_time(x, 2);
            if let Some(fp) = cfg.freq_pool {
                x = g.upsample_freq(x, fp);
            }
            let (skip, skip_ch) = skips[level];
            x = g.concat(x, skip);
            let ch = cfg.base_channels << level;
            x = conv_block(&mut g, x, in_ch + skip_ch, ch, &cfg.conv, cfg.relu_slope, rng);
            in_ch = ch;
        }
        // Output projection + sigmoid head. The head starts at the
        // configured background level so an undertrained prior cannot
        // flood hidden cells with mid-gray magnitude.
        let proj = project_out(&mut g, x, in_ch, 1, cfg.output_bias, rng);
        let output = g.sigmoid(proj);

        let target = g.input(Tensor::zeros(&[1, bins, frames]));
        let mask = g.input(Tensor::zeros(&[1, bins, frames]));
        let loss = g.mse_masked(output, target, mask);

        let fingerprint = cfg.architecture_fingerprint(bins, frames);
        Ok(DeepPriorNet { graph: g, output, target, mask, loss, z, bins, frames, fingerprint })
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.graph.param_count()
    }

    /// Frequency bins the network was built for.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Time frames the network was built for.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Architecture fingerprint (see [`WeightState`]).
    pub fn weight_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Fits the prior to `target` under `mask` (1 = visible, 0 = hidden)
    /// with Adam for `iterations` steps.
    ///
    /// The loss only sees visible cells, so hidden cells are *in-painted*
    /// by the network's structural bias. This is the training loop of
    /// [`DeepPriorNet::fit_warm`] without its plateau stop.
    ///
    /// # Panics
    ///
    /// Panics if `target`/`mask` are not `[1, bins, frames]`.
    pub fn fit(
        &mut self,
        target: &Tensor<S>,
        mask: &Tensor<S>,
        iterations: usize,
        lr: f32,
    ) -> TrainReport {
        let no_stop = WarmFitParams {
            max_iterations: iterations,
            lr,
            patience: usize::MAX,
            min_rel_improvement: 0.0,
        };
        self.train(target, mask, &no_stop)
    }

    /// Fine-tunes the *current* weights toward a new target: at most
    /// `params.max_iterations` Adam steps, stopping early once the loss
    /// has failed to improve for `params.patience` consecutive steps.
    ///
    /// Unlike [`DeepPriorNet::fit`] this never re-initializes anything —
    /// it is the warm-start half of the streaming in-painter, where the
    /// previous chunk's converged prior is resumed on the next chunk's
    /// spectrogram. Optimizer moments are intentionally fresh per call
    /// (stale moments from a different target mislead more than they
    /// help). The net keeps the weights of its last step.
    ///
    /// # Panics
    ///
    /// Panics if `target`/`mask` are not `[1, bins, frames]`.
    pub fn fit_warm(
        &mut self,
        target: &Tensor<S>,
        mask: &Tensor<S>,
        params: &WarmFitParams,
    ) -> TrainReport {
        self.train(target, mask, params)
    }

    /// The one Adam loop behind [`DeepPriorNet::fit`] and
    /// [`DeepPriorNet::fit_warm`]. Each step evaluates the loss once: the
    /// forward pass after an update yields both the loss the plateau rule
    /// reads and the activations the next backward pass needs.
    fn train(
        &mut self,
        target: &Tensor<S>,
        mask: &Tensor<S>,
        params: &WarmFitParams,
    ) -> TrainReport {
        assert_eq!(target.shape(), &[1, self.bins, self.frames], "target shape");
        assert_eq!(mask.shape(), &[1, self.bins, self.frames], "mask shape");
        self.graph.set_value(self.target, target.clone());
        self.graph.set_value(self.mask, mask.clone());
        let mut adam: Adam<S> = Adam::new(params.lr);
        self.graph.forward();
        let initial_loss = self.loss_value();
        let mut loss = initial_loss;
        let mut best = f32::INFINITY;
        let mut stale = 0usize;
        let mut steps = 0usize;
        while steps < params.max_iterations {
            if loss < best * (1.0 - params.min_rel_improvement) {
                best = loss;
                stale = 0;
            } else {
                stale += 1;
                if stale >= params.patience {
                    break;
                }
            }
            self.graph.backward(self.loss);
            adam.step(&mut self.graph);
            self.graph.forward();
            loss = self.loss_value();
            steps += 1;
        }
        TrainReport { initial_loss, final_loss: loss, iterations: steps }
    }

    /// Snapshots the trainable parameters and the noise code `z`.
    pub fn capture_weights(&self) -> WeightState {
        let mut tensors: Vec<Tensor<f32>> =
            self.graph.params().iter().map(|&p| self.graph.value(p).cast()).collect();
        tensors.push(self.graph.value(self.z).cast());
        WeightState { fingerprint: self.fingerprint, tensors }
    }

    /// Overwrites the trainable parameters and noise code from a snapshot,
    /// then re-runs the forward pass so the output image is consistent.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the snapshot's fingerprint or
    /// any tensor shape disagrees with this network — the caller should
    /// fall back to a cold [`DeepPriorNet::fit`].
    pub fn restore_weights(&mut self, state: &WeightState) -> Result<(), NnError> {
        if state.fingerprint != self.fingerprint {
            return Err(NnError::BadConfig("weight state fingerprint mismatch"));
        }
        let ids: Vec<VarId> = self.graph.params().to_vec();
        if state.tensors.len() != ids.len() + 1 {
            return Err(NnError::BadConfig("weight state tensor count mismatch"));
        }
        for (&id, t) in ids.iter().zip(&state.tensors) {
            if self.graph.value(id).shape() != t.shape() {
                return Err(NnError::BadConfig("weight state tensor shape mismatch"));
            }
        }
        let z_state = state.tensors.last().expect("checked non-empty");
        if self.graph.value(self.z).shape() != z_state.shape() {
            return Err(NnError::BadConfig("weight state noise-code shape mismatch"));
        }
        for (&id, t) in ids.iter().zip(&state.tensors) {
            self.graph.set_value(id, t.cast());
        }
        self.graph.set_value(self.z, z_state.cast());
        self.graph.forward();
        Ok(())
    }

    /// The network's current output image `[1, bins, frames]`
    /// (call after [`DeepPriorNet::fit`]).
    pub fn output_image(&self) -> Tensor<S> {
        self.graph.value(self.output).clone()
    }

    /// Current masked-MSE loss value.
    pub fn loss_value(&self) -> f32 {
        self.graph.value(self.loss).data()[0].to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> NetConfig {
        NetConfig {
            base_channels: 4,
            depth: 1,
            conv: ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 1, dil_t: 1 },
            ..NetConfig::default()
        }
    }

    #[test]
    fn constructor_validates_extents() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = NetConfig { depth: 2, ..tiny_cfg() };
        // frames=10 not divisible by 4.
        assert!(matches!(
            DeepPriorNet::<f32>::new(&cfg, 16, 10, &mut rng),
            Err(NnError::BadExtent { axis: "time", .. })
        ));
        // freq pooling requires divisible bins.
        let cfg = NetConfig { depth: 2, freq_pool: Some(2), ..tiny_cfg() };
        assert!(matches!(
            DeepPriorNet::<f32>::new(&cfg, 18, 16, &mut rng),
            Err(NnError::BadExtent { axis: "freq", .. })
        ));
        assert!(DeepPriorNet::<f32>::new(&cfg, 16, 16, &mut rng).is_ok());
    }

    #[test]
    fn constructor_rejects_malformed_kernel_geometry() {
        let bad = [
            ConvKind::Harmonic { harmonics: 3, kt: 2, anchor: 1, dil_t: 1 },
            ConvKind::Harmonic { harmonics: 0, kt: 3, anchor: 1, dil_t: 1 },
            ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 0, dil_t: 1 },
            ConvKind::Standard { kf: 4, kt: 3, dil_f: 1, dil_t: 1 },
            ConvKind::Standard { kf: 3, kt: 0, dil_f: 1, dil_t: 1 },
        ];
        for conv in bad {
            let cfg = NetConfig { conv, ..tiny_cfg() };
            let mut rng = StdRng::seed_from_u64(0);
            assert!(
                matches!(
                    DeepPriorNet::<f32>::new(&cfg, 16, 8, &mut rng),
                    Err(NnError::BadConfig(_))
                ),
                "{conv:?} must be rejected"
            );
        }
        let cfg = NetConfig { freq_pool: Some(0), ..tiny_cfg() };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            DeepPriorNet::<f32>::new(&cfg, 16, 8, &mut rng),
            Err(NnError::BadConfig(_))
        ));
    }

    #[test]
    fn fit_is_fit_warm_without_the_plateau_stop() {
        let mut t = Tensor::filled(&[1, 16, 8], 0.05);
        for fr in 0..8 {
            t.data_mut()[3 * 8 + fr] = 0.9;
        }
        let mut mask = Tensor::filled(&[1, 16, 8], 1.0);
        for b in 0..16 {
            mask.data_mut()[b * 8 + 5] = 0.0;
        }
        let (iterations, lr) = (40, 0.02);
        let no_stop = WarmFitParams {
            max_iterations: iterations,
            lr,
            patience: usize::MAX,
            min_rel_improvement: 0.0,
        };
        let mut a: DeepPriorNet =
            DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut StdRng::seed_from_u64(10)).unwrap();
        let mut b: DeepPriorNet =
            DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut StdRng::seed_from_u64(10)).unwrap();
        let ra = a.fit(&t, &mask, iterations, lr);
        let rb = b.fit_warm(&t, &mask, &no_stop);
        assert_eq!(ra, rb);
        assert_eq!(ra.iterations, iterations);
        let bits = |n: &DeepPriorNet| -> Vec<u32> {
            n.output_image().data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(ra.final_loss, a.loss_value());
    }

    #[test]
    fn output_has_input_shape_and_sigmoid_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 12, 8, &mut rng).unwrap();
        let target = Tensor::filled(&[1, 12, 8], 0.3);
        let mask = Tensor::filled(&[1, 12, 8], 1.0);
        net.fit(&target, &mask, 1, 0.01);
        let out = net.output_image();
        assert_eq!(out.shape(), &[1, 12, 8]);
        assert!(out.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn fit_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        // Target: two bright harmonic rows.
        let mut t = Tensor::filled(&[1, 16, 8], 0.05);
        for fr in 0..8 {
            t.data_mut()[3 * 8 + fr] = 0.9;
            t.data_mut()[6 * 8 + fr] = 0.6;
        }
        let mask = Tensor::filled(&[1, 16, 8], 1.0);
        let report = net.fit(&t, &mask, 60, 0.02);
        assert!(
            report.final_loss < report.initial_loss * 0.5,
            "loss {} → {}",
            report.initial_loss,
            report.final_loss
        );
    }

    #[test]
    fn inpainting_fills_masked_column_from_harmonic_context() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = NetConfig {
            conv: ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 1, dil_t: 2 },
            base_channels: 6,
            depth: 1,
            ..NetConfig::default()
        };
        let mut net: DeepPriorNet = DeepPriorNet::new(&cfg, 16, 12, &mut rng).unwrap();
        // A constant harmonic row at bin 4, hidden in frames 5..7.
        let mut t = Tensor::filled(&[1, 16, 12], 0.1);
        for fr in 0..12 {
            t.data_mut()[4 * 12 + fr] = 0.8;
        }
        let mut mask = Tensor::filled(&[1, 16, 12], 1.0);
        for fr in 5..7 {
            for b in 0..16 {
                mask.data_mut()[b * 12 + fr] = 0.0;
            }
        }
        net.fit(&t, &mask, 250, 0.02);
        let out = net.output_image();
        // The hidden part of the ridge is reconstructed above background.
        for fr in 5..7 {
            let ridge = out.data()[4 * 12 + fr];
            let bg = out.data()[9 * 12 + fr];
            assert!(ridge > bg + 0.2, "frame {fr}: ridge {ridge} not above background {bg}");
        }
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut rng = StdRng::seed_from_u64(4);
        let net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let n1 = net.param_count();
        assert!(n1 > 0);
        let mut rng = StdRng::seed_from_u64(99);
        let net2: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        assert_eq!(n1, net2.param_count(), "param count must not depend on rng");
    }

    #[test]
    fn restored_net_reproduces_output_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let t = Tensor::filled(&[1, 16, 8], 0.4);
        let mask = Tensor::filled(&[1, 16, 8], 1.0);
        a.fit(&t, &mask, 25, 0.02);
        let state = a.capture_weights();

        // A net from an unrelated seed adopts the snapshot wholesale
        // (weights *and* noise code), so its output matches bit for bit.
        let mut rng = StdRng::seed_from_u64(12345);
        let mut b: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        assert_eq!(a.weight_fingerprint(), b.weight_fingerprint());
        b.restore_weights(&state).unwrap();
        assert_eq!(a.output_image().data(), b.output_image().data());
    }

    #[test]
    fn weight_state_round_trips_through_bytes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let t = Tensor::filled(&[1, 16, 8], 0.2);
        let mask = Tensor::filled(&[1, 16, 8], 1.0);
        net.fit(&t, &mask, 5, 0.02);
        let state = net.capture_weights();
        let decoded = WeightState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(state, decoded);
        assert!(state.numel() > net.param_count(), "snapshot must include z");

        // Truncation is rejected, not misparsed.
        let bytes = state.to_bytes();
        assert!(WeightState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(WeightState::from_bytes(&bytes[..7]).is_err());
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(7);
        let donor: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let state = donor.capture_weights();
        // Different frame count → different fingerprint.
        let mut other: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 16, &mut rng).unwrap();
        assert!(other.restore_weights(&state).is_err());
        // Different dilation → same shapes, still refused.
        let cfg = NetConfig {
            conv: ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 1, dil_t: 2 },
            ..tiny_cfg()
        };
        let mut other: DeepPriorNet = DeepPriorNet::new(&cfg, 16, 8, &mut rng).unwrap();
        assert!(other.restore_weights(&state).is_err());
    }

    #[test]
    fn warm_fit_resumes_near_the_captured_optimum() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let mut t = Tensor::filled(&[1, 16, 8], 0.05);
        for fr in 0..8 {
            t.data_mut()[3 * 8 + fr] = 0.9;
        }
        let mask = Tensor::filled(&[1, 16, 8], 1.0);
        let cold = net.fit(&t, &mask, 120, 0.02);

        // A slightly shifted target (next "chunk"): the warm fine-tune
        // starts from the converged loss, far below a cold start.
        let next = t.map(|v| (v * 0.95).min(1.0));
        let warm = net.fit_warm(&next, &mask, &WarmFitParams::default());
        assert!(
            warm.initial_loss < cold.initial_loss * 0.5,
            "warm start {} should sit well below cold start {}",
            warm.initial_loss,
            cold.initial_loss
        );
        assert!(warm.iterations <= WarmFitParams::default().max_iterations);
        // Fresh Adam moments can overshoot for a step or two, but the
        // fine-tune must end far below where a cold start begins.
        assert!(
            warm.final_loss < cold.initial_loss * 0.5,
            "warm final {} vs cold start {}",
            warm.final_loss,
            cold.initial_loss
        );
    }

    #[test]
    fn warm_fit_early_stops_on_plateau() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net: DeepPriorNet = DeepPriorNet::new(&tiny_cfg(), 16, 8, &mut rng).unwrap();
        let t = Tensor::filled(&[1, 16, 8], 0.3);
        let mask = Tensor::filled(&[1, 16, 8], 1.0);
        net.fit(&t, &mask, 200, 0.02);
        // Refit on the *same* target: already converged, so the plateau
        // rule must fire long before the cap.
        let params = WarmFitParams { max_iterations: 400, ..WarmFitParams::default() };
        let warm = net.fit_warm(&t, &mask, &params);
        assert!(
            warm.iterations < params.max_iterations,
            "expected early stop, ran all {} steps",
            warm.iterations
        );
    }
}
