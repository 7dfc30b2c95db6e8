//! Harmonic-convolution work computed from shapes: the layer list of a
//! deep prior (mirroring `DeepPriorNet::new`) and the exact multiply-
//! accumulate count of each layer (mirroring `ops::harmonic::forward`).

use dhf_nn::{ConvKind, NetConfig};
use dhf_tensor::ops::harmonic::harmonic_row;

/// One harmonic-convolution call of the network's forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    pub cin: usize,
    pub cout: usize,
    pub bins: usize,
    pub frames: usize,
    pub harmonics: usize,
    pub kt: usize,
    pub anchor: usize,
    pub dil_t: usize,
}

impl ConvGeometry {
    /// Multiply-accumulates of one forward call: for every output
    /// channel, input channel, frequency bin and in-range harmonic row,
    /// one MAC per time tap per output frame whose tapped input frame is
    /// inside the (zero-padded) time axis.
    pub fn forward_macs(&self) -> u64 {
        let rows = in_range_rows(self.bins, self.harmonics, self.anchor) as u64;
        let half = (self.kt / 2) as isize;
        let taps: u64 = (0..self.kt)
            .map(|j| {
                let shift = (j as isize - half) * self.dil_t as isize;
                self.frames.saturating_sub(shift.unsigned_abs()) as u64
            })
            .sum();
        (self.cout * self.cin) as u64 * rows * taps
    }

    /// Multiply-accumulates of one backward call: the input gradient and
    /// the weight gradient each repeat the forward's MAC pattern.
    pub fn backward_macs(&self) -> u64 {
        2 * self.forward_macs()
    }
}

/// `(k, f)` pairs (harmonic 1..=H, bin 0..F) whose harmonic row falls
/// inside the spectrogram — the rows the kernel does work for.
pub fn in_range_rows(bins: usize, harmonics: usize, anchor: usize) -> usize {
    (0..bins)
        .map(|f| (1..=harmonics).filter(|&k| harmonic_row(k, f, anchor, bins).is_some()).count())
        .sum()
}

/// The harmonic convolutions of a `DeepPriorNet` built from `cfg` for a
/// `bins × frames` image (frames already padded to the pooling
/// schedule), in forward order: two per encoder level, one bottleneck,
/// one per decoder level. Empty for non-harmonic nets.
pub fn net_convs(cfg: &NetConfig, bins: usize, frames: usize) -> Vec<ConvGeometry> {
    let ConvKind::Harmonic { harmonics, kt, anchor, dil_t } = cfg.conv else {
        return Vec::new();
    };
    let conv = |cin: usize, cout: usize, frames: usize| ConvGeometry {
        cin,
        cout,
        bins,
        frames,
        harmonics,
        kt,
        anchor,
        dil_t,
    };
    let mut out = Vec::new();
    let mut in_ch = cfg.in_channels;
    let mut t = frames;
    for level in 0..cfg.depth {
        let ch = cfg.base_channels << level;
        out.push(conv(in_ch, ch, t));
        out.push(conv(ch, ch, t));
        in_ch = ch;
        t /= 2;
    }
    let bottleneck = cfg.base_channels << cfg.depth;
    out.push(conv(in_ch, bottleneck, t));
    in_ch = bottleneck;
    for level in (0..cfg.depth).rev() {
        t *= 2;
        let ch = cfg.base_channels << level;
        out.push(conv(in_ch + ch, ch, t));
        in_ch = ch;
    }
    out
}

/// Harmonic-convolution MACs of one training iteration (one forward and
/// one backward through every layer).
pub fn macs_per_iter(convs: &[ConvGeometry]) -> u64 {
    convs.iter().map(|c| c.forward_macs() + c.backward_macs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts forward MACs by walking every loop of the reference kernel.
    fn brute_force_forward(g: &ConvGeometry) -> u64 {
        let half = (g.kt / 2) as isize;
        let mut macs = 0u64;
        for _co in 0..g.cout {
            for _ci in 0..g.cin {
                for f in 0..g.bins {
                    for k in 1..=g.harmonics {
                        let row = ((k * f) as f64 / g.anchor as f64).round() as usize;
                        if row >= g.bins {
                            continue;
                        }
                        for j in 0..g.kt {
                            let shift = (j as isize - half) * g.dil_t as isize;
                            for ot in 0..g.frames as isize {
                                let it = ot + shift;
                                if it >= 0 && it < g.frames as isize {
                                    macs += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        macs
    }

    #[test]
    fn in_range_rows_are_about_half_at_paper_geometry() {
        // H=4, F=65, anchor 1: 65 + 33 + 22 + 17 = 137 of 260 pairs.
        assert_eq!(in_range_rows(65, 4, 1), 137);
        let share: f64 = 137.0 / 260.0;
        assert!((share - 0.527).abs() < 1e-3);
    }

    #[test]
    fn mac_count_matches_brute_force() {
        for g in [
            ConvGeometry {
                cin: 8,
                cout: 8,
                bins: 65,
                frames: 36,
                harmonics: 4,
                kt: 3,
                anchor: 1,
                dil_t: 13,
            },
            ConvGeometry {
                cin: 16,
                cout: 8,
                bins: 33,
                frames: 40,
                harmonics: 3,
                kt: 3,
                anchor: 1,
                dil_t: 9,
            },
            // A dilation wider than the time axis leaves only the centre tap.
            ConvGeometry {
                cin: 2,
                cout: 4,
                bins: 17,
                frames: 6,
                harmonics: 3,
                kt: 5,
                anchor: 2,
                dil_t: 8,
            },
        ] {
            assert_eq!(g.forward_macs(), brute_force_forward(&g), "{g:?}");
            assert_eq!(g.backward_macs(), 2 * g.forward_macs());
        }
    }

    #[test]
    fn net_layer_list_mirrors_the_unet() {
        // Paper configuration: depth 2 → 2 + 2 encoder, 1 bottleneck,
        // 2 decoder convolutions (7 per forward).
        let cfg = NetConfig::default();
        let convs = net_convs(&cfg, 65, 36);
        assert_eq!(convs.len(), 7);
        let chans: Vec<(usize, usize, usize)> =
            convs.iter().map(|c| (c.cin, c.cout, c.frames)).collect();
        assert_eq!(
            chans,
            vec![
                (2, 8, 36),
                (8, 8, 36),
                (8, 16, 18),
                (16, 16, 18),
                (16, 32, 9),
                (48, 16, 18),
                (24, 8, 36)
            ]
        );
        // Fast configuration: depth 1 → 4 convolutions.
        let fast = dhf_core::DhfConfig::fast().inpaint.net;
        assert_eq!(net_convs(&fast, 33, 40).len(), 4);
        assert!(macs_per_iter(&convs) > 0);
    }
}
