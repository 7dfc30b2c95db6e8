//! Serial per-layer replay for the traced run: a sample of the
//! workload's chunks goes through each layer's public API, every call
//! timed from outside. A layer's self time is its replay time minus its
//! child layer's replay time on the same chunk (estimated by difference).

use crate::macs::{self, ConvGeometry};
use crate::stats::{self, median};
use crate::workload::{Inputs, Plan, Recording, Workload, CHUNK, FS, PACKET};
use dhf_core::{DhfConfig, InpaintMethod, RoundContext, RoundReport};
use dhf_dsp::simd;
use dhf_dsp::{Complex, Spectrogram, StftConfig, StftEngine};
use dhf_nn::{ConvKind, DeepPriorNet, NetConfig};
use dhf_oximetry::StreamingOximeter;
use dhf_stream::{StreamingConfig, StreamingSeparator};
use dhf_tensor::optim::Adam;
use dhf_tensor::{init, Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One replayed metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Shortest span one timed replay measurement covers.
const MIN_TIMED_S: f64 = 0.02;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Seconds per call of `f`, repeated until [`MIN_TIMED_S`] elapsed.
fn per_call(mut f: impl FnMut()) -> f64 {
    let ((), first) = secs(&mut f);
    let reps = ((MIN_TIMED_S / first.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let ((), total) = secs(|| (0..reps).for_each(|_| f()));
    total / reps as f64
}

/// Chunks replayed per workload: enough to cover several chunks at
/// bounded cost (an oximetry chunk runs four cold fits per layer pass).
fn replay_chunks(w: Workload) -> usize {
    match w {
        Workload::OximetryFastCold => 2,
        Workload::ServeInterpFleet => 12,
    }
}

/// Per-chunk replay timings of the layers above `nn`.
#[derive(Default)]
struct ChunkTimes {
    oximetry: Vec<f64>,
    oximetry_self: Vec<f64>,
    stream: Vec<f64>,
    stream_self: Vec<f64>,
    core_round: Vec<f64>,
    core_self: Vec<f64>,
    nn_fit: Vec<f64>,
    nn_self: Vec<f64>,
}

/// Replays session 0's stream of `workload` and returns the layer
/// metrics.
pub fn run(workload: Workload, plan: &Plan, seed: u64, seconds: f64) -> Vec<Metric> {
    let dhf = workload.dhf_config();
    let scfg = workload.streaming_config();
    let chunks = replay_chunks(workload);
    let n = CHUNK + (chunks - 1) * scfg.hop();
    // The load's inputs, stretched if a short window streams fewer samples.
    let seconds = seconds.max(n as f64 / (plan.speedup * FS));
    let inputs = Inputs::generate(workload, plan, seed, seconds);
    let rec = &inputs.recordings[inputs.sessions[0].recording];
    let tracks: Vec<&[f64]> = rec.tracks.iter().map(|t| &t[..n]).collect();

    // The channels the separators see: the mixture itself, or for
    // oximetry each wavelength after the oximeter's DC detrend.
    let channels: Vec<Vec<f64>> = match &rec.lambda2 {
        None => vec![rec.mixed[..n].to_vec()],
        Some(_) => detrended(rec, n),
    };
    let mut times = ChunkTimes::default();
    // stream layer: one separator per channel.
    let stream_chunks = replay_streams(&channels, &tracks, &scfg, n);
    // oximetry layer: whole dual-wavelength pushes of the workload's own
    // recording or, on a separation workload, of a seeded desaturation
    // recording streamed with the same configuration; its child time is
    // the two wavelengths' separators on the same samples.
    let (ox_chunks, ox_children) = if rec.lambda2.is_some() {
        (replay_oximeter(rec, &tracks, &scfg, n), stream_chunks.clone())
    } else {
        let ox = Workload::OximetryFastCold;
        let ox_plan = Plan { sessions: 1, ..ox.plan() };
        let ox_inputs = Inputs::generate(ox, &ox_plan, seed, n as f64 / (ox_plan.speedup * FS));
        let ox_rec = &ox_inputs.recordings[0];
        let ox_tracks: Vec<&[f64]> = ox_rec.tracks.iter().map(|t| &t[..n]).collect();
        let ox_channels = detrended(ox_rec, n);
        (
            replay_oximeter(ox_rec, &ox_tracks, &scfg, n),
            replay_streams(&ox_channels, &ox_tracks, &scfg, n),
        )
    };
    // core layer: a persistent context per channel, reports collected.
    let mut rounds: Vec<Vec<RoundReport>> = Vec::new();
    let core_chunks: Vec<Vec<f64>> = channels
        .iter()
        .enumerate()
        .map(|(ci, ch)| {
            let mut ctx = RoundContext::new(&dhf);
            ctx.set_collect_reports(true);
            (0..chunks)
                .map(|c| {
                    let lo = c * scfg.hop();
                    let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..lo + CHUNK]).collect();
                    let (res, s) =
                        secs(|| ctx.separate_refs(&ch[lo..lo + CHUNK], FS, &t, c as u64));
                    let res = res.expect("core replay");
                    if ci == 0 {
                        rounds.push(res.rounds);
                    }
                    s
                })
                .collect()
        })
        .collect();

    // nn layer: every round of channel 0, cold then warm on the same
    // image, with the deep prior (on the ablation fleet: the prior its
    // interpolating in-painter stands in for).
    let mut prior = dhf.clone();
    prior.inpaint.method = InpaintMethod::DeepPrior;
    let mut cold_iter_s = Vec::new();
    let mut warm_iter_s = Vec::new();
    let mut losses = Vec::new();
    let mut iterations = Vec::new();
    let mut tensor_per_iter = None;
    for (c, chunk_rounds) in rounds.iter().enumerate() {
        let mut fit_sum = 0.0;
        let mut self_sum = 0.0;
        for r in chunk_rounds {
            let Some(fit) = replay_fit(&prior, r) else { continue };
            fit_sum += fit.cold_s;
            cold_iter_s.push(fit.cold_iter_s);
            losses.push(f64::from(fit.final_loss));
            iterations.push(fit.cold_iters as f64);
            warm_iter_s.push(fit.warm_s / fit.warm_iters.max(1) as f64);
            let tensor = *tensor_per_iter.get_or_insert_with(|| replay_tensor(&fit));
            self_sum += stats::self_time(
                fit.cold_s,
                &[(tensor.conv_s + tensor.adam_s) * fit.cold_iters as f64],
            );
        }
        times.nn_fit.push(fit_sum);
        times.nn_self.push(self_sum);
        times.core_round.push(core_chunks[0][c] / chunk_rounds.len().max(1) as f64);
        // The replayed fits are core's child only where the workload
        // in-paints with the deep prior.
        let child = if dhf.inpaint.method == InpaintMethod::DeepPrior { fit_sum } else { 0.0 };
        times.core_self.push(stats::self_time(core_chunks[0][c], &[child]));
    }
    for c in 0..chunks {
        let stream_s: Vec<f64> = stream_chunks.iter().map(|v| v[c]).collect();
        let core_s: Vec<f64> = core_chunks.iter().map(|v| v[c]).collect();
        let stream_total: f64 = stream_s.iter().sum();
        times.stream.push(stream_s[0]);
        times.stream_self.push(stats::self_time(stream_total, &core_s) / stream_s.len() as f64);
        let ox_children: Vec<f64> = ox_children.iter().map(|v| v[c]).collect();
        times.oximetry.push(ox_chunks[c]);
        times.oximetry_self.push(stats::self_time(ox_chunks[c], &ox_children));
    }

    let all_rounds: Vec<&RoundReport> = rounds.iter().flatten().collect();
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    let mut m: Vec<Metric> = vec![
        ("oximetry.replay_chunk_s.p50".into(), p50(&times.oximetry), "s"),
        ("oximetry.self_s_est.p50".into(), p50(&times.oximetry_self), "s"),
        ("stream.replay_chunk_s.p50".into(), p50(&times.stream), "s"),
        ("stream.self_s_est.p50".into(), p50(&times.stream_self), "s"),
        ("core.round_s.p50".into(), p50(&times.core_round), "s"),
        ("core.self_s_est.p50".into(), p50(&times.core_self), "s"),
        (
            "core.hidden_fraction.mean".into(),
            mean(&all_rounds.iter().map(|r| r.hidden_fraction).collect::<Vec<_>>()),
            "ratio",
        ),
        (
            "core.dilation_high_share".into(),
            all_rounds.iter().filter(|r| r.dilation == dhf.dilation_high).count() as f64
                / all_rounds.len().max(1) as f64,
            "ratio",
        ),
        ("nn.fit_iter_s.cold".into(), p50(&cold_iter_s), "s"),
        ("nn.fit_iter_s.warm".into(), p50(&warm_iter_s), "s"),
        ("nn.fit_iterations.mean".into(), mean(&iterations), "count"),
        ("nn.final_loss.mean".into(), mean(&losses), "loss"),
        ("nn.replay_fit_s.p50".into(), p50(&times.nn_fit), "s"),
        ("nn.self_s_est.p50".into(), p50(&times.nn_self), "s"),
    ];
    let t = tensor_per_iter.unwrap_or_default();
    let fit_iter = p50(&cold_iter_s);
    m.extend([
        ("tensor.harmonic_conv.fwd_gmac_s".into(), t.fwd_gmac_s, "GMAC/s"),
        ("tensor.harmonic_conv.bwd_gmac_s".into(), t.bwd_gmac_s, "GMAC/s"),
        ("tensor.harmonic_conv.macs_per_iter".into(), t.macs_per_iter as f64, "MAC"),
        (
            "tensor.harmonic_conv.share_of_fit".into(),
            if fit_iter > 0.0 { t.conv_s / fit_iter } else { 0.0 },
            "ratio",
        ),
        ("tensor.adam_step_s".into(), t.adam_s, "s"),
    ]);
    if let Some(r) = all_rounds.first() {
        m.extend(replay_dsp(&dhf, r, &channels[0]));
    }
    let first: Vec<&[f64]> = tracks.iter().map(|t| &t[..CHUNK]).collect();
    m.extend(replay_paper_geometry(&channels[0][..CHUNK], &first));
    m
}

/// Training iterations of the paper-geometry probe fit (per-iteration
/// cost is what it reports; the full 300 would add seconds per run).
const PAPER_PROBE_ITERATIONS: usize = 10;
/// Alternating fit / kernel measurements behind each paper-geometry row.
const PAPER_PROBE_REPEATS: usize = 3;

/// The paper's full configuration (`DhfConfig::default()`) on the
/// workload's first chunk: its first round's geometry and image, a short
/// cold fit and the tensor replay at that geometry — the numbers behind
/// "harmonic convolution is most of a full-config fit".
fn replay_paper_geometry(chunk: &[f64], tracks: &[&[f64]]) -> Vec<Metric> {
    // The interpolating in-painter yields the same round geometry and
    // residual image without paying for a fit.
    let mut ctx = RoundContext::new(&DhfConfig::default().with_harmonic_interp());
    ctx.set_collect_reports(true);
    let rounds = ctx.separate_refs(chunk, FS, tracks, 0).expect("paper-geometry round").rounds;
    let mut full = DhfConfig::default();
    full.inpaint.iterations = PAPER_PROBE_ITERATIONS;
    let Some(round) = rounds.first() else { return Vec::new() };
    // Fit and kernel timings alternate, and each row reports the median
    // of the repeats, so a host-speed swing between the two does not
    // skew their ratio.
    let mut rows: [Vec<f64>; 4] = Default::default();
    let mut macs = 0u64;
    for _ in 0..PAPER_PROBE_REPEATS {
        let Some(fit) = replay_fit(&full, round) else { return Vec::new() };
        let t = replay_tensor(&fit);
        macs = t.macs_per_iter;
        for (row, v) in rows.iter_mut().zip([
            fit.cold_iter_s,
            t.fwd_gmac_s,
            t.bwd_gmac_s,
            t.conv_s / fit.cold_iter_s,
        ]) {
            row.push(v);
        }
    }
    let [iter_s, fwd, bwd, share] = rows.map(|r| median(&r).unwrap_or(0.0));
    vec![
        ("nn.paper_geometry.fit_iter_s".into(), iter_s, "s"),
        ("tensor.paper_geometry.harmonic_conv.fwd_gmac_s".into(), fwd, "GMAC/s"),
        ("tensor.paper_geometry.harmonic_conv.bwd_gmac_s".into(), bwd, "GMAC/s"),
        ("tensor.paper_geometry.harmonic_conv.macs_per_iter".into(), macs as f64, "MAC"),
        ("tensor.paper_geometry.harmonic_conv.share_of_fit".into(), share, "ratio"),
    ]
}

/// Both wavelengths of an oximetry recording after the oximeter's DC
/// detrend: what its two separators see.
fn detrended(rec: &Recording, n: usize) -> Vec<Vec<f64>> {
    let l2 = rec.lambda2.as_ref().expect("dual-wavelength recording");
    let alpha = 1.0 - (-1.0 / (FS * Workload::oximetry_config().dc_time_constant_s)).exp();
    [&rec.mixed[..n], &l2[..n]]
        .iter()
        .map(|c| dhf_oximetry::ema_detrend(c, alpha, &mut None))
        .collect()
}

/// Chunk-completing push times of one `StreamingSeparator` per channel.
fn replay_streams(
    channels: &[Vec<f64>],
    tracks: &[&[f64]],
    scfg: &StreamingConfig,
    n: usize,
) -> Vec<Vec<f64>> {
    channels
        .iter()
        .map(|ch| {
            let mut sep = StreamingSeparator::new(FS, 2, scfg.clone()).expect("separator");
            timed_chunk_pushes(n, |lo, hi| {
                let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
                sep.push(&ch[lo..hi], &t).expect("separator push");
            })
        })
        .collect()
}

/// Chunk-completing push times of a `StreamingOximeter` over `rec`.
fn replay_oximeter(
    rec: &Recording,
    tracks: &[&[f64]],
    scfg: &StreamingConfig,
    n: usize,
) -> Vec<f64> {
    let l2 = rec.lambda2.as_ref().expect("dual-wavelength recording");
    let mut ox =
        StreamingOximeter::new(FS, 2, scfg.clone(), Workload::oximetry_config()).expect("oximeter");
    timed_chunk_pushes(n, |lo, hi| {
        let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
        ox.push([&rec.mixed[lo..hi], &l2[lo..hi]], &t).expect("oximeter push");
    })
}

/// Times every push that completes a chunk while streaming `n` samples
/// in packets (the pushes in between only buffer).
fn timed_chunk_pushes(n: usize, mut push: impl FnMut(usize, usize)) -> Vec<f64> {
    let mut out = Vec::new();
    let mut completed = 0;
    for lo in (0..n).step_by(PACKET) {
        let hi = (lo + PACKET).min(n);
        let ((), s) = secs(|| push(lo, hi));
        let now = crate::load::chunks_after_samples(hi);
        if now > completed {
            completed = now;
            out.push(s);
        }
    }
    out
}

/// One replayed deep-prior fit.
struct FitReplay {
    net: NetConfig,
    bins: usize,
    frames: usize,
    /// `DeepPriorNet::new` plus `fit`.
    cold_s: f64,
    /// `fit` alone, per iteration.
    cold_iter_s: f64,
    cold_iters: usize,
    final_loss: f32,
    warm_s: f64,
    warm_iters: usize,
}

/// `DeepPriorNet::new` + `fit` on a recorded round's residual magnitude
/// and hidden mask (prepared as the in-painter prepares them), then
/// `fit_warm` resumed on the same image. `None` for rounds without an
/// image or without a deep prior.
fn replay_fit(dhf: &DhfConfig, r: &RoundReport) -> Option<FitReplay> {
    let (bins, frames) = (r.bins, r.frames);
    if r.residual_magnitude.len() != bins * frames || r.hidden.len() != bins * frames {
        return None;
    }
    let peak = r.residual_magnitude.iter().cloned().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return None;
    }
    let mut net = dhf.inpaint.net.clone();
    if let ConvKind::Harmonic { harmonics, kt, anchor, .. } = net.conv {
        net.conv = ConvKind::Harmonic { harmonics, kt, anchor, dil_t: r.dilation };
    }
    let td = net.time_divisor();
    let padded = frames.div_ceil(td) * td;
    let mut target = Tensor::zeros(&[1, bins, padded]);
    let mut mask = Tensor::zeros(&[1, bins, padded]);
    let (mut vis_sum, mut vis_n) = (0.0f64, 0.0f64);
    for b in 0..bins {
        for f in 0..frames {
            let v = r.residual_magnitude[b * frames + f] / peak;
            target.data_mut()[b * padded + f] = v as f32;
            if !r.hidden[b * frames + f] {
                mask.data_mut()[b * padded + f] = 1.0;
                vis_sum += v;
                vis_n += 1.0;
            }
        }
    }
    let mean_visible = if vis_n > 0.0 { (vis_sum / vis_n).clamp(1e-4, 0.5) } else { 0.05 };
    net.output_bias = (mean_visible / (1.0 - mean_visible)).ln() as f32;
    let inpaint = &dhf.inpaint;
    let mut rng = StdRng::seed_from_u64(inpaint.seed);
    let (prior, new_s) = secs(|| DeepPriorNet::new(&net, bins, padded, &mut rng));
    let mut prior: DeepPriorNet = prior.expect("replay net");
    let (cold, fit_s) = secs(|| prior.fit(&target, &mask, inpaint.iterations, inpaint.lr));
    let warm_params = inpaint.warm.unwrap_or_default();
    let (warm, warm_s) = secs(|| prior.fit_warm(&target, &mask, &warm_params));
    Some(FitReplay {
        net,
        bins,
        frames: padded,
        cold_s: new_s + fit_s,
        cold_iter_s: fit_s / inpaint.iterations.max(1) as f64,
        cold_iters: inpaint.iterations,
        final_loss: cold.final_loss,
        warm_s,
        warm_iters: warm.iterations,
    })
}

/// Harmonic-convolution and Adam costs of one training iteration at a
/// replayed fit's geometry.
#[derive(Debug, Clone, Copy, Default)]
struct TensorReplay {
    conv_s: f64,
    adam_s: f64,
    fwd_gmac_s: f64,
    bwd_gmac_s: f64,
    macs_per_iter: u64,
}

fn replay_tensor(fit: &FitReplay) -> TensorReplay {
    let convs = macs::net_convs(&fit.net, fit.bins, fit.frames);
    let mut rng = StdRng::seed_from_u64(0x7E45);
    let (mut fwd_s, mut bwd_s, mut fwd_macs) = (0.0, 0.0, 0u64);
    for c in &convs {
        let (f, b) = time_conv(c, &mut rng);
        fwd_s += f;
        bwd_s += b;
        fwd_macs += c.forward_macs();
    }
    let macs_per_iter = macs::macs_per_iter(&convs);
    let bwd_macs = macs_per_iter - fwd_macs;
    TensorReplay {
        conv_s: fwd_s + bwd_s,
        adam_s: time_adam(&convs, &mut rng),
        fwd_gmac_s: fwd_macs as f64 / fwd_s.max(1e-12) / 1e9,
        bwd_gmac_s: bwd_macs as f64 / bwd_s.max(1e-12) / 1e9,
        macs_per_iter,
    }
}

/// Forward and backward seconds of one `Graph::harmonic_conv` call.
fn time_conv(c: &ConvGeometry, rng: &mut StdRng) -> (f64, f64) {
    let mut g: Graph = Graph::new();
    let x = g.input(init::noise_input(&[c.cin, c.bins, c.frames], 1.0, rng));
    let w = g.param(init::kaiming_uniform(&[c.cout, c.cin, c.harmonics, c.kt], rng));
    let y = g.harmonic_conv(x, w, c.anchor, c.dil_t);
    let loss = g.sum(y);
    let fwd = per_call(|| g.forward());
    let bwd = per_call(|| g.backward(black_box(loss)));
    (fwd, bwd)
}

/// Seconds of one `Adam::step` over parameters shaped like the net's.
fn time_adam(convs: &[ConvGeometry], rng: &mut StdRng) -> f64 {
    let mut g: Graph = Graph::new();
    for c in convs {
        g.param(init::kaiming_uniform(&[c.cout, c.cin, c.harmonics, c.kt], rng));
        for _ in 0..3 {
            g.param(Tensor::zeros(&[c.cout]));
        }
    }
    let mut adam: Adam<f32> = Adam::new(0.01);
    per_call(|| adam.step(&mut g))
}

/// `StftEngine` at the round's analysis geometry, plus the five
/// dispatched kernels at the sizes a round calls them with.
fn replay_dsp(dhf: &DhfConfig, r: &RoundReport, signal: &[f64]) -> Vec<Metric> {
    let window = (r.bins - 1) * 2;
    let hop = (dhf.hop * window / dhf.window).max(1);
    let len = ((r.frames - 1) * hop + window).min(signal.len());
    let cfg = StftConfig::new(window, hop, dhf.fs_prime).expect("stft config");
    let mut engine = StftEngine::new();
    let mut spec = Spectrogram::workspace();
    let x = &signal[..len];
    let stft_s = per_call(|| engine.stft_into(black_box(x), &cfg, &mut spec).expect("stft"));
    let mut out = Vec::new();
    let istft_s = per_call(|| engine.istft_into(black_box(&spec), &mut out));

    let mut m: Vec<Metric> = vec![
        ("dsp.replay_stft_s".into(), stft_s, "s"),
        ("dsp.replay_istft_s".into(), istft_s, "s"),
    ];
    let cells = r.bins * r.frames;
    let a: Vec<f64> =
        (0..cells.max(CHUNK)).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5).collect();
    let b: Vec<f64> =
        (0..cells.max(CHUNK)).map(|i| ((i * 53 + 29) % 89) as f64 / 89.0 - 0.5).collect();
    let half = window / 2;
    let cplx: Vec<Complex> =
        a[..window].iter().zip(&b).map(|(&re, &im)| Complex::new(re, im)).collect();
    let tw: Vec<Complex> = (0..half)
        .map(|k| Complex::cis(-std::f64::consts::TAU * k as f64 / window as f64))
        .collect();
    let twc: Vec<Complex> =
        (0..=half).map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / half as f64)).collect();
    let mut acc = vec![0.0f64; cells.max(CHUNK)];
    let (mut re, mut im) = (vec![0.0f64; half + 1], vec![0.0f64; half + 1]);
    let mut buf = cplx.clone();
    let mut ratio = |name: &str, f: &mut dyn FnMut()| {
        m.push((format!("dsp.kernel.{name}.scalar_over_native"), scalar_over_native(f), "ratio"));
    };
    ratio("mul_add_in_place", &mut || {
        simd::mul_add_in_place(black_box(&mut acc[..window]), &a[..window], &b[..window])
    });
    let mut mag = vec![0.0f64; cells];
    ratio("magnitude_into", &mut || {
        simd::magnitude_into(black_box(&mut mag), &a[..cells], &b[..cells])
    });
    ratio("sum_sq", &mut || {
        black_box(simd::sum_sq(black_box(&a[..CHUNK])));
    });
    ratio("radix2_stage", &mut || {
        simd::radix2_stage(black_box(&mut buf[..window]), &tw, half, false)
    });
    ratio("real_split_combine_soa", &mut || {
        simd::real_split_combine_soa(black_box(&cplx[..half]), &twc, &mut re, &mut im)
    });
    m
}

/// Forced-scalar over native dispatch time of one kernel call: the
/// median ratio of five alternating trials.
fn scalar_over_native(f: &mut dyn FnMut()) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..5 {
        simd::force_scalar(true);
        let scalar = per_call(&mut *f);
        simd::force_scalar(false);
        let native = per_call(&mut *f);
        ratios.push(scalar / native.max(1e-12));
    }
    median(&ratios).unwrap_or(0.0)
}
