//! Workload definitions and the seeded inputs they stream.
//!
//! Every session replays a pre-generated recording in [`PACKET`]-sample
//! packets. The program under test only ever sees these generated
//! inputs; the seed is the benchmark's command-line argument.

use dhf_core::DhfConfig;
use dhf_oximetry::{Calibration, OximetryConfig};
use dhf_stream::StreamingConfig;
use dhf_synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
use dhf_synth::invivo::{CALIBRATION_K, CALIBRATION_W0, CALIBRATION_W1};
use std::time::Duration;

/// Sample rate of every stream (Hz).
pub const FS: f64 = 100.0;
/// Samples per pushed packet (2.5 s of signal).
pub const PACKET: usize = 250;
/// Streaming chunk length and overlap (samples).
pub const CHUNK: usize = 3000;
pub const OVERLAP: usize = 600;
/// Samples each chunk emits.
pub const HOP: usize = CHUNK - OVERLAP;
/// Packets that complete a session's first chunk (the set-up warm-up).
pub const WARMUP_PACKETS: usize = CHUNK / PACKET;
/// SpO2 trend window and hop (20 s windows every 10 s).
pub const TREND_WINDOW: usize = 2000;
pub const TREND_HOP: usize = 1000;
/// Samples excluded from scoring at each end of a session's output
/// (5 s, as in `dhf_bench::score_estimates`).
pub const SCORE_MARGIN: usize = 500;

/// Length of each pooled fleet recording (600 s); a multiple of
/// [`PACKET`] so no packet straddles the wrap.
const POOL_LEN: usize = 60_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dual-wavelength fetal-SpO2 sessions on the cold fast deep prior.
    OximetryFastCold,
    /// Ablation: a large fleet on the harmonic-interpolation in-painter.
    ServeInterpFleet,
}

/// Fixed sizing of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Replay speed-up over real time of every session's stream.
    pub speedup: f64,
    /// Distinct recordings the sessions replay (0: one per session).
    pub pool: usize,
    /// Serve workers (capped at the host's cores).
    pub workers: usize,
    /// Set-up repetitions per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Longest the generator waits between polls of a session that owes
    /// an output: a small share of the workload's chunk latency, so the
    /// generator's wake-ups take little CPU from the workers.
    pub poll: Duration,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OximetryFastCold, Workload::ServeInterpFleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OximetryFastCold => "oximetry_fast_cold",
            Workload::ServeInterpFleet => "serve_interp_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed load of the workload. The speed-ups put the code at this
    /// benchmark's introduction at roughly half of its measured capacity
    /// on the plan's one worker (oximetry ≈54 %, fleet ≈45 %); they never
    /// adapt to the code under test, so a faster program shows as lower
    /// latency and more sessions per core. One worker leaves the
    /// generator a core of its own on a two-core host.
    pub fn plan(self) -> Plan {
        match self {
            Workload::OximetryFastCold => Plan {
                sessions: 6,
                speedup: 1.75,
                pool: 0,
                workers: 1,
                setup_reps: 3,
                poll: Duration::from_millis(1),
            },
            Workload::ServeInterpFleet => Plan {
                sessions: 128,
                speedup: 64.0,
                pool: 8,
                workers: 1,
                // Its set-ups take a fraction of a second each.
                setup_reps: 5,
                poll: Duration::from_micros(100),
            },
        }
    }

    pub fn is_oximetry(self) -> bool {
        matches!(self, Workload::OximetryFastCold)
    }

    /// The separation pipeline each session runs.
    pub fn dhf_config(self) -> DhfConfig {
        match self {
            Workload::OximetryFastCold => {
                let mut cfg = DhfConfig::fast();
                // Explicitly cold: every chunk trains fresh priors.
                cfg.inpaint.warm = None;
                cfg
            }
            Workload::ServeInterpFleet => DhfConfig::fast().with_harmonic_interp(),
        }
    }

    pub fn streaming_config(self) -> StreamingConfig {
        StreamingConfig::new(CHUNK, OVERLAP, self.dhf_config()).expect("valid streaming config")
    }

    pub fn oximetry_config() -> OximetryConfig {
        OximetryConfig::new(
            1,
            TREND_WINDOW,
            TREND_HOP,
            Calibration { w0: CALIBRATION_W0, w1: CALIBRATION_W1, k: CALIBRATION_K },
        )
        .expect("valid oximetry config")
    }
}

/// One recording a session can replay.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Mixed channel (λ1 for oximetry).
    pub mixed: Vec<f64>,
    /// Second wavelength channel (oximetry only).
    pub lambda2: Option<Vec<f64>>,
    /// f0 tracks, one per source.
    pub tracks: Vec<Vec<f64>>,
    /// Ground-truth sources (separation only).
    pub sources: Vec<Vec<f64>>,
    /// Per-sample SaO2 truth (oximetry only).
    pub sao2: Vec<f64>,
}

/// A session's input: a recording and a start offset into it; stream
/// position `p` reads recording sample `(p + offset) % len`.
#[derive(Debug, Clone, Copy)]
pub struct SessionInput {
    pub recording: usize,
    pub offset: usize,
}

/// Every input of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub recordings: Vec<Recording>,
    pub sessions: Vec<SessionInput>,
}

/// SplitMix64 finaliser: decorrelates (seed, index) pairs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packets one session streams in a load window of `seconds`.
pub fn window_packets(plan: &Plan, seconds: f64) -> usize {
    (seconds * plan.speedup * FS / PACKET as f64).ceil() as usize
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed` and a load window of
    /// `seconds`. The same arguments always give the same inputs.
    pub fn generate(workload: Workload, plan: &Plan, seed: u64, seconds: f64) -> Inputs {
        match workload {
            Workload::OximetryFastCold => {
                // One desaturation recording per session, long enough for
                // the warm-up chunk, the whole window and one packet of slack.
                let packets = WARMUP_PACKETS + window_packets(plan, seconds) + 1;
                let duration_s = (packets * PACKET) as f64 / FS + 10.0;
                let recordings = (0..plan.sessions)
                    .map(|s| {
                        let cfg =
                            DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), duration_s)
                                .with_seed(mix(seed, s as u64));
                        let rec = generate(&cfg);
                        let [l1, l2] = rec.mixed;
                        Recording {
                            mixed: l1,
                            lambda2: Some(l2),
                            tracks: vec![rec.f0.maternal, rec.f0.fetal],
                            sources: Vec::new(),
                            sao2: rec.sao2,
                        }
                    })
                    .collect();
                let sessions =
                    (0..plan.sessions).map(|s| SessionInput { recording: s, offset: 0 }).collect();
                Inputs { recordings, sessions }
            }
            Workload::ServeInterpFleet => {
                // A small pool of duet variants bounds memory; sessions
                // sharing a variant start at distinct packet offsets.
                let recordings = (0..plan.pool)
                    .map(|v| {
                        let duet =
                            dhf_synth::duet::drifting_duet(FS, POOL_LEN, mix(seed, v as u64));
                        Recording {
                            mixed: duet.mixed,
                            lambda2: None,
                            tracks: duet.f0_tracks,
                            sources: duet.sources,
                            sao2: Vec::new(),
                        }
                    })
                    .collect();
                let sessions = (0..plan.sessions)
                    .map(|s| SessionInput {
                        recording: s % plan.pool,
                        offset: ((s / plan.pool) * 31 * PACKET) % POOL_LEN,
                    })
                    .collect();
                Inputs { recordings, sessions }
            }
        }
    }

    /// Recording index and in-recording start of a packet-aligned stream
    /// position.
    pub fn locate(&self, session: usize, pos: usize) -> (&Recording, usize) {
        let input = self.sessions[session];
        let rec = &self.recordings[input.recording];
        (rec, (pos + input.offset) % rec.mixed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let mut plan = w.plan();
            plan.sessions = plan.sessions.min(4);
            plan.pool = plan.pool.min(2);
            let a = Inputs::generate(w, &plan, 7, 1.0);
            let b = Inputs::generate(w, &plan, 7, 1.0);
            let c = Inputs::generate(w, &plan, 8, 1.0);
            assert_eq!(a.recordings[0].mixed, b.recordings[0].mixed, "{}", w.name());
            assert_ne!(a.recordings[0].mixed, c.recordings[0].mixed, "{}", w.name());
            for r in &a.recordings {
                assert_eq!(r.mixed.len() % PACKET, 0, "packets never straddle the end");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
