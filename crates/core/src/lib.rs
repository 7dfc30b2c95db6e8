//! **Deep Harmonic Finesse (DHF)** — the paper's contribution: iterative
//! separation of quasi-periodic sources from a single mixed channel using
//! masking and deep-prior in-painting in a pattern-aligned time-frequency
//! space.
//!
//! One separation round (Fig. 1 of the paper):
//!
//! 1. **Pattern alignment** ([`align`]) — unwarp the mixed signal with
//!    respect to the target source's fundamental-frequency track so the
//!    target becomes strictly periodic at 1 Hz (Eqs. 3–7).
//! 2. **STFT** of the unwarped signal; the target now occupies constant
//!    harmonic rows.
//! 3. **Masking** ([`mask`]) — conceal every significant harmonic of the
//!    *other* sources (their tracks warp into time-varying ridges).
//! 4. **Magnitude in-painting** ([`inpaint`]) — fit the SpAc LU-Net deep
//!    prior to the visible cells only; its structural bias fills the
//!    hidden cells with target-consistent values (Eq. 9).
//! 5. **Cyclic phase interpolation** ([`phase`]) — interpolate each bin's
//!    phasor through the hidden cells via cos/sin (§3.4).
//! 6. **ISTFT + pattern restoration** — back to the original time axis;
//!    subtract, recurse on the residual ([`pipeline`]).
//!
//! The assumed-known fundamental-frequency tracks can come from auxiliary
//! sensors or from the [`f0`] estimator (the paper's "preliminary
//! analysis" option).
//!
//! # Example
//!
//! ```no_run
//! use dhf_core::{separate, DhfConfig};
//!
//! # fn main() -> Result<(), dhf_core::DhfError> {
//! let fs = 100.0;
//! let n = 6000;
//! // A 1.3 Hz and a 2.1 Hz quasi-periodic source, premixed.
//! let mixed: Vec<f64> = (0..n)
//!     .map(|i| {
//!         let t = i as f64 / fs;
//!         (std::f64::consts::TAU * 1.3 * t).sin()
//!             + 0.4 * (std::f64::consts::TAU * 2.1 * t).sin()
//!     })
//!     .collect();
//! let tracks = vec![vec![1.3; n], vec![2.1; n]];
//! let result = separate(&mixed, fs, &tracks, &DhfConfig::fast())?;
//! assert_eq!(result.sources.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod f0;
pub mod inpaint;
pub mod mask;
pub mod phase;
pub mod pipeline;

pub use align::{PatternAligner, UnwarpedSignal};
pub use inpaint::{InpaintConfig, InpaintMethod, WarmEvent, WarmSlot};
pub use mask::HarmonicMask;
pub use pipeline::{
    separate, validate_tracks, DhfConfig, RoundContext, RoundReport, SeparationOrder,
    SeparationResult,
};

/// Index of the first value in an f0 track that is not a usable
/// frequency — non-finite (NaN, ±inf) or not strictly positive — or
/// `None` when every value is valid.
///
/// This is the one f0-value rule every entry point applies (the offline
/// pipeline, the aligner, the streaming separator, the serving runtime);
/// each caller wraps the index in its own error type and offset.
pub fn first_invalid_f0(track: &[f64]) -> Option<usize> {
    track.iter().position(|&f| !f.is_finite() || f <= 0.0)
}

/// Errors from the DHF pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DhfError {
    /// The mixed signal was empty or shorter than one analysis window
    /// after unwarping.
    InputTooShort {
        /// Required unwarped samples.
        needed: usize,
        /// Available unwarped samples.
        got: usize,
    },
    /// No fundamental-frequency tracks supplied.
    MissingTracks,
    /// A track's length does not match the signal.
    TrackLengthMismatch {
        /// Samples in the signal.
        signal: usize,
        /// Samples in the offending track.
        track: usize,
    },
    /// A track contains non-positive or non-finite frequencies.
    NonPositiveFrequency,
    /// Up-front track validation found a non-positive (or non-finite)
    /// frequency, with its exact location. Unlike
    /// [`DhfError::NonPositiveFrequency`] (raised from deep inside the
    /// aligner), this is reported by [`pipeline::validate_tracks`] before
    /// any separation round runs.
    NonPositiveTrackValue {
        /// Index of the offending track (source).
        track: usize,
        /// Sample index of the first offending value.
        sample: usize,
    },
    /// Underlying DSP failure.
    Dsp(String),
    /// Underlying network-construction failure.
    Net(String),
}

impl std::fmt::Display for DhfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhfError::InputTooShort { needed, got } => {
                write!(f, "input too short: need {needed} unwarped samples, got {got}")
            }
            DhfError::MissingTracks => write!(f, "no fundamental-frequency tracks given"),
            DhfError::TrackLengthMismatch { signal, track } => {
                write!(f, "track length {track} does not match signal length {signal}")
            }
            DhfError::NonPositiveFrequency => {
                write!(f, "fundamental-frequency tracks must be strictly positive")
            }
            DhfError::NonPositiveTrackValue { track, sample } => {
                write!(
                    f,
                    "f0 track {track} has a non-positive or non-finite value at sample {sample}; \
                     tracks must be strictly positive"
                )
            }
            DhfError::Dsp(msg) => write!(f, "dsp failure: {msg}"),
            DhfError::Net(msg) => write!(f, "network failure: {msg}"),
        }
    }
}

impl std::error::Error for DhfError {}

impl From<dhf_dsp::DspError> for DhfError {
    fn from(e: dhf_dsp::DspError) -> Self {
        DhfError::Dsp(e.to_string())
    }
}

impl From<dhf_nn::NnError> for DhfError {
    fn from(e: dhf_nn::NnError) -> Self {
        DhfError::Net(e.to_string())
    }
}
