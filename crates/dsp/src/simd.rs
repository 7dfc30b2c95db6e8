//! Runtime-dispatched SIMD kernels for the spectral hot path.
//!
//! Every inner loop the separation pipeline leans on — radix-2
//! butterflies, the packed-real split-twiddle combine, window multiplies,
//! overlap-add accumulation, per-bin gain application, magnitude
//! extraction, and the energy reductions — funnels through the kernels in
//! this module. There are two dispatch levels:
//!
//! * the **scalar reference** in [`scalar`], the single source of truth
//!   for semantics, which runs everywhere (LLVM autovectorizes it at the
//!   target's baseline, e.g. SSE2 on x86_64);
//! * hand-written **AVX2** (`f64x4`, runtime-detected on x86_64) arms for
//!   the seven kernels whose arms pay end to end: [`sum_sq`], [`sum_sq2`],
//!   [`radix2_stage`], [`cmul_in_place`], [`cmul_into`],
//!   [`real_split_combine_soa`] and [`real_split_combine_aos`].
//!
//! The elementwise kernels ([`mul_into`], [`mul_in_place`],
//! [`mul_add_in_place`], [`add_in_place`], [`sub_in_place`],
//! [`scale_in_place`], [`magnitude_into`]) always run the scalar
//! reference: a same-host A/B showed their AVX2 arms carried none of the
//! end-to-end gain. They keep their shape `assert`s and stay here so
//! callers have one kernel vocabulary.
//!
//! # Determinism contract
//!
//! Every AVX2 arm is **bit-identical** to its scalar reference on all
//! inputs. Reduction kernels ([`sum_sq`], [`sum_sq2`]) use a fixed
//! *virtual lane width of four*: four independent accumulators striped
//! over the input, combined as `(acc0 + acc1) + (acc2 + acc3)` plus a
//! sequential tail — the scalar reference performs the identical
//! striping, so both levels produce the same bits. Complex multiplies
//! keep the scalar operand order for the real part and rely only on the
//! commutativity of IEEE addition for the imaginary part, which is
//! bit-exact.
//!
//! This contract is what lets the serving runtime guarantee bit-identical
//! serve-vs-serial results while still picking the fastest kernels per
//! machine, and it is locked by proptests (`simd_equivalence`) across all
//! remainder lanes (`len % 4 ∈ {0, 1, 2, 3}`).
//!
//! # Dispatch
//!
//! [`active_level`] is [`Level::Scalar`] when [`force_scalar`]`(true)` is
//! in effect (benches' scalar-vs-SIMD A/B runs, tests) or the
//! `DHF_FORCE_SCALAR` environment variable (`1`/`true`, read once per
//! process — the CI knob) is set, and otherwise [`Level::Avx2`] exactly
//! when runtime detection finds AVX2.
//!
//! # Adding an AVX2 arm
//!
//! An arm is `unsafe` code, so it must earn its place end to end, not
//! just in a micro-benchmark:
//!
//! 1. Write the scalar reference in [`scalar`] — that defines the
//!    semantics, including the exact reduction/striping order — and a
//!    public wrapper here whose slice-length `assert`s are everything the
//!    arm's `unsafe` blocks rely on, with a `#[should_panic]` test per
//!    assert.
//! 2. Add the arm only with a same-host A/B showing the streaming path
//!    (forced-scalar over native, repeated trials) gets faster with it;
//!    mirror the scalar operation order per lane and document the
//!    `# Safety` contract.
//! 3. Extend the bit-identity tests (inline and `simd_equivalence`) with
//!    the kernel.

// The intrinsics below are the one sanctioned exception to the
// workspace-wide `unsafe_code = "deny"`: every unsafe block is a raw
// slice-to-lane reinterpretation or a feature-gated intrinsic call whose
// precondition is enforced by the dispatcher.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::complex::Complex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// A SIMD dispatch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Scalar reference kernels (the semantic source of truth).
    Scalar,
    /// x86_64 AVX2: 256-bit `f64x4` lanes (runtime-detected).
    Avx2,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Scalar => write!(f, "scalar"),
            Level::Avx2 => write!(f, "avx2"),
        }
    }
}

/// Process-wide pin to the scalar reference, set by [`force_scalar`].
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// What the hardware (and the `DHF_FORCE_SCALAR` env knob) supports,
/// resolved once per process.
fn detected_level() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let forced = std::env::var("DHF_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if forced {
            return Level::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        Level::Scalar
    })
}

/// The dispatch level kernels will actually use right now.
pub fn active_level() -> Level {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        Level::Scalar
    } else {
        detected_level()
    }
}

/// `force_scalar(true)` pins every kernel to the scalar reference;
/// `force_scalar(false)` restores auto dispatch (which still honours
/// `DHF_FORCE_SCALAR`).
///
/// Thanks to the bit-identity contract, flipping this concurrently with
/// running kernels changes which instructions execute but never the
/// results.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Views a complex buffer as its interleaved `[re, im, …]` lane data.
///
/// Sound because [`Complex`] is `#[repr(C)] { re: f64, im: f64 }`: the
/// slice covers exactly `2 · len` contiguous `f64`s with no padding, and
/// `f64` admits every bit pattern.
#[inline]
pub fn complex_lanes(buf: &[Complex]) -> &[f64] {
    // SAFETY: see the doc comment — repr(C) guarantees layout, the length
    // is exact, and the lifetime is inherited from the borrow.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<f64>(), buf.len() * 2) }
}

/// Mutable form of [`complex_lanes`].
#[inline]
pub fn complex_lanes_mut(buf: &mut [Complex]) -> &mut [f64] {
    // SAFETY: as `complex_lanes`, plus exclusivity carried over from the
    // unique borrow.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<f64>(), buf.len() * 2) }
}

macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {
        match active_level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_level()` returns `Avx2` only when runtime
            // detection confirmed the feature; slice bounds were checked
            // by the caller's asserts.
            Level::Avx2 => unsafe { avx2::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// `out[i] = a[i] · b[i]`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len(), "mul_into length mismatch");
    assert_eq!(out.len(), b.len(), "mul_into length mismatch");
    scalar::mul_into(out, a, b)
}

/// `a[i] *= b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "mul_in_place length mismatch");
    scalar::mul_in_place(a, b)
}

/// `acc[i] += a[i] · b[i]` (separate multiply and add — no FMA).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(acc.len(), a.len(), "mul_add_in_place length mismatch");
    assert_eq!(acc.len(), b.len(), "mul_add_in_place length mismatch");
    scalar::mul_add_in_place(acc, a, b)
}

/// `acc[i] += a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "add_in_place length mismatch");
    scalar::add_in_place(acc, a)
}

/// `acc[i] -= a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "sub_in_place length mismatch");
    scalar::sub_in_place(acc, a)
}

/// `a[i] *= s`.
pub fn scale_in_place(a: &mut [f64], s: f64) {
    scalar::scale_in_place(a, s)
}

/// `out[i] = √(re[i]² + im[i]²)`.
///
/// Note this is the plain square-root form, not `hypot`: it gives up
/// `hypot`'s protection against overflow at magnitudes around `1e154` —
/// far beyond any spectrogram this pipeline produces.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]) {
    assert_eq!(out.len(), re.len(), "magnitude_into length mismatch");
    assert_eq!(out.len(), im.len(), "magnitude_into length mismatch");
    scalar::magnitude_into(out, re, im)
}

/// `Σ a[i]²` with the deterministic virtual-4-lane reduction order.
pub fn sum_sq(a: &[f64]) -> f64 {
    dispatch!(sum_sq(a))
}

/// `Σ (re[i]² + im[i]²)` with the deterministic virtual-4-lane reduction
/// order.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sum_sq2(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "sum_sq2 length mismatch");
    dispatch!(sum_sq2(re, im))
}

/// One radix-2 butterfly stage over every block of `buf`: for each block
/// of `2·half` elements and each `k < half`,
/// `v = buf[i+k+half] · w_k`, `buf[i+k] = u + v`, `buf[i+k+half] = u - v`,
/// where `w_k = tw[k]` (conjugated when `inverse`).
///
/// # Panics
///
/// Panics if `tw.len() != half` or `buf.len()` is not a multiple of
/// `2·half`.
pub fn radix2_stage(buf: &mut [Complex], tw: &[Complex], half: usize, inverse: bool) {
    assert_eq!(tw.len(), half, "twiddle slice must cover one butterfly span");
    assert_eq!(buf.len() % (2 * half), 0, "buffer must hold whole butterfly blocks");
    dispatch!(radix2_stage(buf, tw, half, inverse))
}

/// Pointwise complex multiply `a[i] *= b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(a.len(), b.len(), "cmul_in_place length mismatch");
    dispatch!(cmul_in_place(a, b, conj_b))
}

/// Pointwise complex multiply `out[i] = a[i] · b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(out.len(), a.len(), "cmul_into length mismatch");
    assert_eq!(out.len(), b.len(), "cmul_into length mismatch");
    dispatch!(cmul_into(out, a, b, conj_b))
}

/// Packed-real split-twiddle combine into SoA planes: recovers the half
/// spectrum `X[k]`, `k = 0..=m`, of a real signal from the spectrum `z`
/// of its packed `m`-point complex transform, writing real parts to `re`
/// and imaginary parts to `im`.
///
/// `X[k] = Ze + tw[k]·Zo` with `Ze = (z[k] + z̄[m-k])/2` and
/// `Zo = -i·(z[k] - z̄[m-k])/2` (indices mod `m`).
///
/// # Panics
///
/// Panics if `tw.len() != z.len() + 1` or the output planes are not
/// `z.len() + 1` long.
pub fn real_split_combine_soa(z: &[Complex], tw: &[Complex], re: &mut [f64], im: &mut [f64]) {
    let m = z.len();
    assert_eq!(tw.len(), m + 1, "split twiddle table length mismatch");
    assert_eq!(re.len(), m + 1, "re plane length mismatch");
    assert_eq!(im.len(), m + 1, "im plane length mismatch");
    dispatch!(real_split_combine_soa(z, tw, re, im))
}

/// As [`real_split_combine_soa`], but writing an array-of-structs half
/// spectrum.
///
/// # Panics
///
/// Panics if `tw.len() != z.len() + 1` or `out.len() != z.len() + 1`.
pub fn real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]) {
    let m = z.len();
    assert_eq!(tw.len(), m + 1, "split twiddle table length mismatch");
    assert_eq!(out.len(), m + 1, "half spectrum length mismatch");
    dispatch!(real_split_combine_aos(z, tw, out))
}

/// Scalar reference kernels — the single source of truth for semantics.
///
/// Every AVX2 arm must be bit-identical to the function of the same name
/// here; the reduction kernels deliberately stripe over a virtual lane
/// width of four so that vector implementations can match them exactly
/// (see the module docs).
pub mod scalar {
    use super::Complex;

    /// `out[i] = a[i] · b[i]`.
    pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    /// `a[i] *= b[i]`.
    pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x *= y;
        }
    }

    /// `acc[i] += a[i] · b[i]`.
    pub fn mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]) {
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y;
        }
    }

    /// `acc[i] += a[i]`.
    pub fn add_in_place(acc: &mut [f64], a: &[f64]) {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o += x;
        }
    }

    /// `acc[i] -= a[i]`.
    pub fn sub_in_place(acc: &mut [f64], a: &[f64]) {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o -= x;
        }
    }

    /// `a[i] *= s`.
    pub fn scale_in_place(a: &mut [f64], s: f64) {
        for x in a.iter_mut() {
            *x *= s;
        }
    }

    /// `out[i] = √(re[i]² + im[i]²)`.
    pub fn magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]) {
        for ((o, &r), &i) in out.iter_mut().zip(re).zip(im) {
            *o = (r * r + i * i).sqrt();
        }
    }

    /// `Σ a[i]²` striped over four accumulators: `acc[j] += a[4c+j]²`,
    /// combined as `(acc0 + acc1) + (acc2 + acc3)` plus a sequential
    /// tail. This exact order is the determinism contract for every
    /// vector form.
    pub fn sum_sq(a: &[f64]) -> f64 {
        let main = a.len() & !3;
        let mut acc = [0.0f64; 4];
        for chunk in a[..main].chunks_exact(4) {
            for (s, &v) in acc.iter_mut().zip(chunk) {
                *s += v * v;
            }
        }
        let mut tail = 0.0;
        for &v in &a[main..] {
            tail += v * v;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }

    /// `Σ (re[i]² + im[i]²)` with the same virtual-4-lane striping as
    /// [`sum_sq`]; each lane adds the already-rounded `r² + i²`.
    pub fn sum_sq2(re: &[f64], im: &[f64]) -> f64 {
        let main = re.len() & !3;
        let mut acc = [0.0f64; 4];
        for (rc, ic) in re[..main].chunks_exact(4).zip(im[..main].chunks_exact(4)) {
            for ((s, &r), &i) in acc.iter_mut().zip(rc).zip(ic) {
                *s += r * r + i * i;
            }
        }
        let mut tail = 0.0;
        for (&r, &i) in re[main..].iter().zip(&im[main..]) {
            tail += r * r + i * i;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }

    /// One radix-2 butterfly stage (see the dispatching wrapper).
    pub fn radix2_stage(buf: &mut [Complex], tw: &[Complex], half: usize, inverse: bool) {
        let len = 2 * half;
        let n = buf.len();
        let mut i = 0;
        while i < n {
            for (k, &t) in tw.iter().enumerate() {
                let w = if inverse { t.conj() } else { t };
                let u = buf[i + k];
                let v = buf[i + k + half] * w;
                buf[i + k] = u + v;
                buf[i + k + half] = u - v;
            }
            i += len;
        }
    }

    /// Pointwise `a[i] *= b[i]` (conjugating `b` first when `conj_b`).
    pub fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x *= if conj_b { y.conj() } else { y };
        }
    }

    /// Pointwise `out[i] = a[i] · b[i]` (conjugating `b` first when
    /// `conj_b`).
    pub fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * if conj_b { y.conj() } else { y };
        }
    }

    /// `X[k]` of the packed real transform for one bin.
    #[inline]
    pub(super) fn split_bin(z: &[Complex], tw: &[Complex], m: usize, k: usize) -> Complex {
        let a = z[k % m];
        let b = z[(m - k) % m].conj();
        let ze = (a + b).scale(0.5);
        let d = a - b;
        // Zo = d·(-i)/2.
        let zo = Complex::new(d.im, -d.re).scale(0.5);
        ze + tw[k] * zo
    }

    /// Split-twiddle combine into SoA planes (see the dispatching
    /// wrapper).
    pub fn real_split_combine_soa(z: &[Complex], tw: &[Complex], re: &mut [f64], im: &mut [f64]) {
        let m = z.len();
        for (k, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let x = split_bin(z, tw, m, k);
            *r = x.re;
            *i = x.im;
        }
    }

    /// Split-twiddle combine into an AoS half spectrum.
    pub fn real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]) {
        let m = z.len();
        for (k, o) in out.iter_mut().enumerate() {
            *o = split_bin(z, tw, m, k);
        }
    }
}

/// AVX2 arms: one `f64x4` accumulator for the reductions, two complexes
/// per vector for the complex kernels, scalar code for remainders.
///
/// # Safety
///
/// Every `unsafe fn` here requires AVX2, which the dispatcher proves by
/// runtime detection before calling it, and the slice shapes its public
/// wrapper in the parent module asserts.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Complex};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// Deterministic `Σ a[i]²`: one `f64x4` accumulator whose lanes
    /// are exactly the scalar reference's virtual lanes.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_sq(a: &[f64]) -> f64 {
        let n = a.len();
        let main = n & !3;
        let pa = a.as_ptr();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < main {
            // SAFETY: i + 3 < n in the stepped-by-4 loop.
            unsafe {
                let v = _mm256_loadu_pd(pa.add(i));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
            }
            i += 4;
        }
        let mut l = [0.0f64; 4];
        // SAFETY: `l` holds four f64 slots.
        unsafe { _mm256_storeu_pd(l.as_mut_ptr(), acc) };
        let mut tail = 0.0;
        for &v in &a[main..] {
            tail += v * v;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + tail
    }

    /// Deterministic `Σ (re[i]² + im[i]²)`.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_sq2(re: &[f64], im: &[f64]) -> f64 {
        let n = re.len();
        let main = n & !3;
        let (pr, pi) = (re.as_ptr(), im.as_ptr());
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < main {
            // SAFETY: i + 3 < n in the stepped-by-4 loop.
            unsafe {
                let r = _mm256_loadu_pd(pr.add(i));
                let im_v = _mm256_loadu_pd(pi.add(i));
                let t = _mm256_add_pd(_mm256_mul_pd(r, r), _mm256_mul_pd(im_v, im_v));
                acc = _mm256_add_pd(acc, t);
            }
            i += 4;
        }
        let mut l = [0.0f64; 4];
        // SAFETY: `l` holds four f64 slots.
        unsafe { _mm256_storeu_pd(l.as_mut_ptr(), acc) };
        let mut tail = 0.0;
        for (&r, &i) in re[main..].iter().zip(&im[main..]) {
            tail += r * r + i * i;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + tail
    }

    /// Complex multiply of two packed complexes `[v0, v1]` by
    /// `[w0, w1]` (each `vj·wj`), matching the scalar product and
    /// rounding order per lane.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul2(v: __m256d, w: __m256d) -> __m256d {
        // Pure register arithmetic — intrinsic calls are safe inside a
        // fn already gated on the same feature.
        let wr = _mm256_movedup_pd(w); // [w0.re, w0.re, w1.re, w1.re]
        let wi = _mm256_permute_pd(w, 0b1111); // [w0.im ×2, w1.im ×2]
        let t1 = _mm256_mul_pd(v, wr);
        let vs = _mm256_permute_pd(v, 0b0101); // swap re/im per complex
        let t2 = _mm256_mul_pd(vs, wi);
        // lane re = t1 − t2, lane im = t1 + t2.
        _mm256_addsub_pd(t1, t2)
    }

    /// Sign mask negating the imaginary lane of each packed complex.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn conj_mask2() -> __m256d {
        // Constant materialization only; safe inside the feature-gated
        // fn.
        _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
    }

    /// One radix-2 butterfly stage, two complexes (one twiddle pair)
    /// per vector; stages with an odd `half` (the FFT's `half == 1`
    /// stage) use the scalar reference, since a pair would overrun the
    /// butterfly span.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn radix2_stage(buf: &mut [Complex], tw: &[Complex], half: usize, inverse: bool) {
        if half % 2 != 0 {
            scalar::radix2_stage(buf, tw, half, inverse);
            return;
        }
        let len = 2 * half;
        let n = buf.len();
        let p = buf.as_mut_ptr().cast::<f64>();
        let pt = tw.as_ptr().cast::<f64>();
        // SAFETY: constant materialization.
        let cm = unsafe { conj_mask2() };
        let mut i = 0;
        while i < n {
            let mut k = 0;
            // `half` is even, so pairs never leave a remainder.
            while k < half {
                // SAFETY: i + k + half + 1 < n by the block
                // structure; repr(C) puts complex c at f64 offset 2c.
                unsafe {
                    let mut w = _mm256_loadu_pd(pt.add(2 * k));
                    if inverse {
                        w = _mm256_xor_pd(w, cm);
                    }
                    let u = _mm256_loadu_pd(p.add(2 * (i + k)));
                    let v = _mm256_loadu_pd(p.add(2 * (i + k + half)));
                    let vw = cmul2(v, w);
                    _mm256_storeu_pd(p.add(2 * (i + k)), _mm256_add_pd(u, vw));
                    _mm256_storeu_pd(p.add(2 * (i + k + half)), _mm256_sub_pd(u, vw));
                }
                k += 2;
            }
            i += len;
        }
    }

    /// Pointwise `a[i] *= b[i]`, two complexes per vector.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
        let n = a.len();
        let main = n & !1;
        let pa = a.as_mut_ptr().cast::<f64>();
        let pb = b.as_ptr().cast::<f64>();
        // SAFETY: constant materialization.
        let cm = unsafe { conj_mask2() };
        let mut i = 0;
        while i < main {
            // SAFETY: complexes i, i+1 < n; repr(C) layout.
            unsafe {
                let x = _mm256_loadu_pd(pa.add(2 * i));
                let mut y = _mm256_loadu_pd(pb.add(2 * i));
                if conj_b {
                    y = _mm256_xor_pd(y, cm);
                }
                _mm256_storeu_pd(pa.add(2 * i), cmul2(x, y));
            }
            i += 2;
        }
        if i < n {
            let y = if conj_b { b[i].conj() } else { b[i] };
            a[i] *= y;
        }
    }

    /// Pointwise `out[i] = a[i] · b[i]`, two complexes per vector.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
        let n = out.len();
        let main = n & !1;
        let po = out.as_mut_ptr().cast::<f64>();
        let pa = a.as_ptr().cast::<f64>();
        let pb = b.as_ptr().cast::<f64>();
        // SAFETY: constant materialization.
        let cm = unsafe { conj_mask2() };
        let mut i = 0;
        while i < main {
            // SAFETY: complexes i, i+1 < n; repr(C) layout.
            unsafe {
                let x = _mm256_loadu_pd(pa.add(2 * i));
                let mut y = _mm256_loadu_pd(pb.add(2 * i));
                if conj_b {
                    y = _mm256_xor_pd(y, cm);
                }
                _mm256_storeu_pd(po.add(2 * i), cmul2(x, y));
            }
            i += 2;
        }
        if i < n {
            let y = if conj_b { b[i].conj() } else { b[i] };
            out[i] = a[i] * y;
        }
    }

    /// Two split-combine bins per iteration: forward pair `z[k..k+2]`
    /// against the reversed, conjugated pair `[z[m−k], z[m−k−1]]`,
    /// with the edge bins (`k = 0`, `k = m`, odd leftover) delegated
    /// to the scalar reference.
    ///
    /// Returns `[X[k], X[k+1]]` packed.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2; `tw.len() == z.len() + 1` and
    /// `1 ≤ k`, `k + 2 ≤ z.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn split_pair(z: &[Complex], tw: &[Complex], k: usize) -> __m256d {
        let m = z.len();
        let pz = z.as_ptr().cast::<f64>();
        let pt = tw.as_ptr().cast::<f64>();
        // SAFETY: caller guarantees 1 ≤ k and k + 1 ≤ m − 1, so both
        // the forward pair [k, k+1] and the reversed pair
        // [m−k−1, m−k] stay inside `z`.
        unsafe {
            let cm = conj_mask2();
            let a = _mm256_loadu_pd(pz.add(2 * k));
            // [z[m−k−1], z[m−k]] → swap the 128-bit halves →
            // [z[m−k], z[m−k−1]], then conjugate.
            let braw = _mm256_loadu_pd(pz.add(2 * (m - k - 1)));
            let b = _mm256_xor_pd(_mm256_permute2f128_pd(braw, braw, 0x01), cm);
            let halfv = _mm256_set1_pd(0.5);
            // Ze = (a + b)/2 — matches scalar (a + b).scale(0.5).
            let ze = _mm256_mul_pd(_mm256_add_pd(a, b), halfv);
            let d = _mm256_sub_pd(a, b);
            // Zo = (d.im, −d.re)/2: swap lanes, negate im lane, halve.
            let ds = _mm256_permute_pd(d, 0b0101);
            let zo = _mm256_mul_pd(_mm256_xor_pd(ds, cm), halfv);
            let t = _mm256_loadu_pd(pt.add(2 * k));
            // X = Ze + tw·Zo; cmul2(zo, t) keeps the scalar product
            // order (tw.re·zo parts first per lane).
            _mm256_add_pd(ze, cmul2(zo, t))
        }
    }

    /// Split-twiddle combine into SoA planes.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn real_split_combine_soa(
        z: &[Complex],
        tw: &[Complex],
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let m = z.len();
        if m < 4 {
            scalar::real_split_combine_soa(z, tw, re, im);
            return;
        }
        let (pr, pi) = (re.as_mut_ptr(), im.as_mut_ptr());
        // Edge bins wrap `(m − k) % m`; keep them scalar.
        let e0 = scalar::split_bin(z, tw, m, 0);
        re[0] = e0.re;
        im[0] = e0.im;
        let mut k = 1;
        while k + 2 <= m {
            // SAFETY: 1 ≤ k, k + 1 ≤ m − 1 (loop bound); outputs have
            // m + 1 slots so k + 1 is in bounds.
            unsafe {
                let x = split_pair(z, tw, k);
                // x = [re0, im0, re1, im1]; select lanes (0,2) and
                // (1,3) into 128-bit stores.
                let res = _mm256_castpd256_pd128(_mm256_permute4x64_pd(x, 0b00_00_10_00));
                let ims = _mm256_castpd256_pd128(_mm256_permute4x64_pd(x, 0b00_00_11_01));
                _mm_storeu_pd(pr.add(k), res);
                _mm_storeu_pd(pi.add(k), ims);
            }
            k += 2;
        }
        while k <= m {
            let x = scalar::split_bin(z, tw, m, k);
            re[k] = x.re;
            im[k] = x.im;
            k += 1;
        }
    }

    /// Split-twiddle combine into an AoS half spectrum.
    ///
    /// # Safety
    ///
    /// See the module docs.
    #[target_feature(enable = "avx2")]
    pub unsafe fn real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]) {
        let m = z.len();
        if m < 4 {
            scalar::real_split_combine_aos(z, tw, out);
            return;
        }
        let po = out.as_mut_ptr().cast::<f64>();
        out[0] = scalar::split_bin(z, tw, m, 0);
        let mut k = 1;
        while k + 2 <= m {
            // SAFETY: 1 ≤ k, k + 1 ≤ m − 1; out has m + 1 complexes.
            unsafe {
                let x = split_pair(z, tw, k);
                _mm256_storeu_pd(po.add(2 * k), x);
            }
            k += 2;
        }
        while k <= m {
            out[k] = scalar::split_bin(z, tw, m, k);
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// [`force_scalar`] is process-global; tests that flip it run one at
    /// a time so each one's claimed level coverage holds.
    static DISPATCH: Mutex<()> = Mutex::new(());

    fn data(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG; values span sign and magnitude.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
            })
            .collect()
    }

    fn cdata(n: usize, seed: u64) -> Vec<Complex> {
        let re = data(n, seed);
        let im = data(n, seed ^ 0xABCD);
        re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
    }

    /// Runs `f` forced-scalar, then at the native level, restoring auto
    /// dispatch afterwards.
    fn with_each_level(mut f: impl FnMut(Level)) {
        let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
        for forced in [true, false] {
            force_scalar(forced);
            f(active_level());
        }
        force_scalar(false);
    }

    #[test]
    fn plane_kernels_bit_identical_across_levels_and_remainders() {
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 33, 64, 257] {
            let a = data(n, 1);
            let b = data(n, 2);
            let want_ss = scalar::sum_sq(&a);
            let want_ss2 = scalar::sum_sq2(&a, &b);
            with_each_level(|l| {
                assert_eq!(sum_sq(&a).to_bits(), want_ss.to_bits(), "sum_sq n={n} level={l}");
                assert_eq!(
                    sum_sq2(&a, &b).to_bits(),
                    want_ss2.to_bits(),
                    "sum_sq2 n={n} level={l}"
                );
            });
        }
    }

    #[test]
    fn complex_kernels_bit_identical_across_levels() {
        // Odd spans (3, 5) are not FFT stages but are valid input: the
        // AVX2 arm must hand them to the scalar reference, not overrun.
        for half in [1usize, 2, 3, 4, 5, 8, 16] {
            let n = 4 * half; // two blocks
            let tw = cdata(half, 7);
            let src = cdata(n, 8);
            for inverse in [false, true] {
                let mut want = src.clone();
                scalar::radix2_stage(&mut want, &tw, half, inverse);
                with_each_level(|l| {
                    let mut got = src.clone();
                    radix2_stage(&mut got, &tw, half, inverse);
                    assert_eq!(got, want, "radix2 half={half} inv={inverse} level={l}");
                });
            }
        }
        for n in [0usize, 1, 2, 3, 5, 8, 31] {
            let a = cdata(n, 11);
            let b = cdata(n, 12);
            for conj_b in [false, true] {
                let mut want = a.clone();
                scalar::cmul_in_place(&mut want, &b, conj_b);
                with_each_level(|l| {
                    let mut got = a.clone();
                    cmul_in_place(&mut got, &b, conj_b);
                    assert_eq!(got, want, "cmul n={n} conj={conj_b} level={l}");
                    let mut out = vec![Complex::ZERO; n];
                    cmul_into(&mut out, &a, &b, conj_b);
                    assert_eq!(out, want, "cmul_into n={n} conj={conj_b} level={l}");
                });
            }
        }
        for m in [1usize, 2, 3, 4, 5, 8, 16, 33] {
            let z = cdata(m, 21);
            let tw = cdata(m + 1, 22);
            let mut want = vec![Complex::ZERO; m + 1];
            scalar::real_split_combine_aos(&z, &tw, &mut want);
            let mut want_re = vec![0.0; m + 1];
            let mut want_im = vec![0.0; m + 1];
            scalar::real_split_combine_soa(&z, &tw, &mut want_re, &mut want_im);
            with_each_level(|l| {
                let mut got = vec![Complex::ZERO; m + 1];
                real_split_combine_aos(&z, &tw, &mut got);
                assert_eq!(got, want, "combine aos m={m} level={l}");
                let mut gre = vec![0.0; m + 1];
                let mut gim = vec![0.0; m + 1];
                real_split_combine_soa(&z, &tw, &mut gre, &mut gim);
                assert_eq!(gre, want_re, "combine soa re m={m} level={l}");
                assert_eq!(gim, want_im, "combine soa im m={m} level={l}");
            });
        }
    }

    #[test]
    fn force_scalar_pins_and_releases_dispatch() {
        let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
        force_scalar(true);
        assert_eq!(active_level(), Level::Scalar);
        force_scalar(false);
        assert_eq!(active_level(), detected_level());
    }

    #[test]
    fn complex_lane_views_share_layout() {
        let mut buf = cdata(5, 31);
        let flat: Vec<f64> = buf.iter().flat_map(|c| [c.re, c.im]).collect();
        assert_eq!(complex_lanes(&buf), &flat[..]);
        complex_lanes_mut(&mut buf)[3] = 42.0;
        assert_eq!(buf[1].im, 42.0);
    }

    // The shape asserts below are all that keeps the AVX2 arms' pointer
    // arithmetic in bounds, so each one is pinned by a test.

    #[test]
    #[should_panic(expected = "sum_sq2 length mismatch")]
    fn sum_sq2_rejects_mismatched_planes() {
        sum_sq2(&[1.0; 8], &[1.0; 7]);
    }

    #[test]
    #[should_panic(expected = "cmul_in_place length mismatch")]
    fn cmul_in_place_rejects_short_operand() {
        cmul_in_place(&mut [Complex::ZERO; 8], &[Complex::ZERO; 7], false);
    }

    #[test]
    #[should_panic(expected = "cmul_into length mismatch")]
    fn cmul_into_rejects_short_operand() {
        cmul_into(&mut [Complex::ZERO; 8], &[Complex::ZERO; 8], &[Complex::ZERO; 7], true);
    }

    #[test]
    #[should_panic(expected = "twiddle slice must cover one butterfly span")]
    fn radix2_stage_rejects_short_twiddles() {
        radix2_stage(&mut [Complex::ZERO; 8], &[Complex::ZERO; 1], 2, false);
    }

    #[test]
    #[should_panic(expected = "buffer must hold whole butterfly blocks")]
    fn radix2_stage_rejects_partial_block() {
        radix2_stage(&mut [Complex::ZERO; 6], &[Complex::ZERO; 2], 2, false);
    }

    #[test]
    #[should_panic(expected = "split twiddle table length mismatch")]
    fn real_split_combine_soa_rejects_short_twiddles() {
        real_split_combine_soa(
            &[Complex::ZERO; 8],
            &[Complex::ZERO; 8],
            &mut [0.0; 9],
            &mut [0.0; 9],
        );
    }

    #[test]
    #[should_panic(expected = "im plane length mismatch")]
    fn real_split_combine_soa_rejects_short_plane() {
        real_split_combine_soa(
            &[Complex::ZERO; 8],
            &[Complex::ZERO; 9],
            &mut [0.0; 9],
            &mut [0.0; 8],
        );
    }

    #[test]
    #[should_panic(expected = "half spectrum length mismatch")]
    fn real_split_combine_aos_rejects_short_output() {
        real_split_combine_aos(&[Complex::ZERO; 8], &[Complex::ZERO; 9], &mut [Complex::ZERO; 8]);
    }
}
