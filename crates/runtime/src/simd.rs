//! Runtime SIMD dispatch for the lane kernels.
//!
//! The lane backend's finalize (one branch distance per lane over
//! structure-of-array operand buffers, [`crate::lane`]) and the FPIR tape's
//! straight-line SoA block kernels are the two genuinely data-parallel hot
//! loops of the system. Stable rustc has no `core::simd`, so this module
//! provides hand-written SSE2/AVX2 intrinsic kernels behind runtime
//! [`is_x86_feature_detected!`] dispatch, plus a portable scalar fallback
//! that is the semantic reference on every architecture.
//!
//! # Dispatch
//!
//! The active ISA is resolved in priority order:
//!
//! 1. a process-wide forced ISA installed by [`SimdIsa::force`] (the CLIs'
//!    `--simd` flag),
//! 2. the `COVERME_SIMD` environment variable (`portable|sse2|avx2`,
//!    empty = unset; read once per process),
//! 3. the best ISA the CPU supports ([`SimdIsa::detect`]).
//!
//! Long-lived evaluation structures ([`crate::LaneCtx`], the exec
//! backends) snapshot the active ISA at construction and can be overridden
//! per instance, so tests exercise every path without racing on global
//! state. The ISA picks kernels only: every ISA packs the same
//! [`LANE_WIDTH`] lanes per finalize, so batch shapes, and with them the
//! memo cache's view of a search, do not depend on the machine.
//!
//! # Bit-exactness
//!
//! Every kernel computes exactly the scalar formula on each lane: IEEE 754
//! add/sub/mul/div are correctly rounded in both scalar and packed form,
//! the compare-and-select chains mirror the scalar branch structure, and
//! NaN handling uses unordered compares that match the scalar `is_nan`
//! rules. The differential suites (`lane_properties`, `tape_properties`)
//! pin `portable == sse2 == avx2` bit for bit over generated corpora
//! including NaN/inf operands.

// Intrinsic calls are the one place this crate needs `unsafe`. Every
// `unsafe` block here is a feature-gated intrinsic call on slices whose
// bounds the safe wrappers check.
#![allow(unsafe_code)]

use crate::distance::Cmp;
use crate::lane::LANE_WIDTH;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The environment variable that forces a SIMD ISA (`portable|sse2|avx2`;
/// unset or empty means "auto-detect").
pub const SIMD_ENV_VAR: &str = "COVERME_SIMD";

/// A SIMD instruction-set choice for the lane kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// Scalar Rust loops — the reference semantics, available everywhere.
    Portable,
    /// 128-bit SSE2 kernels (x86-64 baseline, 2 doubles per op).
    Sse2,
    /// 256-bit AVX2 kernels (4 doubles per op), detected at runtime.
    Avx2,
}

/// Forced process-wide ISA: 0 = unset, else `discriminant + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The `COVERME_SIMD` value, parsed once per process.
static FROM_ENV: OnceLock<Option<SimdIsa>> = OnceLock::new();

impl SimdIsa {
    /// Every ISA, in increasing width order.
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Portable, SimdIsa::Sse2, SimdIsa::Avx2];

    /// Stable lowercase label (CLI flags, report JSON).
    pub fn label(self) -> &'static str {
        match self {
            SimdIsa::Portable => "portable",
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Avx2 => "avx2",
        }
    }

    /// Parses a CLI-style label (the inverse of [`label`](Self::label)).
    pub fn parse(s: &str) -> Option<SimdIsa> {
        match s {
            "portable" => Some(SimdIsa::Portable),
            "sse2" => Some(SimdIsa::Sse2),
            "avx2" => Some(SimdIsa::Avx2),
            _ => None,
        }
    }

    /// Whether this machine can execute the ISA's kernels.
    pub fn is_supported(self) -> bool {
        match self {
            SimdIsa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The ISAs this machine supports, in increasing width order.
    pub fn supported() -> Vec<SimdIsa> {
        SimdIsa::ALL
            .into_iter()
            .filter(|isa| isa.is_supported())
            .collect()
    }

    /// The widest ISA the CPU supports.
    pub fn detect() -> SimdIsa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                SimdIsa::Avx2
            } else {
                SimdIsa::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdIsa::Portable
    }

    /// How many evaluations one lockstep finalize packs under this ISA:
    /// [`LANE_WIDTH`] on every ISA (AVX2 resolves the 8 lanes as two
    /// 4-wide vectors). Reports record it next to the ISA label.
    pub fn lane_width(self) -> usize {
        LANE_WIDTH
    }

    /// Parses [`SIMD_ENV_VAR`]. `Ok(None)` when unset or empty; an error
    /// message (for CLI usage errors) when the value is not a known label.
    pub fn from_env() -> Result<Option<SimdIsa>, String> {
        match std::env::var(SIMD_ENV_VAR) {
            Ok(value) if value.is_empty() => Ok(None),
            Ok(value) => SimdIsa::parse(&value)
                .map(Some)
                .ok_or_else(|| format!("{SIMD_ENV_VAR}={value}: expected portable, sse2 or avx2")),
            Err(_) => Ok(None),
        }
    }

    /// Forces the process-wide active ISA (the CLIs' `--simd` knob).
    /// Errors when the machine cannot execute the ISA.
    pub fn force(isa: SimdIsa) -> Result<(), String> {
        if !isa.is_supported() {
            return Err(format!(
                "SIMD ISA '{}' is not supported on this machine",
                isa.label()
            ));
        }
        FORCED.store(isa as u8 + 1, Ordering::Relaxed);
        Ok(())
    }

    /// The currently forced ISA, if any.
    pub fn forced() -> Option<SimdIsa> {
        match FORCED.load(Ordering::Relaxed) {
            1 => Some(SimdIsa::Portable),
            2 => Some(SimdIsa::Sse2),
            3 => Some(SimdIsa::Avx2),
            _ => None,
        }
    }

    /// Resolves the active ISA: forced, else `COVERME_SIMD`, else
    /// [`detect`](Self::detect). An environment value naming an ISA this
    /// machine cannot run falls back to detection (the CLIs reject it
    /// with a usage error before getting here).
    pub fn active() -> SimdIsa {
        if let Some(isa) = SimdIsa::forced() {
            return isa;
        }
        let from_env = *FROM_ENV.get_or_init(|| SimdIsa::from_env().ok().flatten());
        match from_env {
            Some(isa) if isa.is_supported() => isa,
            _ => SimdIsa::detect(),
        }
    }
}

impl std::fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Elementwise branch distance `d_ε(op, a[k], b[k])` (Definition 4.1) over
/// SoA operand slices, dispatched to the chosen ISA's kernel. All three
/// ISAs produce bit-identical output; `Ge`/`Gt` are folded onto `Le`/`Lt`
/// by operand swap exactly like the scalar implementation.
///
/// # Panics
///
/// Panics if the slice lengths disagree, or (debug only) if `isa` is not
/// supported on this machine.
pub fn distance_lanes(isa: SimdIsa, op: Cmp, a: &[f64], b: &[f64], epsilon: f64, out: &mut [f64]) {
    // Definition 4.1 defines Ge/Gt by operand swap; fold them first so the
    // kernels only see Eq/Ne/Le/Lt.
    match op {
        Cmp::Ge => return distance_lanes(isa, Cmp::Le, b, a, epsilon, out),
        Cmp::Gt => return distance_lanes(isa, Cmp::Lt, b, a, epsilon, out),
        _ => {}
    }
    let n = out.len();
    assert!(a.len() == n && b.len() == n, "SoA slice lengths disagree");
    debug_assert!(isa.is_supported(), "unsupported ISA {isa:?}");
    match isa {
        SimdIsa::Portable => portable::distance(op, a, b, epsilon, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
        SimdIsa::Sse2 => unsafe { x86::distance_sse2(op, a, b, epsilon, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` (checked by `force`/`with_simd` at ISA
        // selection time, re-asserted above in debug builds) verified AVX2.
        SimdIsa::Avx2 => unsafe { x86::distance_avx2(op, a, b, epsilon, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::distance(op, a, b, epsilon, out),
    }
}

/// An elementwise binary vector operation over `f64` lanes. Only the four
/// IEEE arithmetic ops appear here — they are correctly rounded, so every
/// ISA produces identical bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecBin {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// Elementwise `out[k] = a[k] <op> b[k]` dispatched to the ISA's kernel.
/// Bit-identical across ISAs (IEEE basic operations are exactly rounded).
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn vec_bin(isa: SimdIsa, op: VecBin, a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert!(a.len() == n && b.len() == n, "SoA slice lengths disagree");
    match isa {
        SimdIsa::Portable => portable::bin(op, a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
        SimdIsa::Sse2 => unsafe { x86::bin_sse2(op, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability established at ISA selection time.
        SimdIsa::Avx2 => unsafe { x86::bin_avx2(op, a, b, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::bin(op, a, b, out),
    }
}

/// Elementwise IEEE negate (`out[k] = -a[k]`, a sign-bit flip — also on
/// NaN), dispatched to the ISA's kernel.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn vec_neg(isa: SimdIsa, a: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert!(a.len() == n, "SoA slice lengths disagree");
    match isa {
        SimdIsa::Portable => portable::neg(a, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
        SimdIsa::Sse2 => unsafe { x86::neg_sse2(a, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability established at ISA selection time.
        SimdIsa::Avx2 => unsafe { x86::neg_avx2(a, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::neg(a, out),
    }
}

/// The scalar reference kernels. These are the exact loops the pre-SIMD
/// lane backend ran; the intrinsic kernels must match them bit for bit.
mod portable {
    use super::VecBin;
    use crate::distance::Cmp;

    /// Elementwise Definition 4.1 distance, written as straight-line
    /// select chains (the NaN rule applied as a final select, `square`'s
    /// overflow saturation to `f64::MAX` reproduced).
    pub fn distance(op: Cmp, a: &[f64], b: &[f64], epsilon: f64, out: &mut [f64]) {
        let n = out.len();
        match op {
            Cmp::Eq => {
                for k in 0..n {
                    let d = a[k] - b[k];
                    let sq = d * d;
                    let sq = if sq.is_infinite() { f64::MAX } else { sq };
                    out[k] = if a[k].is_nan() || b[k].is_nan() {
                        f64::INFINITY
                    } else {
                        sq
                    };
                }
            }
            Cmp::Le => {
                for k in 0..n {
                    let d = a[k] - b[k];
                    let sq = d * d;
                    let sq = if sq.is_infinite() { f64::MAX } else { sq };
                    let v = if a[k] <= b[k] { 0.0 } else { sq };
                    out[k] = if a[k].is_nan() || b[k].is_nan() {
                        f64::INFINITY
                    } else {
                        v
                    };
                }
            }
            Cmp::Lt => {
                for k in 0..n {
                    let d = a[k] - b[k];
                    let sq = d * d;
                    let sq = if sq.is_infinite() { f64::MAX } else { sq };
                    let v = if a[k] < b[k] { 0.0 } else { sq + epsilon };
                    out[k] = if a[k].is_nan() || b[k].is_nan() {
                        f64::INFINITY
                    } else {
                        v
                    };
                }
            }
            Cmp::Ne => {
                // distance(Ne, NaN, _) is 0 — `a != b` already holds for
                // NaN, so the generic select covers the NaN rule too.
                for k in 0..n {
                    out[k] = if a[k] != b[k] { 0.0 } else { epsilon };
                }
            }
            Cmp::Ge | Cmp::Gt => unreachable!("folded onto Le/Lt by the dispatcher"),
        }
    }

    pub fn bin(op: VecBin, a: &[f64], b: &[f64], out: &mut [f64]) {
        match op {
            VecBin::Add => {
                for k in 0..out.len() {
                    out[k] = a[k] + b[k];
                }
            }
            VecBin::Sub => {
                for k in 0..out.len() {
                    out[k] = a[k] - b[k];
                }
            }
            VecBin::Mul => {
                for k in 0..out.len() {
                    out[k] = a[k] * b[k];
                }
            }
            VecBin::Div => {
                for k in 0..out.len() {
                    out[k] = a[k] / b[k];
                }
            }
        }
    }

    pub fn neg(a: &[f64], out: &mut [f64]) {
        for k in 0..out.len() {
            out[k] = -a[k];
        }
    }
}

/// The x86-64 intrinsic kernels. Each processes full vectors and hands the
/// tail lanes to the portable kernel (bit-identical by construction, so
/// mixing widths within one slice is invisible).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{portable, VecBin};
    use crate::distance::Cmp;
    use core::arch::x86_64::*;

    /// `mask ? yes : no` per lane; SSE2 has no `blendv`, so the classic
    /// and/andnot/or idiom (compare masks are all-ones or all-zeros).
    #[inline(always)]
    unsafe fn select_sse2(mask: __m128d, yes: __m128d, no: __m128d) -> __m128d {
        _mm_or_pd(_mm_and_pd(mask, yes), _mm_andnot_pd(mask, no))
    }

    /// # Safety
    /// Caller must ensure SSE2 (x86-64 baseline) and equal slice lengths.
    #[target_feature(enable = "sse2")]
    pub unsafe fn distance_sse2(op: Cmp, a: &[f64], b: &[f64], epsilon: f64, out: &mut [f64]) {
        let n = out.len();
        let inf = _mm_set1_pd(f64::INFINITY);
        let max = _mm_set1_pd(f64::MAX);
        let zero = _mm_setzero_pd();
        let eps = _mm_set1_pd(epsilon);
        let mut k = 0;
        while k + 2 <= n {
            let va = _mm_loadu_pd(a.as_ptr().add(k));
            let vb = _mm_loadu_pd(b.as_ptr().add(k));
            let v = if op == Cmp::Ne {
                // `a != b` (true for NaN, matching the scalar rule) selects
                // 0.0; equal lanes get ε.
                _mm_andnot_pd(_mm_cmpneq_pd(va, vb), eps)
            } else {
                let d = _mm_sub_pd(va, vb);
                let sq = _mm_mul_pd(d, d);
                // square() saturation: sq can only overflow to +inf.
                let sq = select_sse2(_mm_cmpeq_pd(sq, inf), max, sq);
                let nan = _mm_cmpunord_pd(va, vb);
                let v = match op {
                    Cmp::Eq => sq,
                    Cmp::Le => _mm_andnot_pd(_mm_cmple_pd(va, vb), sq),
                    Cmp::Lt => select_sse2(_mm_cmplt_pd(va, vb), zero, _mm_add_pd(sq, eps)),
                    _ => unreachable!("dispatcher folds Ge/Gt and handles Ne"),
                };
                select_sse2(nan, inf, v)
            };
            _mm_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 2;
        }
        if k < n {
            portable::distance(op, &a[k..n], &b[k..n], epsilon, &mut out[k..n]);
        }
    }

    #[inline(always)]
    unsafe fn select_avx(mask: __m256d, yes: __m256d, no: __m256d) -> __m256d {
        _mm256_blendv_pd(no, yes, mask)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and slice lengths are equal.
    #[target_feature(enable = "avx2")]
    pub unsafe fn distance_avx2(op: Cmp, a: &[f64], b: &[f64], epsilon: f64, out: &mut [f64]) {
        let n = out.len();
        let inf = _mm256_set1_pd(f64::INFINITY);
        let max = _mm256_set1_pd(f64::MAX);
        let zero = _mm256_setzero_pd();
        let eps = _mm256_set1_pd(epsilon);
        let mut k = 0;
        while k + 4 <= n {
            let va = _mm256_loadu_pd(a.as_ptr().add(k));
            let vb = _mm256_loadu_pd(b.as_ptr().add(k));
            let v = if op == Cmp::Ne {
                let neq = _mm256_cmp_pd::<_CMP_NEQ_UQ>(va, vb);
                _mm256_andnot_pd(neq, eps)
            } else {
                let d = _mm256_sub_pd(va, vb);
                let sq = _mm256_mul_pd(d, d);
                let sq = select_avx(_mm256_cmp_pd::<_CMP_EQ_OQ>(sq, inf), max, sq);
                let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(va, vb);
                let v = match op {
                    Cmp::Eq => sq,
                    Cmp::Le => _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(va, vb), sq),
                    Cmp::Lt => select_avx(
                        _mm256_cmp_pd::<_CMP_LT_OQ>(va, vb),
                        zero,
                        _mm256_add_pd(sq, eps),
                    ),
                    _ => unreachable!("dispatcher folds Ge/Gt and handles Ne"),
                };
                select_avx(nan, inf, v)
            };
            _mm256_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 4;
        }
        if k < n {
            portable::distance(op, &a[k..n], &b[k..n], epsilon, &mut out[k..n]);
        }
    }

    /// # Safety
    /// Caller must ensure SSE2 (x86-64 baseline) and equal slice lengths.
    #[target_feature(enable = "sse2")]
    pub unsafe fn bin_sse2(op: VecBin, a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut k = 0;
        while k + 2 <= n {
            let va = _mm_loadu_pd(a.as_ptr().add(k));
            let vb = _mm_loadu_pd(b.as_ptr().add(k));
            let v = match op {
                VecBin::Add => _mm_add_pd(va, vb),
                VecBin::Sub => _mm_sub_pd(va, vb),
                VecBin::Mul => _mm_mul_pd(va, vb),
                VecBin::Div => _mm_div_pd(va, vb),
            };
            _mm_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 2;
        }
        if k < n {
            portable::bin(op, &a[k..n], &b[k..n], &mut out[k..n]);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and slice lengths are equal.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bin_avx2(op: VecBin, a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut k = 0;
        while k + 4 <= n {
            let va = _mm256_loadu_pd(a.as_ptr().add(k));
            let vb = _mm256_loadu_pd(b.as_ptr().add(k));
            let v = match op {
                VecBin::Add => _mm256_add_pd(va, vb),
                VecBin::Sub => _mm256_sub_pd(va, vb),
                VecBin::Mul => _mm256_mul_pd(va, vb),
                VecBin::Div => _mm256_div_pd(va, vb),
            };
            _mm256_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 4;
        }
        if k < n {
            portable::bin(op, &a[k..n], &b[k..n], &mut out[k..n]);
        }
    }

    /// # Safety
    /// Caller must ensure SSE2 (x86-64 baseline) and equal slice lengths.
    #[target_feature(enable = "sse2")]
    pub unsafe fn neg_sse2(a: &[f64], out: &mut [f64]) {
        let n = out.len();
        let sign = _mm_set1_pd(-0.0);
        let mut k = 0;
        while k + 2 <= n {
            let v = _mm_xor_pd(_mm_loadu_pd(a.as_ptr().add(k)), sign);
            _mm_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 2;
        }
        if k < n {
            portable::neg(&a[k..n], &mut out[k..n]);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and slice lengths are equal.
    #[target_feature(enable = "avx2")]
    pub unsafe fn neg_avx2(a: &[f64], out: &mut [f64]) {
        let n = out.len();
        let sign = _mm256_set1_pd(-0.0);
        let mut k = 0;
        while k + 4 <= n {
            let v = _mm256_xor_pd(_mm256_loadu_pd(a.as_ptr().add(k)), sign);
            _mm256_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 4;
        }
        if k < n {
            portable::neg(&a[k..n], &mut out[k..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{distance, DEFAULT_EPSILON};

    /// Operand pool covering every special-value interaction the distance
    /// kernels select on: NaN, ±inf (inf−inf produces NaN from non-NaN
    /// operands), overflow squares, ±0, denormals.
    fn pool() -> Vec<f64> {
        vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e300,
            -1e300,
            5e-324,
            f64::MAX,
            2.5,
            -7.25,
        ]
    }

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        for isa in SimdIsa::ALL {
            assert_eq!(SimdIsa::parse(isa.label()), Some(isa));
            assert_eq!(isa.to_string(), isa.label());
        }
        assert_eq!(SimdIsa::parse("avx512"), None);
        assert_eq!(SimdIsa::parse(""), None);
    }

    #[test]
    fn portable_is_always_supported_and_detected_isa_is_supported() {
        assert!(SimdIsa::Portable.is_supported());
        assert!(SimdIsa::detect().is_supported());
        assert!(SimdIsa::supported().contains(&SimdIsa::Portable));
        // One lane width on every ISA.
        for isa in SimdIsa::ALL {
            assert_eq!(isa.lane_width(), 8, "{isa}");
        }
    }

    #[test]
    fn every_supported_isa_matches_the_scalar_distance_bit_for_bit() {
        let pool = pool();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &pool {
            for &y in &pool {
                a.push(x);
                b.push(y);
            }
        }
        for isa in SimdIsa::supported() {
            for op in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
                for epsilon in [DEFAULT_EPSILON, 0.25, 2.0] {
                    let mut out = vec![0.0; a.len()];
                    distance_lanes(isa, op, &a, &b, epsilon, &mut out);
                    for k in 0..a.len() {
                        let expect = distance(op, a[k], b[k], epsilon);
                        assert_eq!(
                            out[k].to_bits(),
                            expect.to_bits(),
                            "{isa} {op:?} d({}, {}) = {} want {}",
                            a[k],
                            b[k],
                            out[k],
                            expect
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn odd_lengths_exercise_the_vector_tail() {
        // Lengths around the vector widths so every kernel runs both its
        // packed loop and its scalar tail.
        let pool = pool();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            let a: Vec<f64> = (0..len).map(|k| pool[k % pool.len()]).collect();
            let b: Vec<f64> = (0..len).map(|k| pool[(k * 5 + 3) % pool.len()]).collect();
            for isa in SimdIsa::supported() {
                let mut out = vec![0.0; len];
                distance_lanes(isa, Cmp::Le, &a, &b, DEFAULT_EPSILON, &mut out);
                let mut reference = vec![0.0; len];
                distance_lanes(
                    SimdIsa::Portable,
                    Cmp::Le,
                    &a,
                    &b,
                    DEFAULT_EPSILON,
                    &mut reference,
                );
                for k in 0..len {
                    assert_eq!(
                        out[k].to_bits(),
                        reference[k].to_bits(),
                        "{isa} len {len} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_arithmetic_matches_scalar_bit_for_bit() {
        let pool = pool();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &pool {
            for &y in &pool {
                a.push(x);
                b.push(y);
            }
        }
        // An odd extra lane so the tail path runs too.
        a.push(3.5);
        b.push(-0.0);
        for isa in SimdIsa::supported() {
            for op in [VecBin::Add, VecBin::Sub, VecBin::Mul, VecBin::Div] {
                let mut out = vec![0.0; a.len()];
                vec_bin(isa, op, &a, &b, &mut out);
                for k in 0..a.len() {
                    let expect = match op {
                        VecBin::Add => a[k] + b[k],
                        VecBin::Sub => a[k] - b[k],
                        VecBin::Mul => a[k] * b[k],
                        VecBin::Div => a[k] / b[k],
                    };
                    assert_eq!(
                        out[k].to_bits(),
                        expect.to_bits(),
                        "{isa} {op:?} on ({}, {})",
                        a[k],
                        b[k]
                    );
                }
            }
            let mut out = vec![0.0; a.len()];
            vec_neg(isa, &a, &mut out);
            for k in 0..a.len() {
                assert_eq!(out[k].to_bits(), (-a[k]).to_bits(), "{isa} neg {}", a[k]);
            }
        }
    }

    #[test]
    fn env_parse_accepts_known_labels_only() {
        // Direct parse-level checks; the env var itself is process-global
        // state the CLI owns, so tests only pin the parsing rules.
        assert_eq!(SimdIsa::parse("portable"), Some(SimdIsa::Portable));
        assert_eq!(SimdIsa::parse("sse2"), Some(SimdIsa::Sse2));
        assert_eq!(SimdIsa::parse("avx2"), Some(SimdIsa::Avx2));
        assert_eq!(SimdIsa::parse("AVX2"), None);
    }
}
