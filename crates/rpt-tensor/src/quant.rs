//! Int8 weight quantization and exact integer matmul kernels.
//!
//! Weights are quantized **per output row** with a symmetric i8 scheme
//! (`scale = max_abs / 127`, no zero point); activations are quantized
//! **per input row** with an asymmetric u8 scheme (`scale`, `zero`). The
//! product accumulates in `i32`, corrects the activation zero point with a
//! precomputed per-row weight sum, and rescales to `f32` once per output
//! element:
//!
//! ```text
//! acc      = Σ_k  q_a[k] · q_w[k]              (i32, exact)
//! out[i,j] = (acc − zero_a · row_sum_w[j]) as f32 · (scale_a · scale_w[j])
//! ```
//!
//! Both halves of [`QuantMatrix::matmul_f32`] have a scalar and an AVX2
//! twin, and the twins are byte-identical by construction:
//!
//! - **The integer product.** Integer addition is associative and every
//!   product fits comfortably in `i32` (`|q_a·q_w| ≤ 255·127 = 32385`, so
//!   `k` up to 2¹⁶ cannot overflow a 32-bit accumulator), so lane grouping
//!   and reduction order cannot change the sum. The zero-point correction
//!   is exact as well, and the rescale performs the scalar IEEE operations
//!   (`i32 → f32`, then one multiply by `scale_a · scale_w[j]`) lane-wise.
//! - **Activation quantization.** The vector quantizer repeats each
//!   scalar IEEE step. Row min/max are exact; only the sign of a zero
//!   bound may differ, and no output depends on it. `x / scale` is a
//!   correctly rounded division in both forms. `round()` (half away from
//!   zero) is rebuilt from `trunc`: `x − trunc(x)` is exact, and a
//!   magnitude `≥ 0.5` bumps the truncated value by `±1`. The `+ zero`,
//!   the clamp (ordered so a NaN quotient becomes 0, as `f32 as u8` makes
//!   it) and the final conversion of an integer-valued float are exact. A
//!   row holding any NaN falls back to the scalar quantizer, so NaN
//!   handling is the scalar code's by definition.
//!
//! So `RPT_SIMD=0` and `RPT_SIMD=1` produce byte-identical logits
//! (locked down by `tests/quant_equivalence.rs`).
//!
//! The AVX2 kernel follows the `_mm256_maddubs_epi16` idiom but uses
//! explicit u8→i16 / i8→i16 widening plus `_mm256_madd_epi16`:
//! `maddubs` saturates its i16 pair-sums (255·127·2 = 64770 > i16::MAX),
//! which would break exactness; the widened form pairs products of at
//! most 32385 into i32 lanes and stays exact for every input. It is
//! register-blocked over four output channels and two activation rows:
//! each widened activation chunk feeds four weight rows, each widened
//! weight chunk two activation rows, and one `hadd` tree per row reduces
//! its four accumulators at once.

use std::cell::Cell;
use std::sync::LazyLock;

/// Kernel metrics (DESIGN.md §Observability); inert unless metrics are on.
struct QMatmulObs {
    calls: rpt_obs::Counter,
    madds: rpt_obs::Counter,
}

static QMATMUL_OBS: LazyLock<QMatmulObs> = LazyLock::new(|| QMatmulObs {
    calls: rpt_obs::counter("tensor.qmatmul_calls"),
    madds: rpt_obs::counter("tensor.qmatmul_madds"),
});

/// Activation rows quantized per kernel pass. The fused decode step's
/// few rows fit one pass; a long encoder batch takes several, which caps
/// the per-thread scratch at `ROW_TILE · k` bytes.
const ROW_TILE: usize = 16;

/// Activation scratch for one kernel pass of [`QuantMatrix::matmul_f32`].
#[derive(Default)]
struct ActScratch {
    /// Quantized activation rows, `k` bytes each.
    q: Vec<u8>,
    /// Each row's `(scale, zero)`.
    rows: Vec<(f32, i32)>,
}

thread_local! {
    /// Per-thread scratch, reused across calls so the hot path does not
    /// allocate.
    static ACT_SCRATCH: Cell<ActScratch> = const {
        Cell::new(ActScratch { q: Vec::new(), rows: Vec::new() })
    };
}

/// Hard ceiling on the inner dimension `k`: `255·127·2^16 < 2^31`, so any
/// `k ≤ 2^16` is provably overflow-free in a 32-bit accumulator.
pub const QMATMUL_MAX_K: usize = 1 << 16;

/// A per-row symmetric int8 weight matrix, stored `[n_out, k]` row-major
/// so the quantized matmul is a contiguous row-dot-row. For a dense layer
/// `y = x W` with `W: [k, n_out]`, row `j` holds the quantized `j`-th
/// *column* of `W` (see [`QuantMatrix::quantize_transposed`]); for a tied
/// output projection over an embedding table `E: [vocab, d]`, rows
/// quantize directly (see [`QuantMatrix::quantize_rows`]).
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    n_out: usize,
    k: usize,
    /// `[n_out, k]` row-major quantized weights, each in `[-127, 127]`.
    data: Vec<i8>,
    /// Per-output-row dequantization scale.
    scales: Vec<f32>,
    /// Per-output-row `Σ_k data[j,k]` for the zero-point correction.
    row_sums: Vec<i32>,
}

impl QuantMatrix {
    /// Output rows (output features of the product).
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Inner dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The raw quantized weights, `[n_out, k]` row-major.
    pub fn weights(&self) -> &[i8] {
        &self.data
    }

    /// Per-output-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Rebuilds a matrix from serialized parts, recomputing the row sums.
    ///
    /// # Panics
    /// If the part lengths disagree with `n_out`/`k`, or `k` exceeds
    /// [`QMATMUL_MAX_K`].
    pub fn from_parts(n_out: usize, k: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert!(k <= QMATMUL_MAX_K, "quant inner dim {k} exceeds {QMATMUL_MAX_K}");
        assert_eq!(data.len(), n_out * k, "quant data length mismatch");
        assert_eq!(scales.len(), n_out, "quant scales length mismatch");
        let row_sums = (0..n_out)
            .map(|j| data[j * k..(j + 1) * k].iter().map(|&w| w as i32).sum())
            .collect();
        Self {
            n_out,
            k,
            data,
            scales,
            row_sums,
        }
    }

    /// Quantizes a `[n_out, k]` row-major f32 matrix per row (the tied
    /// projection case: an embedding table's rows are output channels).
    pub fn quantize_rows(rows: &[f32], n_out: usize, k: usize) -> Self {
        assert!(k <= QMATMUL_MAX_K, "quant inner dim {k} exceeds {QMATMUL_MAX_K}");
        assert_eq!(rows.len(), n_out * k, "quantize_rows size mismatch");
        let mut data = vec![0i8; n_out * k];
        let mut scales = vec![0.0f32; n_out];
        for j in 0..n_out {
            let src = &rows[j * k..(j + 1) * k];
            let max_abs = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            scales[j] = scale;
            for (o, &x) in data[j * k..(j + 1) * k].iter_mut().zip(src) {
                *o = (x / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Self::from_parts(n_out, k, data, scales)
    }

    /// Quantizes a dense-layer weight `W: [k, n_out]` (the `xW` layout
    /// [`crate::Tensor::matmul2d`] consumes) per *output column*, storing
    /// the transposed `[n_out, k]` form this kernel wants.
    pub fn quantize_transposed(w: &[f32], k: usize, n_out: usize) -> Self {
        assert_eq!(w.len(), k * n_out, "quantize_transposed size mismatch");
        let mut rows = vec![0.0f32; n_out * k];
        for kk in 0..k {
            for j in 0..n_out {
                rows[j * k + kk] = w[kk * n_out + j];
            }
        }
        Self::quantize_rows(&rows, n_out, k)
    }

    /// Dequantizes back to `[n_out, k]` f32 rows (round-trip testing and
    /// error measurement).
    pub fn dequantize_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_out * self.k];
        for j in 0..self.n_out {
            let s = self.scales[j];
            for (o, &q) in out[j * self.k..(j + 1) * self.k]
                .iter_mut()
                .zip(&self.data[j * self.k..(j + 1) * self.k])
            {
                *o = q as f32 * s;
            }
        }
        out
    }

    /// `x · Wᵀ` for f32 activations `x: [m, k]`, returning `[m, n_out]`.
    /// Activations are quantized per row, the integer product runs on the
    /// dispatched kernel (AVX2 when [`crate::simd::simd_enabled`]), and
    /// the result is rescaled to f32. Serial over rows by design: output
    /// bits are independent of thread count and of `RPT_SIMD`.
    pub fn matmul_f32(&self, x: &[f32], m: usize) -> Vec<f32> {
        self.matmul_f32_with(x, m, crate::simd::simd_enabled())
    }

    /// [`Self::matmul_f32`] with the kernel choice forced, for the
    /// bitwise equivalence suite: `use_simd` selects both the activation
    /// quantizer and the integer kernel. `use_simd: true` silently falls
    /// back to scalar when AVX2 is unavailable (prefer
    /// [`crate::simd::simd_available`] to detect that case).
    pub fn matmul_f32_with(&self, x: &[f32], m: usize, use_simd: bool) -> Vec<f32> {
        let k = self.k;
        assert_eq!(x.len(), m * k, "quant matmul activation size mismatch");
        QMATMUL_OBS.calls.inc();
        QMATMUL_OBS.madds.add((m * k * self.n_out) as u64);
        let use_simd = use_simd && crate::simd::simd_available();
        let n = self.n_out;
        let mut out = vec![0.0f32; m * n];
        let mut scratch = ACT_SCRATCH.take();
        for r0 in (0..m).step_by(ROW_TILE) {
            let r1 = (r0 + ROW_TILE).min(m);
            let ActScratch { q, rows } = &mut scratch;
            q.resize((r1 - r0) * k, 0);
            rows.clear();
            for i in r0..r1 {
                let qi = &mut q[(i - r0) * k..(i - r0 + 1) * k];
                let xi = &x[i * k..(i + 1) * k];
                rows.push(quantize_activation_row_with(xi, qi, use_simd));
            }
            let dst = &mut out[r0 * n..r1 * n];
            #[cfg(target_arch = "x86_64")]
            if use_simd {
                // SAFETY: AVX2 presence checked via simd_available().
                unsafe { self.rows_avx2(q, rows, dst) };
                continue;
            }
            self.rows_scalar(q, rows, dst);
        }
        ACT_SCRATCH.set(scratch);
        out
    }

    /// Output `j` of one activation row from its exact integer dot
    /// product: the zero-point correction, then the one f32 rounding step
    /// both kernels share.
    #[inline]
    fn rescale(&self, acc: i32, (a_scale, a_zero): (f32, i32), j: usize) -> f32 {
        let corrected = acc - a_zero * self.row_sums[j];
        corrected as f32 * (a_scale * self.scales[j])
    }

    /// Scalar kernel: one [`qdot_scalar`] per output.
    fn rows_scalar(&self, qa: &[u8], rows: &[(f32, i32)], out: &mut [f32]) {
        let (k, n) = (self.k, self.n_out);
        for (i, &row) in rows.iter().enumerate() {
            let a = &qa[i * k..(i + 1) * k];
            for (j, d) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                *d = self.rescale(qdot_scalar(a, &self.data[j * k..(j + 1) * k]), row, j);
            }
        }
    }

    /// AVX2 kernel, register-blocked over four output channels and two
    /// activation rows: each widened weight chunk feeds two rows and each
    /// widened activation chunk four outputs. The outer loop walks output
    /// blocks so the block's weight rows stay hot while every activation
    /// row streams past them.
    ///
    /// # Safety
    /// The CPU must support AVX2. `qa` holds `rows.len()` rows of `k`
    /// bytes and `out` `rows.len()` rows of `n_out` (slicing checks both).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2(&self, qa: &[u8], rows: &[(f32, i32)], out: &mut [f32]) {
        let (k, n, m) = (self.k, self.n_out, rows.len());
        let act = |i: usize| &qa[i * k..(i + 1) * k];
        for j in (0..n).step_by(4) {
            let live = (n - j).min(4);
            // A partial last block repeats its last row; the extra lanes
            // are computed and dropped.
            let w: [&[i8]; 4] = std::array::from_fn(|r| {
                let jr = j + r.min(live - 1);
                &self.data[jr * k..(jr + 1) * k]
            });
            let cols = |i: usize| i * n + j..i * n + j + live;
            // SAFETY (all calls below): AVX2 per this function's contract;
            // every `act(i)` and weight row is `k` long, and each `dst`
            // spans outputs `j..j + live` with `j + live <= n`.
            for i in (0..m / 2 * 2).step_by(2) {
                let [acc0, acc1] = dot_block_avx2([act(i), act(i + 1)], w);
                self.store_block(acc0, rows[i], &mut out[cols(i)], j);
                self.store_block(acc1, rows[i + 1], &mut out[cols(i + 1)], j);
            }
            if m % 2 == 1 {
                let [acc] = dot_block_avx2([act(m - 1)], w);
                self.store_block(acc, rows[m - 1], &mut out[cols(m - 1)], j);
            }
        }
    }

    /// Rescales one row's block of up to four exact sums into `dst`
    /// (outputs `j..j + dst.len()`): a full block in one 4-lane vector,
    /// a partial one lane by lane through [`Self::rescale`].
    ///
    /// # Safety
    /// The CPU must support AVX2, and `j + dst.len() <= n_out` (the full
    /// block reads `row_sums` and `scales` at `j..j + 4` unchecked).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_block(
        &self,
        acc: std::arch::x86_64::__m128i,
        (a_scale, a_zero): (f32, i32),
        dst: &mut [f32],
        j: usize,
    ) {
        use std::arch::x86_64::*;
        if dst.len() == 4 {
            // SAFETY: the caller guarantees `j + 4 <= n_out`, the length
            // of `row_sums`, `scales` and (per row) `dst`'s span.
            let row_sums = _mm_loadu_si128(self.row_sums.as_ptr().add(j) as *const __m128i);
            let corrected = _mm_sub_epi32(acc, _mm_mullo_epi32(_mm_set1_epi32(a_zero), row_sums));
            let scale = _mm_mul_ps(
                _mm_set1_ps(a_scale),
                _mm_loadu_ps(self.scales.as_ptr().add(j)),
            );
            _mm_storeu_ps(
                dst.as_mut_ptr(),
                _mm_mul_ps(_mm_cvtepi32_ps(corrected), scale),
            );
        } else {
            let mut lanes = [0i32; 4];
            // SAFETY: `lanes` is 16 bytes, one unaligned i128 store.
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc);
            for (r, d) in dst.iter_mut().enumerate() {
                *d = self.rescale(lanes[r], (a_scale, a_zero), j + r);
            }
        }
    }
}

/// Quantizes one f32 activation row to asymmetric u8 into `q`, returning
/// `(scale, zero)` such that `x ≈ (q − zero) · scale`. The scalar
/// reference: [`quantize_activation_row_force`] is its AVX2 twin, and the
/// two agree bit for bit on every input.
pub fn quantize_activation_row(row: &[f32], q: &mut [u8]) -> (f32, i32) {
    debug_assert_eq!(row.len(), q.len());
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let Some((scale, zero)) = activation_params(lo, hi) else {
        q.iter_mut().for_each(|o| *o = 0);
        return (1.0, 0);
    };
    for (o, &x) in q.iter_mut().zip(row) {
        *o = quantize_one(x, scale, zero);
    }
    (scale, zero)
}

/// Forced-AVX2 activation quantizer; `None` when AVX2 is unavailable.
///
/// # Panics
/// If `row` and `q` differ in length (on an AVX2 host).
pub fn quantize_activation_row_force(row: &[f32], q: &mut [u8]) -> Option<(f32, i32)> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_available() {
        return Some(quantize_activation_row_with(row, q, true));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (row, q);
    None
}

/// The activation quantizer dispatched by `use_simd` (scalar when AVX2
/// is unavailable).
#[inline]
fn quantize_activation_row_with(row: &[f32], q: &mut [u8], use_simd: bool) -> (f32, i32) {
    #[cfg(target_arch = "x86_64")]
    if use_simd && crate::simd::simd_available() {
        // SAFETY: AVX2 presence checked just above.
        if let Some(params) = unsafe { quantize_activation_row_avx2(row, q) } {
            return params;
        }
    }
    let _ = use_simd;
    quantize_activation_row(row, q)
}

/// `(scale, zero)` for a row spanning `[lo, hi]`, or `None` for an empty
/// row (or non-finite garbage a caller should never produce), which
/// encodes as all-zero with identity scale. Shared by both quantizers.
#[inline]
fn activation_params(lo: f32, hi: f32) -> Option<(f32, i32)> {
    if !(lo.is_finite() && hi.is_finite()) {
        return None;
    }
    // The range must straddle zero so `zero` lands in [0, 255].
    let (lo, hi) = (lo.min(0.0), hi.max(0.0));
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let zero = (-lo / scale).round().clamp(0.0, 255.0) as i32;
    Some((scale, zero))
}

/// One activation element: `round(x / scale) + zero`, clamped to u8.
#[inline]
fn quantize_one(x: f32, scale: f32, zero: i32) -> u8 {
    ((x / scale).round() + zero as f32).clamp(0.0, 255.0) as u8
}

/// AVX2 twin of [`quantize_activation_row`], 16 elements per pass with a
/// scalar tail; `None` (nothing written) when the row holds a NaN. Every
/// step repeats the scalar IEEE operation (see the module docs).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_activation_row_avx2(row: &[f32], q: &mut [u8]) -> Option<(f32, i32)> {
    use std::arch::x86_64::*;
    // The vector loads and stores below index `row` and `q` unchecked.
    assert_eq!(
        row.len(),
        q.len(),
        "activation row and output lengths differ"
    );
    let n = row.len();
    let p = row.as_ptr();
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut nan = _mm256_setzero_ps();
    let body = n / 8 * 8;
    for c in (0..body).step_by(8) {
        // SAFETY: `c + 8 <= body <= n`.
        let v = _mm256_loadu_ps(p.add(c));
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
        nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
    }
    if _mm256_movemask_ps(nan) != 0 || row[body..].iter().any(|x| x.is_nan()) {
        return None;
    }
    let (mut lo_lanes, mut hi_lanes) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(lo_lanes.as_mut_ptr(), vlo);
    _mm256_storeu_ps(hi_lanes.as_mut_ptr(), vhi);
    let lo = lo_lanes
        .iter()
        .chain(&row[body..])
        .fold(f32::INFINITY, |m, &x| m.min(x));
    let hi = hi_lanes
        .iter()
        .chain(&row[body..])
        .fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let Some((scale, zero)) = activation_params(lo, hi) else {
        q.iter_mut().for_each(|o| *o = 0);
        return Some((1.0, 0));
    };

    let vscale = _mm256_set1_ps(scale);
    let vzero = _mm256_set1_ps(zero as f32);
    let sign = _mm256_set1_ps(-0.0);
    let (half, one, max_q) = (
        _mm256_set1_ps(0.5),
        _mm256_set1_ps(1.0),
        _mm256_set1_ps(255.0),
    );
    let fzero = _mm256_setzero_ps();
    // Eight lanes: round half away from zero, add the zero point, clamp
    // (max first, so a NaN quotient becomes 0), convert exactly to i32.
    let quantize8 = |x: __m256| -> __m256i {
        let y = _mm256_div_ps(x, vscale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(y);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(y, t));
        let away = _mm256_or_ps(_mm256_and_ps(y, sign), one);
        let bump = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, half), away);
        let v = _mm256_add_ps(_mm256_add_ps(t, bump), vzero);
        _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(v, fzero), max_q))
    };
    let wide = n / 16 * 16;
    for c in (0..wide).step_by(16) {
        // SAFETY: `c + 16 <= wide <= n == q.len()`.
        let a = quantize8(_mm256_loadu_ps(p.add(c)));
        let b = quantize8(_mm256_loadu_ps(p.add(c + 8)));
        // i32 → u16 packs interleave the 128-bit halves; undo that before
        // the u16 → u8 pack so bytes land in element order.
        let w = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packus_epi32(a, b));
        let bytes = _mm_packus_epi16(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
        _mm_storeu_si128(q.as_mut_ptr().add(c) as *mut __m128i, bytes);
    }
    for (o, &x) in q[wide..].iter_mut().zip(&row[wide..]) {
        *o = quantize_one(x, scale, zero);
    }
    Some((scale, zero))
}

/// Scalar twin of the int8 dot-product kernel, public for the
/// equivalence suite.
pub fn qdot_scalar(a: &[u8], w: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), w.len());
    a.iter()
        .zip(w.iter())
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

/// One output of the forced-AVX2 blocked kernel (all four lanes fed the
/// same weight row); `None` when AVX2 is unavailable.
///
/// # Panics
/// If `a` and `w` differ in length.
pub fn qdot_force(a: &[u8], w: &[i8]) -> Option<i32> {
    assert_eq!(a.len(), w.len(), "qdot operand lengths differ");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_available() {
        // SAFETY: feature presence checked above; lengths asserted equal.
        return Some(unsafe {
            std::arch::x86_64::_mm_cvtsi128_si32(dot_block_avx2([a], [w; 4])[0])
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, w);
    None
}

/// Int8 dot products of `R` activation rows against four weight rows,
/// as `R` vectors of four i32 lanes. Each 16-byte activation chunk is
/// widened u8→i16 once and each weight chunk i8→i16 once, then every
/// pair meets in a `vpmaddwd` (products ≤ 32385, pair sums ≤ 64770 —
/// exact in i32); one `hadd` tree per activation row reduces its four
/// accumulators, and a `k % 16` tail adds in scalar. Every step is exact
/// integer arithmetic, so each lane equals [`qdot_scalar`] for its pair.
///
/// # Safety
/// The CPU must support AVX2, and every slice in `a` and `w` must have
/// the same length (the chunk loads are unchecked).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_block_avx2<const R: usize>(
    a: [&[u8]; R],
    w: [&[i8]; 4],
) -> [std::arch::x86_64::__m128i; R] {
    use std::arch::x86_64::*;
    let k = w[0].len();
    debug_assert!(a.iter().all(|r| r.len() == k) && w.iter().all(|r| r.len() == k));
    let wide = k / 16 * 16;
    let mut acc = [[_mm256_setzero_si256(); 4]; R];
    for c in (0..wide).step_by(16) {
        // SAFETY: `c + 16 <= wide <= k`, every slice's length.
        let w16 =
            w.map(|r| _mm256_cvtepi8_epi16(_mm_loadu_si128(r.as_ptr().add(c) as *const __m128i)));
        for (row, acc) in a.iter().zip(acc.iter_mut()) {
            let a16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(row.as_ptr().add(c) as *const __m128i));
            for (acc, &w16) in acc.iter_mut().zip(&w16) {
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(a16, w16));
            }
        }
    }
    std::array::from_fn(|i| {
        let [s0, s1, s2, s3] = acc[i];
        // [t0 t1 t2 t3 | t0' t1' t2' t3'] after two hadd levels; fold halves.
        let h = _mm256_hadd_epi32(_mm256_hadd_epi32(s0, s1), _mm256_hadd_epi32(s2, s3));
        let sums = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
        if wide == k {
            return sums;
        }
        let tail = w.map(|r| qdot_scalar(&a[i][wide..], &r[wide..]));
        _mm_add_epi32(sums, _mm_loadu_si128(tail.as_ptr() as *const __m128i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rpt_rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn quantize_dequantize_roundtrip_error_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = init::normal(&[12, 40], 1.0, &mut rng);
        let q = QuantMatrix::quantize_rows(t.data(), 12, 40);
        let back = q.dequantize_rows();
        for (j, (row, brow)) in t
            .data()
            .chunks(40)
            .zip(back.chunks(40))
            .enumerate()
        {
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let step = max_abs / 127.0;
            for (&x, &y) in row.iter().zip(brow) {
                assert!(
                    (x - y).abs() <= step * 0.5 + 1e-6,
                    "row {j}: {x} became {y} (step {step})"
                );
            }
        }
    }

    #[test]
    fn transposed_quantization_matches_row_quantization_of_wt() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (k, n) = (9, 5);
        let w = init::normal(&[k, n], 1.0, &mut rng);
        // transpose by hand, quantize rows
        let mut wt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                wt[j * k + kk] = w.data()[kk * n + j];
            }
        }
        let a = QuantMatrix::quantize_transposed(w.data(), k, n);
        let b = QuantMatrix::quantize_rows(&wt, n, k);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.scales(), b.scales());
    }

    #[test]
    fn quant_matmul_approximates_f32_matmul() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (m, k, n) = (3, 32, 17);
        let x = init::normal(&[m, k], 1.0, &mut rng);
        let w = init::normal(&[k, n], 0.2, &mut rng);
        let exact = x.matmul2d(&w);
        let q = QuantMatrix::quantize_transposed(w.data(), k, n);
        let approx = q.matmul_f32(x.data(), m);
        let mut max_ref = 0.0f32;
        let mut max_err = 0.0f32;
        for (&e, &a) in exact.data().iter().zip(&approx) {
            max_ref = max_ref.max(e.abs());
            max_err = max_err.max((e - a).abs());
        }
        assert!(
            max_err <= max_ref * 0.05 + 0.05,
            "quant error {max_err} vs magnitude {max_ref}"
        );
    }

    #[test]
    fn scalar_and_forced_simd_dots_agree_exactly() {
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..200 {
            let k = 1 + (rng.gen::<u32>() as usize) % 130;
            let a: Vec<u8> = (0..k).map(|_| (rng.gen::<u32>() & 0xff) as u8).collect();
            let w: Vec<i8> = (0..k)
                .map(|_| ((rng.gen::<u32>() % 255) as i32 - 127) as i8)
                .collect();
            let s = qdot_scalar(&a, &w);
            if let Some(v) = qdot_force(&a, &w) {
                assert_eq!(s, v, "k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn forced_qdot_rejects_mismatched_lengths() {
        qdot_force(&[1; 32], &[1; 16]);
    }

    #[test]
    fn forced_quantizer_rejects_mismatched_lengths() {
        let r =
            std::panic::catch_unwind(|| quantize_activation_row_force(&[1.0; 32], &mut [0u8; 16]));
        assert!(r.is_err() || !crate::simd::simd_available());
    }

    #[test]
    fn extreme_operands_do_not_overflow() {
        // worst case: every product at maximum magnitude, long k
        let k = 4096;
        let a = vec![255u8; k];
        let w = vec![-127i8; k];
        let expect = -(255i64 * 127 * k as i64);
        assert_eq!(qdot_scalar(&a, &w) as i64, expect);
        if let Some(v) = qdot_force(&a, &w) {
            assert_eq!(v as i64, expect);
        }
    }

    #[test]
    fn activation_zero_point_represents_zero_exactly() {
        // rows that never cross zero still get an in-range zero point,
        // and a zero activation quantizes back to exactly zero
        let row = [2.0f32, 3.0, 4.0, 0.0];
        let mut q = [0u8; 4];
        let (scale, zero) = quantize_activation_row(&row, &mut q);
        assert!((0..=255).contains(&zero));
        let z = (q[3] as i32 - zero) as f32 * scale;
        assert_eq!(z, 0.0, "zero must survive quantization exactly");
    }

    #[test]
    fn from_parts_recomputes_row_sums() {
        let q = QuantMatrix::quantize_rows(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0], 2, 3);
        let rebuilt =
            QuantMatrix::from_parts(2, 3, q.weights().to_vec(), q.scales().to_vec());
        let x = [0.5f32, -1.5, 2.5, 1.0, 0.0, -1.0];
        let a = q.matmul_f32(&x, 2);
        let b = rebuilt.matmul_f32(&x, 2);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_inner_dim_yields_zeros_on_both_paths() {
        let q = QuantMatrix::from_parts(5, 0, vec![], vec![0.5; 5]);
        for use_simd in [false, true] {
            assert_eq!(q.matmul_f32_with(&[], 3, use_simd), vec![0.0; 15]);
        }
    }

    #[test]
    fn qmatmul_counters_record_calls_and_madds() {
        rpt_obs::set_metrics_enabled(true);
        let calls = rpt_obs::counter("tensor.qmatmul_calls");
        let madds = rpt_obs::counter("tensor.qmatmul_madds");
        let (c0, a0) = (calls.value(), madds.value());
        let q = QuantMatrix::quantize_rows(&[1.0; 15], 5, 3);
        q.matmul_f32(&[0.5; 6], 2);
        // other tests may run quantized matmuls concurrently
        assert!(calls.value() > c0);
        assert!(madds.value() - a0 >= 2 * 3 * 5);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_inner_dim_panics() {
        QuantMatrix::from_parts(1, QMATMUL_MAX_K + 1, vec![0; QMATMUL_MAX_K + 1], vec![1.0]);
    }
}
