//! Integer activation planes.
//!
//! Every activation code the engine produces comes from [`code`]: the
//! quotient `v / scale`, clamped to `±qmax`, rounded half away from
//! zero. A [`Coder`] evaluates it over runs of values, eight lanes at a
//! time when the context's [`KernelPath`] allows: AVX2 intrinsics on
//! [`KernelPath::Avx2`], a portable `[f32; 8]` twin on
//! [`KernelPath::Portable`], one value at a time on
//! [`KernelPath::Scalar`] (so `FLIGHT_FORCE_SCALAR` rules every
//! vectorizer out). Tails shorter than a lane vector use [`code`].
//!
//! # Bit identity per lane
//!
//! Each lane evaluates the same IEEE operations as [`code`], in the same
//! order, under the same (default) rounding mode: `_mm256_div_ps` is a
//! correctly rounded divide — never a reciprocal estimate — exactly like
//! the scalar `/`; `min`/`max` against `±qmax` clamp every ordered
//! quotient exactly as `f32::clamp`; truncation, the `i32 → f32`
//! conversion of the truncated value and the subtraction that forms the
//! fraction are exact on the clamped range; and the two fraction
//! compares are the scalar ones. The scalar path differs only where the
//! hardware does: a NaN quotient (`0 / 0` under a scale that underflowed
//! to zero) makes `as i32` return 0 but `cvttps` return `i32::MIN`, so
//! the lanes first zero every unordered quotient, which then codes to 0;
//! and `cvttps` saturates to `i32::MIN` where `as i32` saturates to
//! `i32::MAX`, so grids with `qmax ≥ 2^31` (32-bit codes) stay scalar.
//! Re-gridded values `c as f32 · s` are formed the same way in the lanes
//! (`cvtdq2ps` rounds to nearest like `as f32`, then one IEEE multiply).
//! The unit tests pin every path against [`code`] with `assert_eq!`.

use flight_tensor::Tensor;

use crate::lower::{ImageCodes, PlaneBatch};
use crate::simd::{active_path, KernelPath, LANES};

/// The largest `|v|` of `slab` as a bit pattern (`0` when empty).
///
/// The bit pattern of `|v|` orders like `|v|` itself, and every inf/NaN
/// pattern sorts above every finite one, so one integer max both finds
/// the maximum and detects non-finite input (a float max would silently
/// skip NaNs).
fn max_abs_bits(slab: &[f32]) -> u32 {
    slab.iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff))
}

/// The symmetric scale of one slab from [`max_abs_bits`]:
/// `max|x| / qmax`, `1.0` for an all-zero slab, and NaN (the refusal
/// marker) when the slab holds a non-finite value.
fn scale_of(bits: u32, qmax: f32) -> f32 {
    if bits >= f32::INFINITY.to_bits() {
        f32::NAN
    } else if bits == 0 {
        1.0
    } else {
        f32::from_bits(bits) / qmax
    }
}

/// The symmetric scale of `slab` (see [`scale_of`]).
fn slab_scale(slab: &[f32], qmax: f32) -> f32 {
    scale_of(max_abs_bits(slab), qmax)
}

/// The code of `v` on the grid `scale`, clamped to `±qmax`. Callers
/// never pass a NaN scale: a refused slab keeps all-zero codes.
///
/// Bit-identical to `(v / scale).round().clamp(-qmax, qmax) as i32`
/// without the libm call: `qmax` is an integer, so clamping before
/// rounding gives the same code, and on the clamped range `x − trunc(x)`
/// is exact, so comparing that fraction with ±0.5 rounds half away from
/// zero exactly as `round` does. A NaN quotient clamps to NaN, truncates
/// to 0 and fails both comparisons, as `round` → `as i32` gives 0.
#[inline(always)]
fn code(v: f32, scale: f32, qmax: f32) -> i32 {
    let x = (v / scale).clamp(-qmax, qmax);
    let t = x as i32;
    let frac = x - t as f32;
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

/// [`code`] over eight lanes sharing one scale — the portable twin of
/// the AVX2 quantizer, written lane-wise for the compiler to vectorize
/// as far as the target allows.
#[inline(always)]
fn code_lanes(v: [f32; LANES], scale: f32, qmax: f32) -> [i32; LANES] {
    let mut out = [0; LANES];
    for (slot, v) in out.iter_mut().zip(v) {
        *slot = code(v, scale, qmax);
    }
    out
}

/// Entries of the per-image code map
/// [`QuantActivations::regrid_padded_into`] builds: every code of an
/// 8-bit grid, `-127..=127`.
const MAP_LEN: usize = 255;

/// The codes the map translates, `-127..=127` in order.
const MAP_KEYS: [i32; MAP_LEN] = {
    let mut keys = [0; MAP_LEN];
    let mut k = 0;
    while k < MAP_LEN {
        keys[k] = k as i32 - (MAP_LEN / 2) as i32;
        k += 1;
    }
    keys
};

/// The largest code magnitude of a `bits`-bit signed grid.
fn qmax(bits: u32) -> f32 {
    code_bound(bits) as f32
}

/// The largest code magnitude of a `bits`-bit signed grid, as an
/// integer: no code the quantizers here emit on that grid exceeds it,
/// which is the no-wrap bound the engine hands the lane runners.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub(crate) fn code_bound(bits: u32) -> u32 {
    assert!(bits >= 2, "activation quantization needs at least 2 bits");
    (1u32 << (bits - 1)) - 1
}

/// Evaluates [`code`] on one grid over runs of values, on the lanes a
/// [`KernelPath`] selects (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coder {
    path: KernelPath,
    /// The grid's largest code, [`code_bound`].
    bound: u32,
    /// `bound` as the clamp [`code`] takes.
    qmax: f32,
}

impl Coder {
    /// A coder for `bits`-bit codes on `path`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn new(path: KernelPath, bits: u32) -> Coder {
        let bound = code_bound(bits);
        let qmax = bound as f32;
        // `cvttps` saturates to i32::MIN where `as i32` gives i32::MAX.
        let path = if qmax < 2_147_483_648.0 {
            path
        } else {
            KernelPath::Scalar
        };
        Coder { path, bound, qmax }
    }

    /// The grid `slab` quantizes to: its scale (see [`scale_of`]) and
    /// the largest code magnitude on it — the code of the slab's largest
    /// `|x|`, because [`code`] is monotone and odd (`0` for a refused or
    /// all-zero slab). The next stage replays its scale from that bound
    /// instead of scanning the codes.
    fn grid(&self, slab: &[f32]) -> (f32, u32) {
        let bits = match self.path {
            #[cfg(target_arch = "x86_64")]
            // Safety: as in `floats`.
            KernelPath::Avx2 => unsafe { avx2::max_abs_bits(slab) },
            _ => max_abs_bits(slab),
        };
        let scale = scale_of(bits, self.qmax);
        let cmax = if scale.is_nan() {
            0
        } else {
            code(f32::from_bits(bits), scale, self.qmax).unsigned_abs()
        };
        (scale, cmax)
    }

    /// `dst[i] = code(src[i], scale)`.
    fn floats(&self, src: &[f32], scale: f32, dst: &mut [i32]) {
        debug_assert_eq!(src.len(), dst.len());
        let done = match self.path {
            #[cfg(target_arch = "x86_64")]
            // Safety: dispatch only selects Avx2 after
            // `is_x86_feature_detected!("avx2")`.
            KernelPath::Avx2 => unsafe { avx2::floats(src, scale, self.qmax, dst) },
            KernelPath::Scalar => 0,
            _ => {
                let full = src.len() - src.len() % LANES;
                for (d, v) in dst[..full]
                    .chunks_exact_mut(LANES)
                    .zip(src.chunks_exact(LANES))
                {
                    let v = v.try_into().expect("lane width");
                    d.copy_from_slice(&code_lanes(v, scale, self.qmax));
                }
                full
            }
        };
        for (c, &v) in dst[done..].iter_mut().zip(&src[done..]) {
            *c = code(v, scale, self.qmax);
        }
    }

    /// `dst[i] = code(src[i] as f32 · s, scale)`: codes on the grid `s`
    /// re-gridded to `scale` through their dequantized values.
    fn codes(&self, src: &[i32], s: f32, scale: f32, dst: &mut [i32]) {
        debug_assert_eq!(src.len(), dst.len());
        let done = match self.path {
            #[cfg(target_arch = "x86_64")]
            // Safety: as in `floats`.
            KernelPath::Avx2 => unsafe { avx2::codes(src, s, scale, self.qmax, dst) },
            KernelPath::Scalar => 0,
            _ => {
                let full = src.len() - src.len() % LANES;
                for (d, c) in dst[..full]
                    .chunks_exact_mut(LANES)
                    .zip(src.chunks_exact(LANES))
                {
                    let v = std::array::from_fn(|l| c[l] as f32 * s);
                    d.copy_from_slice(&code_lanes(v, scale, self.qmax));
                }
                full
            }
        };
        for (c, &v) in dst[done..].iter_mut().zip(&src[done..]) {
            *c = code(v as f32 * s, scale, self.qmax);
        }
    }
}

/// How [`QuantActivations::regrid_padded_into`] hands one image's codes
/// to the new grid. The map lives inline: a lane block holds eight of
/// these on the stack, and boxing would allocate on every forward.
#[allow(clippy::large_enum_variant)]
enum Regrid {
    /// The replayed scale is refused: all-zero codes.
    Zero,
    /// The scale replays bit for bit and the codes fit the grid.
    Copy,
    /// Every code is an 8-bit one: translated through this map of
    /// `-127..=127`.
    Map([i32; MAP_LEN]),
    /// Coded one by one from `c as f32 · s` on `scale`.
    Code { s: f32, scale: f32 },
}

/// One image's floats coded on its scale (a refused image codes to
/// zeros) — what [`QuantActivations::quantize_padded_slice_into`] hands
/// [`PlaneBatch::fill`].
struct Floats<'a> {
    x: &'a [f32],
    scale: f32,
    coder: Coder,
}

impl ImageCodes for Floats<'_> {
    fn write(&self, start: usize, dst: &mut [i32]) {
        if self.scale.is_nan() {
            dst.fill(0);
        } else {
            let x = &self.x[start..start + dst.len()];
            self.coder.floats(x, self.scale, dst);
        }
    }
}

/// One image's codes handed to a new grid — what
/// [`QuantActivations::regrid_padded_into`] hands [`PlaneBatch::fill`].
struct Regridded<'a> {
    src: &'a [i32],
    mode: Regrid,
    coder: Coder,
}

impl ImageCodes for Regridded<'_> {
    fn write(&self, start: usize, dst: &mut [i32]) {
        let src = &self.src[start..start + dst.len()];
        match &self.mode {
            Regrid::Zero => dst.fill(0),
            Regrid::Copy => dst.copy_from_slice(src),
            Regrid::Map(map) => {
                for (slot, &v) in dst.iter_mut().zip(src) {
                    *slot = map[(v + (MAP_LEN / 2) as i32) as usize];
                }
            }
            Regrid::Code { s, scale } => self.coder.codes(src, *s, *scale, dst),
        }
    }

    fn read<'s>(&'s self, start: usize, stage: &'s mut [i32]) -> &'s [i32] {
        if let Regrid::Copy = self.mode {
            return &self.src[start..start + stage.len()];
        }
        self.write(start, stage);
        stage
    }
}

/// Quantizes `slab` into `codes` (same length) on its own scale and
/// returns the scale and the largest code magnitude (see
/// [`Coder::grid`]); a non-finite slab is refused — zero codes and a
/// NaN scale.
fn quantize_slab(slab: &[f32], coder: Coder, codes: &mut [i32]) -> (f32, u32) {
    let (scale, cmax) = coder.grid(slab);
    if scale.is_nan() {
        codes.fill(0);
    } else {
        coder.floats(slab, scale, codes);
    }
    (scale, cmax)
}

/// A batch of activations quantized to signed integers with one shared
/// scale: `x ≈ data[i] · scale`.
///
/// Matches the semantics of `flightnn::layers::ActQuant` (symmetric,
/// per-tensor dynamic range), but keeps the integer codes so the integer
/// kernels can consume them directly.
///
/// # Non-finite input
///
/// Every quantizer here **refuses** a tensor (or, per image, a slab)
/// holding ±inf or NaN rather than deriving codes from a non-finite
/// scale: its codes are all zero and its scale is NaN. Everything
/// computed from a refused slab is therefore NaN — it can never pass
/// for a finite result — while per-image batchmates are unaffected.
///
/// # Example
///
/// ```
/// use flight_kernels::QuantActivations;
/// use flight_tensor::Tensor;
///
/// let x = Tensor::from_slice(&[1.0, -0.5, 0.25]);
/// let q = QuantActivations::quantize(&x, 8);
/// assert_eq!(q.codes()[0], 127);
/// let back = q.dequantize();
/// assert!(back.allclose(&x, 1.0 / 127.0));
///
/// let bad = QuantActivations::quantize(&Tensor::from_slice(&[1.0, f32::INFINITY]), 8);
/// assert!(bad.scale().is_nan());
/// assert_eq!(bad.codes(), &[0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantActivations {
    codes: Vec<i32>,
    scale: f32,
    dims: Vec<usize>,
}

impl QuantActivations {
    /// Quantizes a float tensor to `bits` (sign included) with a
    /// per-tensor scale `max|x| / (2^{bits−1} − 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn quantize(x: &Tensor, bits: u32) -> Self {
        let mut codes = vec![0; x.len()];
        let coder = Coder::new(active_path(), bits);
        let (scale, _) = quantize_slab(x.as_slice(), coder, &mut codes);
        QuantActivations {
            codes,
            scale,
            dims: x.dims().to_vec(),
        }
    }

    /// Quantizes one contiguous slab into a caller-owned code buffer and
    /// returns the scale. `codes` is cleared first, so a worker can reuse
    /// one buffer across stages without reallocating — the scratch-arena
    /// path of the batched execution engine.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn quantize_slice_into(x: &[f32], bits: u32, codes: &mut Vec<i32>) -> f32 {
        let coder = Coder::new(active_path(), bits);
        codes.clear();
        codes.resize(x.len(), 0);
        quantize_slab(x, coder, codes).0
    }

    /// Quantizes each image of a `[n, …]` batch independently: image `b`
    /// gets its own scale `max|x_b| / (2^{bits−1} − 1)` in `scales[b]`,
    /// and its codes land in `codes[b·stride .. (b+1)·stride]` where
    /// `stride = x.len() / n`. Both buffers are cleared and refilled.
    ///
    /// Per-image scales make each image's integer pipeline independent of
    /// its batchmates, so an image's logits are bit-identical whatever
    /// batch it is coalesced into (and to submitting it alone).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `x` has no dims.
    pub fn quantize_per_image_into(
        x: &Tensor,
        bits: u32,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        assert!(!x.dims().is_empty(), "batch tensor needs a leading dim");
        let coder = Coder::new(active_path(), bits);
        let n = x.dims()[0];
        Self::quantize_images_into(x.as_slice(), n, coder, codes, scales, &mut Vec::new());
    }

    /// [`quantize_per_image_into`](Self::quantize_per_image_into) over
    /// `n` images stored back to back in `x`, coded by `coder`; `cmax`
    /// receives each image's largest code magnitude (see
    /// [`Coder::grid`]), which [`regrid_padded_into`](Self::regrid_padded_into)
    /// takes instead of scanning the codes.
    pub(crate) fn quantize_images_into(
        x: &[f32],
        n: usize,
        coder: Coder,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
        cmax: &mut Vec<u32>,
    ) {
        let stride = x.len().checked_div(n).unwrap_or(0);
        codes.clear();
        codes.resize(x.len(), 0);
        scales.clear();
        cmax.clear();
        if stride == 0 {
            scales.resize(n, 1.0);
            cmax.resize(n, 0);
            return;
        }
        for (slab, dst) in x.chunks_exact(stride).zip(codes.chunks_exact_mut(stride)) {
            let (scale, top) = quantize_slab(slab, coder, dst);
            scales.push(scale);
            cmax.push(top);
        }
    }

    /// [`quantize_per_image_into`](Self::quantize_per_image_into) for a
    /// `[n, c, h, w]` batch, writing every image as a zero-padded
    /// `[c, h + 2·padding, w + 2·padding]` plane — the layout the lowered
    /// conv kernels read, so each conv stage pads once, while quantizing.
    /// Scales are per image and unaffected by the padding; the ring codes
    /// are exact zeros, so rail counts such as
    /// [`saturation_count`](Self::saturation_count) over the padded
    /// buffer equal those over the real codes.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `x` is not rank 4.
    pub fn quantize_padded_into(
        x: &Tensor,
        bits: u32,
        padding: usize,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        let d = x.dims();
        assert_eq!(d.len(), 4, "padded quantization needs [n, c, h, w]");
        let batch = PlaneBatch {
            dims: [d[1], d[2], d[3]],
            padding,
            n: d[0],
            path: KernelPath::Scalar,
        };
        let coder = Coder::new(active_path(), bits);
        Self::quantize_padded_slice_into(x.as_slice(), &batch, coder, codes, scales);
    }

    /// [`quantize_padded_into`](Self::quantize_padded_into) over the
    /// `batch.n` images stored back to back in `x`, written in `batch`'s
    /// layout (its lane-major images straight into their lane blocks)
    /// and coded by `coder`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `batch.n` images of `batch.dims` long.
    pub(crate) fn quantize_padded_slice_into(
        x: &[f32],
        batch: &PlaneBatch,
        coder: Coder,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        let (n, len) = (batch.n, batch.len());
        assert_eq!(x.len(), n * len, "activations length mismatch");
        codes.clear();
        codes.resize(n * batch.plane(), 0);
        scales.clear();
        if len == 0 {
            scales.resize(n, 1.0);
            return;
        }
        batch.fill(codes, |b| {
            let x = &x[b * len..(b + 1) * len];
            let (scale, _) = coder.grid(x);
            scales.push(scale);
            Floats { x, scale, coder }
        });
    }

    /// Re-grids `n` images of codes — image `b` is `src[b·len ..]` on
    /// scale `src_scales[b]` with largest magnitude `src_cmax[b]`, `len`
    /// the product of `batch.dims` — into the
    /// codes and scales that [`quantize_padded_into`](Self::quantize_padded_into)
    /// would produce from their dequantized values `c as f32 · s`,
    /// without materializing those floats, written in `batch`'s layout:
    /// the engine's hand-off from one stage's requantized output to the
    /// next integer conv.
    ///
    /// Quantizing a dequantized slab depends on it only through its
    /// largest magnitude, which is `cmax · s` (rounding is monotone and
    /// sign-symmetric), so each image's new scale is replayed exactly as
    /// `slab_scale([cmax · s])`. When that replays `s` bit for bit and
    /// the codes already fit this grid they are copied as they are;
    /// otherwise a per-image map over every 8-bit code, built with the
    /// very expression the float path evaluates, translates them (a
    /// refused replay zeroes them). Either way every code is within
    /// `±qmax`, the bound the lane runners rely on.
    ///
    /// # Panics
    ///
    /// Panics if `src_scales` or `src_cmax` does not hold `batch.n`
    /// entries or `src` is not `batch.n` images of `batch.dims` long.
    pub(crate) fn regrid_padded_into(
        src: &[i32],
        src_scales: &[f32],
        src_cmax: &[u32],
        batch: &PlaneBatch,
        coder: Coder,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        let (n, len) = (batch.n, batch.len());
        assert_eq!(src_scales.len(), n, "scales length mismatch");
        assert_eq!(src_cmax.len(), n, "cmax length mismatch");
        assert_eq!(src.len(), n * len, "codes length mismatch");
        codes.clear();
        codes.resize(n * batch.plane(), 0);
        scales.clear();
        if len == 0 {
            scales.resize(n, 1.0);
            return;
        }
        batch.fill(codes, |b| {
            let (s, cmax) = (src_scales[b], src_cmax[b]);
            let scale = slab_scale(&[cmax as f32 * s], coder.qmax);
            scales.push(scale);
            let mode = if scale.is_nan() {
                Regrid::Zero
            } else if scale.to_bits() == s.to_bits() && cmax <= coder.bound {
                Regrid::Copy
            } else if cmax as usize <= MAP_LEN / 2 {
                let mut map = [0; MAP_LEN];
                coder.codes(&MAP_KEYS, s, scale, &mut map);
                Regrid::Map(map)
            } else {
                Regrid::Code { s, scale }
            };
            Regridded {
                src: &src[b * len..(b + 1) * len],
                mode,
                coder,
            }
        });
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Counts codes sitting at the representable rail `±(2^{bits−1}−1)`.
    ///
    /// With a dynamic per-image scale the clamp in quantization never
    /// truncates — the max-magnitude value lands exactly on the rail —
    /// so this measures how much of the tensor is pinned at the extreme
    /// code, not how much was cut off. A high rail rate means the
    /// distribution has heavy tails relative to the grid (one outlier is
    /// stretching the scale), which is the activation-quantization
    /// failure mode `flightctl health` watches through the
    /// `kernel.qact.<stage>.saturated` counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn saturation_count(codes: &[i32], bits: u32) -> u64 {
        let qmax = qmax(bits) as i32;
        codes.iter().filter(|c| c.abs() >= qmax).count() as u64
    }

    /// The shared scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Original tensor dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Reconstructs the float tensor `codes · scale`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes.iter().map(|&c| c as f32 * self.scale).collect(),
            &self.dims,
        )
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 quantizer: [`code`](super::code) on eight lanes. Each
    //! function carries `#[target_feature(enable = "avx2")]` and must
    //! only be reached through the runtime-detected dispatch of
    //! [`Coder`](super::Coder).

    use core::arch::x86_64::*;

    use super::LANES;

    /// `code(v, scale, qmax)` per lane, `lo = −qmax`, `hi = qmax` (see
    /// the module docs of `qact` for the per-lane bit identity).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn code8(v: __m256, scale: __m256, lo: __m256, hi: __m256) -> __m256i {
        let x = _mm256_div_ps(v, scale);
        // A NaN quotient codes to 0: zero it, as `as i32` would.
        let x = _mm256_and_ps(x, _mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let t = _mm256_cvttps_epi32(x);
        let frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
        // All-ones compare masks are −1: subtracting `up` adds one,
        // adding `down` subtracts one.
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5)));
        let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(frac, _mm256_set1_ps(-0.5)));
        _mm256_add_epi32(_mm256_sub_epi32(t, up), down)
    }

    /// [`max_abs_bits`](super::max_abs_bits) on eight lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_abs_bits(src: &[f32]) -> u32 {
        let full = src.len() / LANES * LANES;
        let mask = _mm256_set1_epi32(0x7fff_ffff);
        let mut acc = _mm256_setzero_si256();
        for i in (0..full).step_by(LANES) {
            // SAFETY: `i + LANES <= full <= src.len()`.
            let v = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            acc = _mm256_max_epu32(acc, _mm256_and_si256(v, mask));
        }
        let mut lanes = [0u32; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        lanes
            .into_iter()
            .fold(super::max_abs_bits(&src[full..]), u32::max)
    }

    /// Codes the full lane vectors of `src` into `dst` (same length) on
    /// `scale`, returning how many values it coded.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn floats(src: &[f32], scale: f32, qmax: f32, dst: &mut [i32]) -> usize {
        let full = src.len().min(dst.len()) / LANES * LANES;
        let (scale, lo, hi) = (
            _mm256_set1_ps(scale),
            _mm256_set1_ps(-qmax),
            _mm256_set1_ps(qmax),
        );
        for i in (0..full).step_by(LANES) {
            // SAFETY: `i + LANES <= full`, within both slices.
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let c = code8(v, scale, lo, hi);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, c);
        }
        full
    }

    /// Codes the full lane vectors of `src · s` into `dst` (same length)
    /// on `scale`, returning how many values it coded.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn codes(
        src: &[i32],
        s: f32,
        scale: f32,
        qmax: f32,
        dst: &mut [i32],
    ) -> usize {
        let full = src.len().min(dst.len()) / LANES * LANES;
        let (s, scale, lo, hi) = (
            _mm256_set1_ps(s),
            _mm256_set1_ps(scale),
            _mm256_set1_ps(-qmax),
            _mm256_set1_ps(qmax),
        );
        for i in (0..full).step_by(LANES) {
            // SAFETY: `i + LANES <= full`, within both slices.
            let c = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let v = _mm256_mul_ps(_mm256_cvtepi32_ps(c), s);
            let c = code8(v, scale, lo, hi);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, c);
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{uniform, TensorRng};
    use proptest::prelude::*;

    #[test]
    fn round_trip_error_is_within_half_step() {
        let mut rng = TensorRng::seed(1);
        let x = uniform(&mut rng, &[2, 3, 4, 4], -2.0, 2.0);
        let q = QuantActivations::quantize(&x, 8);
        let back = q.dequantize();
        let step = q.scale();
        for (&a, &b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn codes_stay_in_range() {
        let mut rng = TensorRng::seed(2);
        let x = uniform(&mut rng, &[64], -5.0, 5.0);
        for bits in [2u32, 4, 8] {
            let q = QuantActivations::quantize(&x, bits);
            let qmax = (1i32 << (bits - 1)) - 1;
            assert!(q.codes().iter().all(|&c| c.abs() <= qmax));
        }
    }

    #[test]
    fn matches_flightnn_act_quant() {
        use flight_nn::Layer;
        let mut rng = TensorRng::seed(3);
        let x = uniform(&mut rng, &[32], -1.5, 1.5);
        let mut aq = flightnn::layers::ActQuant::new(8);
        let reference = aq.forward(&x, false);
        let q = QuantActivations::quantize(&x, 8).dequantize();
        assert!(q.allclose(&reference, 1e-6));
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = QuantActivations::quantize(&Tensor::zeros(&[4]), 8);
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn slice_into_matches_quantize_and_reuses_buffer() {
        let mut rng = TensorRng::seed(11);
        let x = uniform(&mut rng, &[1, 3, 4, 4], -1.5, 1.5);
        let reference = QuantActivations::quantize(&x, 8);
        let mut codes = vec![99; 3]; // stale garbage must be cleared
        let scale = QuantActivations::quantize_slice_into(x.as_slice(), 8, &mut codes);
        assert_eq!(scale, reference.scale());
        assert_eq!(codes, reference.codes());
    }

    #[test]
    fn per_image_matches_quantizing_each_image_alone() {
        let mut rng = TensorRng::seed(12);
        let x = uniform(&mut rng, &[3, 2, 4, 4], -2.0, 2.0);
        let mut codes = Vec::new();
        let mut scales = Vec::new();
        QuantActivations::quantize_per_image_into(&x, 8, &mut codes, &mut scales);
        assert_eq!(scales.len(), 3);
        assert_eq!(codes.len(), x.len());
        let stride = x.len() / 3;
        for b in 0..3 {
            let img = Tensor::from_vec(x.outer(b).to_vec(), &[1, 2, 4, 4]);
            let solo = QuantActivations::quantize(&img, 8);
            assert_eq!(scales[b], solo.scale(), "image {b} scale");
            assert_eq!(
                &codes[b * stride..(b + 1) * stride],
                solo.codes(),
                "image {b} codes"
            );
        }
    }

    #[test]
    fn saturation_counts_codes_at_the_rail() {
        // Dynamic scale: the max-magnitude element always sits on the
        // rail, so a well-spread tensor has exactly the extremes there.
        let x = Tensor::from_slice(&[1.0, -1.0, 0.5, 0.25, 0.0]);
        let q = QuantActivations::quantize(&x, 8);
        assert_eq!(QuantActivations::saturation_count(q.codes(), 8), 2);
        // A heavy-tailed tensor pins only its outlier.
        let y = Tensor::from_slice(&[100.0, 0.1, 0.2, 0.05]);
        let qy = QuantActivations::quantize(&y, 8);
        assert_eq!(QuantActivations::saturation_count(qy.codes(), 8), 1);
        // All-zero codes never saturate.
        let z = QuantActivations::quantize(&Tensor::zeros(&[4]), 8);
        assert_eq!(QuantActivations::saturation_count(z.codes(), 8), 0);
        // At 2 bits the rail is ±1, so most nonzero codes sit on it.
        let q2 = QuantActivations::quantize(&x, 2);
        assert_eq!(QuantActivations::saturation_count(q2.codes(), 2), 3);
    }

    /// The libm expression `code` replaces.
    fn std_code(v: f32, scale: f32, qmax: f32) -> i32 {
        (v / scale).round().clamp(-qmax, qmax) as i32
    }

    #[test]
    fn code_rounds_every_half_and_its_neighbours_like_std() {
        let up = |v: f32| f32::from_bits(v.to_bits().wrapping_add(1));
        let down = |v: f32| f32::from_bits(v.to_bits().wrapping_sub(1));
        for qmax in [1.0f32, 7.0, 127.0, 32767.0] {
            let q = qmax as i32;
            for k in -q - 1..=q + 1 {
                for h in [-0.5f32, 0.0, 0.5] {
                    let v = k as f32 + h;
                    // `from_bits(±1)` steps away from or toward zero by
                    // sign; both directions are covered either way.
                    for probe in [down(v), v, up(v)] {
                        assert_eq!(
                            code(probe, 1.0, qmax),
                            std_code(probe, 1.0, qmax),
                            "v {probe:e} qmax {qmax}"
                        );
                    }
                }
            }
        }
        for v in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert_eq!(code(v, 1.0, 127.0), std_code(v, 1.0, 127.0), "v {v}");
        }
        assert_eq!(code(1.0, 0.0, 127.0), 127, "a zero scale saturates");
        assert_eq!(code(0.0, 0.0, 127.0), 0, "0/0 is NaN and codes to 0");
    }

    #[test]
    fn code_matches_std_over_a_strided_sweep_of_f32_bit_patterns() {
        for scale in [1.0f32, 0.37, 1.5e-3, 2.6e38, 1e-40] {
            for qmax in [127.0f32, 7.0] {
                for bits in (0..=u32::MAX).step_by(65_537) {
                    let v = f32::from_bits(bits);
                    assert_eq!(
                        code(v, scale, qmax),
                        std_code(v, scale, qmax),
                        "v {v:e} ({bits:#x}) scale {scale:e} qmax {qmax}"
                    );
                }
            }
        }
    }

    /// `codes · scale` per image as the float batch a requant stage
    /// used to hand on.
    fn dequantized(codes: &[i32], scales: &[f32], dims: &[usize]) -> Tensor {
        let per = codes.len() / scales.len();
        let data = codes
            .chunks_exact(per)
            .zip(scales)
            .flat_map(|(img, &s)| img.iter().map(move |&c| c as f32 * s))
            .collect();
        Tensor::from_vec(data, dims)
    }

    /// Every quantizer path this host can run.
    fn paths() -> Vec<KernelPath> {
        let mut paths = vec![KernelPath::Scalar, KernelPath::Portable];
        if crate::simd::cpu_features().avx2 {
            paths.push(KernelPath::Avx2);
        }
        paths
    }

    /// A batch buffer with `lane_images` lane-major images, read back
    /// image-major.
    fn image_major(codes: &[i32], plane: usize, lane_images: usize) -> Vec<i32> {
        let n = codes.len() / plane.max(1);
        (0..n)
            .flat_map(|b| {
                let (base, step) = crate::simd::lane_slot(b, plane, lane_images);
                (0..plane).map(move |off| codes[base + off * step])
            })
            .collect()
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn regrid_equals_quantizing_the_dequantized_codes() {
        let mut rng = TensorRng::seed(31);
        let (c, h, w) = (3, 4, 5);
        let len = c * h * w;
        // The edge cases first, so they land in lane blocks: a refused
        // image (NaN), an all-zero one (1.0), a zero scale, a subnormal
        // one, and one whose rail overflows to inf; then scales as a
        // quantizer produces them.
        let mut scales = vec![f32::NAN, 1.0, 0.0, 1e-42, f32::MAX / 127.0];
        scales.extend(
            uniform(&mut rng, &[48], 1e-3, 40.0)
                .as_slice()
                .iter()
                .map(|&m| slab_scale(&[m], 127.0)),
        );
        let n = scales.len();
        let mut codes = vec![0i32; n * len];
        let noise = uniform(&mut rng, &[n * len], -127.49, 127.49);
        for (b, img) in codes.chunks_exact_mut(len).enumerate() {
            if scales[b].is_nan() || b == 1 {
                continue;
            }
            for (slot, &v) in img.iter_mut().zip(&noise.as_slice()[b * len..]) {
                *slot = v.round() as i32;
            }
            // Alternate images reach the rail, as requantized
            // activations do; every fifth carries 16-bit codes, which
            // no 8-bit map covers.
            if b % 2 == 0 {
                img[b % len] = if b % 4 == 0 { 127 } else { -127 };
            }
            if b % 5 == 3 {
                img[(b + 1) % len] = 9000;
            }
        }
        let x = dequantized(&codes, &scales, &[n, c, h, w]);
        let cmax: Vec<u32> = codes
            .chunks_exact(len)
            .map(|img| img.iter().map(|c| c.unsigned_abs()).max().unwrap())
            .collect();
        let (mut copied, mut mapped, mut slow) = (0, 0, 0);
        for b in 0..n {
            let cmax = cmax[b];
            let replay = slab_scale(&[cmax as f32 * scales[b]], 127.0);
            if replay.is_nan() {
                continue;
            }
            match (
                replay.to_bits() == scales[b].to_bits() && cmax <= 127,
                cmax <= 127,
            ) {
                (true, _) => copied += 1,
                (false, true) => mapped += 1,
                (false, false) => slow += 1,
            }
        }
        assert!(
            copied > 0 && mapped > 0 && slow > 0,
            "every hand-off runs: {copied}/{mapped}/{slow}"
        );
        for padding in [0usize, 1, 2] {
            let (mut want, mut want_scales) = (Vec::new(), Vec::new());
            QuantActivations::quantize_padded_into(&x, 8, padding, &mut want, &mut want_scales);
            for path in paths() {
                for layout in [KernelPath::Scalar, path] {
                    let batch = PlaneBatch {
                        dims: [c, h, w],
                        padding,
                        n,
                        path: layout,
                    };
                    let lane_images = batch.lane_images();
                    let (mut got, mut got_scales) = (vec![9; 2], vec![3.0]);
                    QuantActivations::regrid_padded_into(
                        &codes,
                        &scales,
                        &cmax,
                        &batch,
                        Coder::new(path, 8),
                        &mut got,
                        &mut got_scales,
                    );
                    let case = format!("padding {padding} {path} lanes {lane_images}");
                    assert_eq!(bits_of(&got_scales), bits_of(&want_scales), "{case}");
                    assert_eq!(
                        image_major(&got, batch.plane(), lane_images),
                        want,
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn regrid_never_copies_codes_off_the_new_grid() {
        // On a one-ulp scale, codes up to 10 replay that very scale on a
        // 4-bit grid (10 ulps / 7 rounds back to one ulp), yet 10 is off
        // that grid: the codes must be re-coded (clamped to 7), exactly
        // as quantizing their dequantized values does — never copied.
        let s = f32::from_bits(1);
        let codes = [10, -3, 7, 0, 9, -10];
        assert_eq!(slab_scale(&[10.0 * s], qmax(4)).to_bits(), s.to_bits());
        let x = dequantized(&codes, &[s], &[1, 1, 2, 3]);
        let (mut want, mut want_scales) = (Vec::new(), Vec::new());
        QuantActivations::quantize_padded_into(&x, 4, 1, &mut want, &mut want_scales);
        for path in paths() {
            let batch = PlaneBatch {
                dims: [1, 2, 3],
                padding: 1,
                n: 1,
                path: KernelPath::Scalar,
            };
            let (mut got, mut got_scales) = (Vec::new(), Vec::new());
            QuantActivations::regrid_padded_into(
                &codes,
                &[s],
                &[10],
                &batch,
                Coder::new(path, 4),
                &mut got,
                &mut got_scales,
            );
            assert_eq!(bits_of(&got_scales), bits_of(&want_scales), "{path}");
            assert_eq!(got, want, "{path}");
            assert!(got.iter().all(|c| c.abs() <= 7), "{path}: {got:?}");
        }
    }

    #[test]
    fn padded_quantization_writes_lane_blocks_in_place() {
        let mut rng = TensorRng::seed(32);
        let x = uniform(&mut rng, &[19, 2, 3, 4], -3.0, 3.0);
        for padding in [0usize, 1, 2] {
            let (mut want, mut want_scales) = (Vec::new(), Vec::new());
            QuantActivations::quantize_padded_into(&x, 8, padding, &mut want, &mut want_scales);
            for path in paths() {
                let batch = PlaneBatch {
                    dims: [2, 3, 4],
                    padding,
                    n: 19,
                    path,
                };
                let (mut got, mut got_scales) = (Vec::new(), Vec::new());
                QuantActivations::quantize_padded_slice_into(
                    x.as_slice(),
                    &batch,
                    Coder::new(path, 8),
                    &mut got,
                    &mut got_scales,
                );
                assert_eq!(bits_of(&got_scales), bits_of(&want_scales), "{path}");
                let lanes = batch.lane_images();
                assert_eq!(lanes, if path == KernelPath::Scalar { 0 } else { 16 });
                assert_eq!(image_major(&got, batch.plane(), lanes), want, "{path}");
            }
        }
    }

    /// Codes `values` on every lane quantizer and asserts each equals
    /// [`code`], value by value.
    fn assert_lanes_match_code(values: &[f32], scale: f32, bits: u32) {
        let qmax = qmax(bits);
        let want: Vec<i32> = values.iter().map(|&v| code(v, scale, qmax)).collect();
        for path in paths() {
            let mut got = vec![0; values.len()];
            Coder::new(path, bits).floats(values, scale, &mut got);
            assert_eq!(got, want, "{path} scale {scale:e} bits {bits}");
        }
    }

    #[test]
    fn lane_quantizers_match_code_over_a_strided_sweep_of_f32_bit_patterns() {
        let values: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        let ints: Vec<i32> = (0..=u32::MAX).step_by(65_537).map(|b| b as i32).collect();
        for scale in [1.0f32, 0.37, 1.5e-3, 2.6e38, 1e-40, 0.0] {
            for bits in [2u32, 4, 8, 16] {
                assert_lanes_match_code(&values, scale, bits);
                // Re-gridding: `c as f32 · s` on the lanes too.
                let qmax = qmax(bits);
                for s in [1.0f32, 3.1e-3, 1e-42] {
                    let want: Vec<i32> = ints
                        .iter()
                        .map(|&c| code(c as f32 * s, scale, qmax))
                        .collect();
                    for path in paths() {
                        let mut got = vec![0; ints.len()];
                        Coder::new(path, bits).codes(&ints, s, scale, &mut got);
                        assert_eq!(got, want, "{path} s {s:e} scale {scale:e} bits {bits}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_quantizers_round_every_half_and_its_neighbours_like_code() {
        let up = |v: f32| f32::from_bits(v.to_bits().wrapping_add(1));
        let down = |v: f32| f32::from_bits(v.to_bits().wrapping_sub(1));
        for bits in [2u32, 4, 8, 16] {
            let q = qmax(bits) as i32;
            let mut values = Vec::new();
            for k in -q - 1..=q + 1 {
                for h in [-0.5f32, 0.0, 0.5] {
                    let v = k as f32 + h;
                    values.extend([down(v), v, up(v)]);
                }
            }
            values.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
            assert_lanes_match_code(&values, 1.0, bits);
            // A zero scale saturates nonzero values and codes 0/0 to 0.
            assert_lanes_match_code(&values, 0.0, bits);
        }
    }

    #[test]
    fn lane_quantizers_match_scalar_on_every_tail_and_refusal() {
        let mut rng = TensorRng::seed(33);
        for bits in [2u32, 4, 8, 16] {
            for len in 1..=17 {
                let x = uniform(&mut rng, &[len], -5.0, 5.0);
                let mut refused = x.as_slice().to_vec();
                refused[len / 2] = if len % 2 == 0 {
                    f32::NAN
                } else {
                    f32::INFINITY
                };
                for slab in [x.as_slice(), &refused[..]] {
                    let mut want = vec![7; len];
                    let scalar = Coder::new(KernelPath::Scalar, bits);
                    let (want_scale, want_cmax) = quantize_slab(slab, scalar, &mut want);
                    let scanned = want.iter().map(|c| c.unsigned_abs()).max().unwrap();
                    assert_eq!(want_cmax, scanned, "the grid's bound is the codes' max");
                    for path in paths() {
                        let mut got = vec![7; len];
                        let (scale, cmax) = quantize_slab(slab, Coder::new(path, bits), &mut got);
                        let case = format!("{path} bits {bits} len {len}");
                        assert_eq!(scale.to_bits(), want_scale.to_bits(), "{case}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(cmax, want_cmax, "{case}");
                    }
                }
                let coder = Coder::new(KernelPath::Portable, bits);
                let (scale, cmax) = quantize_slab(&refused, coder, &mut vec![0; len]);
                assert!(scale.is_nan() && cmax == 0, "refused");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every code producer the engine feeds a conv core from —
        /// padded quantization, regrid (copy, map and slow paths) and
        /// requantization — stays within `±code_bound(bits)` on every
        /// path and layout, whatever the values: the no-wrap bound the
        /// lane runners take from the clamp.
        #[test]
        fn every_code_producer_stays_within_the_grid(
            bits in 2u32..=16,
            src_bits in 2u32..=16,
            which in 0usize..3,
            n in 1usize..=17,
            padding in 0usize..=2,
            exp in -140i32..=120,
            seed in 0u64..1 << 32,
        ) {
            let path = [KernelPath::Scalar, KernelPath::Portable, active_path()][which];
            let bound = code_bound(bits) as i32;
            let within = |codes: &[i32]| codes.iter().all(|c| c.abs() <= bound);
            let mut rng = TensorRng::seed(seed);
            let (c, h, w) = (2, 3, 3);
            let mag = (exp as f32).exp2();
            let x = uniform(&mut rng, &[n, c, h, w], -mag, mag);
            let batch = PlaneBatch { dims: [c, h, w], padding, n, path };
            let coder = Coder::new(path, bits);
            let (mut codes, mut scales) = (Vec::new(), Vec::new());
            QuantActivations::quantize_padded_slice_into(
                x.as_slice(), &batch, coder, &mut codes, &mut scales,
            );
            prop_assert!(within(&codes), "quantize_padded");
            let mut cmax = Vec::new();
            QuantActivations::quantize_images_into(
                x.as_slice(), n, coder, &mut codes, &mut scales, &mut cmax,
            );
            prop_assert!(within(&codes), "requant");
            let len = c * h * w;
            for (img, &top) in codes.chunks_exact(len).zip(&cmax) {
                let scanned = img.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
                prop_assert_eq!(top, scanned);
            }
            // Codes on a `src_bits` grid, some on its rail, re-gridded.
            let src_bound = code_bound(src_bits) as i32;
            let src: Vec<i32> = uniform(&mut rng, &[n * c * h * w], -1.0, 1.0)
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &u)| if i % 7 == 0 { src_bound } else { (u * src_bound as f32) as i32 })
                .collect();
            let src_scales: Vec<f32> = uniform(&mut rng, &[n], 0.5, 2.0)
                .as_slice()
                .iter()
                .map(|&u| u * mag)
                .collect();
            let src_cmax: Vec<u32> = src
                .chunks_exact(len)
                .map(|img| img.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0))
                .collect();
            QuantActivations::regrid_padded_into(
                &src, &src_scales, &src_cmax, &batch, coder, &mut codes, &mut scales,
            );
            prop_assert!(within(&codes), "regrid from {} bits", src_bits);
        }
    }

    #[test]
    fn per_image_handles_empty_batch_and_zero_images() {
        let mut codes = vec![1, 2];
        let mut scales = vec![0.5];
        QuantActivations::quantize_per_image_into(
            &Tensor::zeros(&[0, 2, 2]),
            8,
            &mut codes,
            &mut scales,
        );
        assert!(codes.is_empty());
        assert!(scales.is_empty());
        QuantActivations::quantize_per_image_into(
            &Tensor::zeros(&[2, 3]),
            8,
            &mut codes,
            &mut scales,
        );
        assert_eq!(scales, vec![1.0, 1.0], "all-zero images keep scale 1");
        assert!(codes.iter().all(|&c| c == 0));
    }
}
