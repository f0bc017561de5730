//! Integer activation planes.

use flight_tensor::Tensor;

/// The symmetric scale `max|x| / qmax` of one slab — `1.0` for an
/// all-zero slab, and NaN (the refusal marker) when the slab holds a
/// non-finite value.
///
/// The bit pattern of `|v|` orders like `|v|` itself, and every inf/NaN
/// pattern sorts above every finite one, so one integer max both finds
/// the maximum and detects non-finite input (a float max would silently
/// skip NaNs).
fn slab_scale(slab: &[f32], qmax: f32) -> f32 {
    let bits = slab
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
    if bits >= f32::INFINITY.to_bits() {
        f32::NAN
    } else if bits == 0 {
        1.0
    } else {
        f32::from_bits(bits) / qmax
    }
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

/// Entries of the per-image code map
/// [`QuantActivations::regrid_padded_into`] builds: every code of an
/// 8-bit grid, `-127..=127`.
const MAP_LEN: usize = 255;

/// The largest code magnitude of a `bits`-bit signed grid.
fn qmax(bits: u32) -> f32 {
    assert!(bits >= 2, "activation quantization needs at least 2 bits");
    ((1u32 << (bits - 1)) - 1) as f32
}

/// Quantizes `slab` into `codes` (same length) on its own scale and
/// returns the scale; a non-finite slab is refused — zero codes and a
/// NaN scale.
fn quantize_slab(slab: &[f32], qmax: f32, codes: &mut [i32]) -> f32 {
    let scale = slab_scale(slab, qmax);
    if scale.is_nan() {
        codes.fill(0);
    } else {
        for (c, &v) in codes.iter_mut().zip(slab) {
            *c = code(v, scale, qmax);
        }
    }
    scale
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
        let scale = quantize_slab(x.as_slice(), qmax(bits), &mut codes);
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
        let qmax = qmax(bits);
        codes.clear();
        codes.resize(x.len(), 0);
        quantize_slab(x, qmax, codes)
    }

    /// Quantizes each image of a `[n, …]` batch independently: image `b`
    /// gets its own scale `max|x_b| / (2^{bits−1} − 1)` in `scales[b]`,
    /// and its codes land in `codes[b·stride .. (b+1)·stride]` where
    /// `stride = x.len() / n`. Both buffers are cleared and refilled.
    ///
    /// Per-image scales make each image's integer pipeline independent of
    /// its batchmates, which is what lets the parallel engine split a
    /// batch across workers and still produce logits bit-identical to the
    /// sequential path (and to submitting the image alone).
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
        Self::quantize_images_into(x.as_slice(), x.dims()[0], bits, codes, scales);
    }

    /// [`quantize_per_image_into`](Self::quantize_per_image_into) over
    /// `n` images stored back to back in `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub(crate) fn quantize_images_into(
        x: &[f32],
        n: usize,
        bits: u32,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        let qmax = qmax(bits);
        let stride = x.len().checked_div(n).unwrap_or(0);
        codes.clear();
        codes.resize(x.len(), 0);
        scales.clear();
        if stride == 0 {
            scales.resize(n, 1.0);
            return;
        }
        scales.extend(
            x.chunks_exact(stride)
                .zip(codes.chunks_exact_mut(stride))
                .map(|(slab, dst)| quantize_slab(slab, qmax, dst)),
        );
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
        let dims = [d[0], d[1], d[2], d[3]];
        Self::quantize_padded_slice_into(x.as_slice(), dims, bits, padding, codes, scales);
    }

    /// [`quantize_padded_into`](Self::quantize_padded_into) over a
    /// `[n, c, h, w]` batch stored in `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `x` is not `n · c · h · w` long.
    pub(crate) fn quantize_padded_slice_into(
        x: &[f32],
        [n, c, h, w]: [usize; 4],
        bits: u32,
        padding: usize,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        assert_eq!(x.len(), n * c * h * w, "activations length mismatch");
        if padding == 0 {
            return Self::quantize_images_into(x, n, bits, codes, scales);
        }
        let qmax = qmax(bits);
        let plane = c * (h + 2 * padding) * (w + 2 * padding);
        codes.clear();
        codes.resize(n * plane, 0);
        scales.clear();
        if c * h * w == 0 {
            scales.resize(n, 1.0);
            return;
        }
        for (b, slab) in x.chunks_exact(c * h * w).enumerate() {
            let scale = slab_scale(slab, qmax);
            scales.push(scale);
            if scale.is_nan() {
                continue;
            }
            let img = &mut codes[b * plane..(b + 1) * plane];
            for (row, dst) in slab
                .chunks_exact(w)
                .zip(crate::lower::padded_rows(c, h, w, padding))
            {
                for (slot, &v) in img[dst..dst + w].iter_mut().zip(row) {
                    *slot = code(v, scale, qmax);
                }
            }
        }
    }

    /// Re-grids `n` images of codes — image `b` is `src[b·len ..]` on
    /// scale `src_scales[b]`, `len = c · h · w` — into the codes and scales
    /// that [`quantize_padded_into`](Self::quantize_padded_into) would
    /// produce from their dequantized values `c as f32 · s`, without
    /// materializing those floats: the engine's hand-off from one stage's
    /// requantized output to the next integer conv.
    ///
    /// Quantizing a dequantized slab depends on it only through its
    /// largest magnitude, which is `|c|max · s` (rounding is monotone and
    /// sign-symmetric), so each image's new scale is replayed exactly as
    /// `slab_scale([cmax · s])`. When that replays `s` bit for bit the
    /// codes are copied as they are; otherwise a per-image map over every
    /// 8-bit code, built with the very expression the float path
    /// evaluates, translates them (a refused replay zeroes them).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `src` is not `src_scales.len() · c · h · w`
    /// long.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn regrid_padded_into(
        src: &[i32],
        src_scales: &[f32],
        [c, h, w]: [usize; 3],
        bits: u32,
        padding: usize,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        let qmax = qmax(bits);
        let n = src_scales.len();
        let len = c * h * w;
        assert_eq!(src.len(), n * len, "codes length mismatch");
        let plane = c * (h + 2 * padding) * (w + 2 * padding);
        codes.clear();
        codes.resize(n * plane, 0);
        scales.clear();
        if len == 0 {
            scales.resize(n, 1.0);
            return;
        }
        let mut map = [0i32; MAP_LEN];
        for ((slab, &s), img) in src
            .chunks_exact(len)
            .zip(src_scales)
            .zip(codes.chunks_exact_mut(plane))
        {
            let cmax = slab.iter().fold(0u32, |m, c| m.max(c.unsigned_abs()));
            let scale = slab_scale(&[cmax as f32 * s], qmax);
            scales.push(scale);
            if scale.is_nan() {
                continue;
            }
            let copy = scale.to_bits() == s.to_bits();
            let mapped = !copy && (cmax as usize) <= MAP_LEN / 2;
            if mapped {
                for (k, slot) in map.iter_mut().enumerate() {
                    let c = k as i32 - (MAP_LEN / 2) as i32;
                    *slot = code(c as f32 * s, scale, qmax);
                }
            }
            // Unpadded images are one row.
            let (rows, row_h, row_w) = if padding == 0 { (1, 1, len) } else { (c, h, w) };
            for (row, dst) in slab
                .chunks_exact(row_w)
                .zip(crate::lower::padded_rows(rows, row_h, row_w, padding))
            {
                let dst = &mut img[dst..dst + row_w];
                if copy {
                    dst.copy_from_slice(row);
                } else if mapped {
                    for (slot, &v) in dst.iter_mut().zip(row) {
                        *slot = map[(v + (MAP_LEN / 2) as i32) as usize];
                    }
                } else {
                    for (slot, &v) in dst.iter_mut().zip(row) {
                        *slot = code(v as f32 * s, scale, qmax);
                    }
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{uniform, TensorRng};

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

    #[test]
    fn regrid_equals_quantizing_the_dequantized_codes() {
        let mut rng = TensorRng::seed(31);
        let (c, h, w) = (3, 4, 5);
        let len = c * h * w;
        // Scales as a quantizer produces them, plus the edge cases: a
        // refused image (NaN), an all-zero one (1.0), a zero scale, a
        // subnormal one, and one whose rail overflows to inf.
        let mut scales: Vec<f32> = uniform(&mut rng, &[48], 1e-3, 40.0)
            .as_slice()
            .iter()
            .map(|&m| slab_scale(&[m], 127.0))
            .collect();
        scales.extend([f32::NAN, 1.0, 0.0, 1e-42, f32::MAX / 127.0]);
        let n = scales.len();
        let mut codes = vec![0i32; n * len];
        let noise = uniform(&mut rng, &[n * len], -127.49, 127.49);
        for (b, img) in codes.chunks_exact_mut(len).enumerate() {
            let refused_or_zero = scales[b].is_nan() || b == 49;
            if !refused_or_zero {
                for (slot, &v) in img.iter_mut().zip(&noise.as_slice()[b * len..]) {
                    *slot = v.round() as i32;
                }
                // Alternate images reach the rail, as requantized
                // activations do.
                if b % 2 == 0 {
                    img[b % len] = if b % 4 == 0 { 127 } else { -127 };
                }
            }
        }
        let x = dequantized(&codes, &scales, &[n, c, h, w]);
        let (mut copied, mut mapped) = (0, 0);
        for padding in [0usize, 1, 2] {
            let (mut want, mut want_scales) = (Vec::new(), Vec::new());
            QuantActivations::quantize_padded_into(&x, 8, padding, &mut want, &mut want_scales);
            let (mut got, mut got_scales) = (vec![9; 2], vec![3.0]);
            QuantActivations::regrid_padded_into(
                &codes,
                &scales,
                [c, h, w],
                8,
                padding,
                &mut got,
                &mut got_scales,
            );
            let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_scales), bits(&want_scales), "padding {padding}");
            assert_eq!(got, want, "padding {padding}");
            for (s, t) in scales.iter().zip(&got_scales) {
                if s.to_bits() == t.to_bits() {
                    copied += 1;
                } else {
                    mapped += 1;
                }
            }
        }
        assert!(
            copied > 0 && mapped > 0,
            "both hand-offs ran: {copied}/{mapped}"
        );
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
