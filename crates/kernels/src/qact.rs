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
fn code(v: f32, scale: f32, qmax: f32) -> i32 {
    (v / scale).round().clamp(-qmax, qmax) as i32
}

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
        let qmax = qmax(bits);
        assert!(!x.dims().is_empty(), "batch tensor needs a leading dim");
        let n = x.dims()[0];
        let stride = x.len().checked_div(n).unwrap_or(0);
        codes.clear();
        codes.resize(x.len(), 0);
        scales.clear();
        if stride == 0 {
            scales.resize(n, 1.0);
            return;
        }
        scales.extend(
            x.as_slice()
                .chunks_exact(stride)
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
        if padding == 0 {
            return Self::quantize_per_image_into(x, bits, codes, scales);
        }
        let qmax = qmax(bits);
        let d = x.dims();
        assert_eq!(d.len(), 4, "padded quantization needs [n, c, h, w]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let plane = c * (h + 2 * padding) * (w + 2 * padding);
        codes.clear();
        codes.resize(n * plane, 0);
        scales.clear();
        if c * h * w == 0 {
            scales.resize(n, 1.0);
            return;
        }
        for (b, slab) in x.as_slice().chunks_exact(c * h * w).enumerate() {
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
