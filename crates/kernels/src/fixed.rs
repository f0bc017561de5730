//! Fixed-point convolution with true integer multiplies.
//!
//! Like the shift-add path (`shift.rs`), the interpreted tap loop is
//! lowered once per [`Conv2dGeometry`] into a static schedule: per-tap
//! flat offsets into the zero-padded input plane `[c, h + 2p, w + 2p]`
//! precomputed in `(channel, row, column)` order, so every output
//! position — border ring included — runs one branchless
//! load → multiply → accumulate loop, and op accounting hoisted out of
//! the loops (a one-time per-geometry count of the taps on real input).
//! The interpreted loop is retained as [`fixed_point_conv_reference`] —
//! the parity oracle and bench baseline. The fixed-point cost convention
//! is unchanged: one integer multiply and one accumulate per executed
//! tap (see [`OpCounts`]).

use std::sync::{Arc, Mutex};

use flight_tensor::{Conv2dGeometry, Tensor};

use crate::counts::OpCounts;
use crate::lower::{executed_taps, interior_rect, pad_planes, PaddedPlane, Sweep};
use crate::qact::QuantActivations;
use crate::shift::LoweringStats;
use crate::simd::{active_path, lane_images, run_fixed_block, KernelPath, LANES};

type LoweredCache = Arc<Mutex<Vec<(Conv2dGeometry, Arc<LoweredFixed>)>>>;

/// Fixed-point weights: integer codes plus one per-layer scale,
/// `w ≈ codes · scale`, codes in `±(2^{bits−1} − 1)`.
#[derive(Debug, Clone)]
pub struct FixedWeights {
    codes: Vec<i32>,
    scale: f32,
    dims: Vec<usize>,
    /// Geometry-keyed lowered programs, shared across clones (and
    /// therefore across the parallel engine's workers).
    lowered: LoweredCache,
}

// The lowering cache is derived state; equality is about the weights.
impl PartialEq for FixedWeights {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes && self.scale == other.scale && self.dims == other.dims
    }
}

impl FixedWeights {
    /// Quantizes float weights symmetrically to `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `weights` is not rank 4.
    pub fn quantize(weights: &Tensor, bits: u32) -> Self {
        assert!(bits >= 2, "fixed point needs at least 2 bits");
        assert_eq!(weights.shape().rank(), 4, "weights must be [f, c, k, k]");
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        let max = weights.abs_max();
        let scale = if max == 0.0 { 1.0 } else { max / qmax };
        FixedWeights {
            codes: weights
                .as_slice()
                .iter()
                .map(|&w| (w / scale).round().clamp(-qmax, qmax) as i32)
                .collect(),
            scale,
            dims: weights.dims().to_vec(),
            lowered: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The float weights these codes represent.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes.iter().map(|&c| c as f32 * self.scale).collect(),
            &self.dims,
        )
    }

    /// Weight tensor dims `[f, c, k, k]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The interior/border split of `geom` plus these weights' tap totals
    /// (forces the lowering, which is cached). For the dense fixed-point
    /// path every filter has `c · k · k` taps.
    pub fn lowering_stats(&self, geom: &Conv2dGeometry) -> LoweringStats {
        self.lowered(geom);
        let (f, c, kh, kw) = (self.dims[0], self.dims[1], self.dims[2], self.dims[3]);
        let interior_positions = interior_rect(geom).positions();
        LoweringStats {
            interior_positions,
            border_positions: geom.out_positions() - interior_positions,
            total_taps: f * c * kh * kw,
            filters: f,
        }
    }

    /// The path a conv call over `geom` runs for `n` images whose codes
    /// are all within `±bound`, when `requested` is asked for (see
    /// `ShiftKernel::lane_path`).
    pub(crate) fn lane_path(
        &self,
        geom: &Conv2dGeometry,
        requested: KernelPath,
        n: usize,
        bound: u32,
    ) -> KernelPath {
        self.lowered(geom).lane_path(requested, n, bound)
    }

    /// The lowered program for `geom`, building and caching it on first
    /// use.
    fn lowered(&self, geom: &Conv2dGeometry) -> Arc<LoweredFixed> {
        let mut cache = self.lowered.lock().expect("lowering cache poisoned");
        if let Some((_, program)) = cache.iter().find(|(g, _)| g == geom) {
            return program.clone();
        }
        let program = Arc::new(LoweredFixed::build(self, geom));
        cache.push((*geom, program.clone()));
        program
    }
}

/// [`FixedWeights`] lowered against one concrete geometry.
#[derive(Debug)]
struct LoweredFixed {
    plane: PaddedPlane,
    sweep: Sweep,
    /// Per tap of one filter volume (`c · k · k` entries, in weight
    /// order): flat offset into the padded plane relative to the window
    /// origin. Dense weights share one offset table across filters.
    offsets: Vec<u32>,
    /// Per-image op totals; the fixed convention is one multiply and one
    /// add per executed tap, so the two counts are equal.
    macs_per_image: u64,
    /// Worst-case per-filter magnitude multiplier `max_f Σ_taps |w|`: an
    /// accumulator is bounded by `bound · lane_weight` for codes within
    /// `±bound`, which must fit i32 for the lane path to match the
    /// scalar i64 accumulation bit-for-bit.
    lane_weight: u64,
}

impl LoweredFixed {
    fn build(weights: &FixedWeights, geom: &Conv2dGeometry) -> LoweredFixed {
        let (f, c, kh, kw) = (
            weights.dims[0],
            weights.dims[1],
            weights.dims[2],
            weights.dims[3],
        );
        debug_assert_eq!(kh, geom.kernel, "geometry/kernel size mismatch");
        let plane = PaddedPlane::of(geom);
        assert!(
            plane.len <= u32::MAX as usize,
            "padded input volume too large for lowered offsets"
        );

        let mut offsets = Vec::with_capacity(c * kh * kw);
        for ch in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    offsets.push(plane.tap_offset(ch, ki, kj));
                }
            }
        }

        // Executed taps are channel- and filter-independent: count one
        // channel's `k × k` window and scale by `c · f`.
        let window: Vec<(usize, usize)> = (0..kh)
            .flat_map(|ki| (0..kw).map(move |kj| (ki, kj)))
            .collect();
        let (executed, _) = executed_taps(geom, &window);

        // Lane-eligibility bound: the largest per-filter Σ|w| (see the
        // field docs). The i32 lane multiply itself cannot wrap either
        // under the same bound, since every partial product is ≤ the
        // accumulator bound.
        let ckk = c * kh * kw;
        let mut lane_weight = 0u64;
        for fi in 0..f {
            let filter_weight: u64 = weights.codes[fi * ckk..(fi + 1) * ckk]
                .iter()
                .map(|wv| wv.unsigned_abs() as u64)
                .sum();
            lane_weight = lane_weight.max(filter_weight);
        }

        LoweredFixed {
            plane,
            sweep: Sweep::of(geom),
            offsets,
            macs_per_image: executed * (c * f) as u64,
            lane_weight,
        }
    }

    /// The path a call actually runs (see `LoweredShift::lane_path`):
    /// the requested lane path only when the batch fills a lane block
    /// and i32 lane accumulation provably cannot wrap for codes within
    /// `±bound`; [`KernelPath::Scalar`] otherwise.
    fn lane_path(&self, requested: KernelPath, n: usize, bound: u32) -> KernelPath {
        let wraps = u64::from(bound).saturating_mul(self.lane_weight) > i32::MAX as u64;
        if requested == KernelPath::Scalar || n < LANES || wraps {
            return KernelPath::Scalar;
        }
        requested
    }

    /// Executes the lowered program over padded planes laid out for
    /// `path` (see `LoweredShift::run`): full lane blocks on the SIMD
    /// lanes, every other image on the per-image scalar loop; both sweep
    /// the whole output map. Writes outputs only — accounting is
    /// precomputed and dispatch-invariant.
    fn run(
        &self,
        weights: &FixedWeights,
        planes: &[i32],
        scales: &[f32],
        path: KernelPath,
        out: &mut [f32],
    ) {
        let n = scales.len();
        let lane_images = lane_images(path, n);
        let plane = self.plane.len;
        let (f, ckk) = (weights.dims[0], self.offsets.len());
        let positions = self.sweep.positions();
        let img_stride = f * positions;

        for b0 in (0..lane_images).step_by(LANES) {
            let block = &planes[b0 * plane..(b0 + LANES) * plane];
            let mut out_scales = [0f32; LANES];
            for (l, slot) in out_scales.iter_mut().enumerate() {
                *slot = scales[b0 + l] * weights.scale;
            }
            for fi in 0..f {
                run_fixed_block(
                    path,
                    block,
                    &self.offsets,
                    &weights.codes[fi * ckk..(fi + 1) * ckk],
                    &self.sweep,
                    out,
                    (b0 * f + fi) * positions,
                    img_stride,
                    &out_scales,
                );
            }
        }

        // Remnant images (or the whole batch when the lane path is off)
        // run per image: load, multiply, accumulate.
        for b in lane_images..n {
            let out_scale = scales[b] * weights.scale;
            let img = &planes[b * plane..(b + 1) * plane];
            for fi in 0..f {
                let filter = &weights.codes[fi * ckk..(fi + 1) * ckk];
                let out_plane = &mut out[(b * f + fi) * positions..(b * f + fi + 1) * positions];
                let mut slot = out_plane.iter_mut();
                for oi in 0..self.sweep.out_h {
                    for oj in 0..self.sweep.out_w {
                        let base = self.sweep.origin(oi, oj);
                        let mut acc: i64 = 0;
                        for (&o, &wv) in self.offsets.iter().zip(filter) {
                            acc += img[base + o as usize] as i64 * wv as i64;
                        }
                        *slot.next().expect("one slot per position") = acc as f32 * out_scale;
                    }
                }
            }
        }
    }
}

/// Integer fixed-point convolution: activations `[n, c, h, w]` (integer
/// codes) convolved with integer weight codes, accumulated in `i64`, then
/// rescaled to float by `act.scale · weights.scale`.
///
/// Returns the float output `[n, f, oh, ow]` and the operation counts
/// (one integer multiply and one accumulate per tap).
///
/// # Panics
///
/// Panics on shape mismatches between activations and weights.
pub fn fixed_point_conv(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    fixed_point_conv_with_path(act, weights, stride, padding, active_path())
}

/// [`fixed_point_conv`] pinned to a specific [`KernelPath`] instead of
/// the process-wide dispatch decision — the entry point of the
/// path-matrix parity tests and the `lowering` bench exhibit.
pub fn fixed_point_conv_with_path(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
    path: KernelPath,
) -> (Tensor, OpCounts) {
    fixed_point_conv_with(
        act,
        weights,
        stride,
        padding,
        |codes, scales, geom, out, counts| {
            // Caller-built codes carry no grid: scan them for the bound.
            let bound = codes.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
            let path = weights.lane_path(geom, path, scales.len(), bound);
            let planes = pad_planes(codes, geom, path);
            fixed_point_conv_core(&planes, scales, geom, weights, path, out, counts);
        },
    )
}

/// [`fixed_point_conv`] on the retained interpreted core — the oracle the
/// lowered path is tested against, and the fixed-point baseline of the
/// `lowering` bench exhibit. Bit-identical outputs and counts to the
/// lowered path.
pub fn fixed_point_conv_reference(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    fixed_point_conv_with(
        act,
        weights,
        stride,
        padding,
        |codes, scales, geom, out, counts| {
            fixed_point_conv_reference_core(codes, scales, geom, weights, out, counts)
        },
    )
}

/// Shapes the output of a public conv call and runs `core` over the
/// activations' unpadded codes with the shared scale repeated per image.
fn fixed_point_conv_with(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
    core: impl FnOnce(&[i32], &[f32], &Conv2dGeometry, &mut [f32], &mut OpCounts),
) -> (Tensor, OpCounts) {
    let ad = act.dims();
    assert_eq!(ad.len(), 4, "activations must be [n, c, h, w]");
    let (n, c, h, w) = (ad[0], ad[1], ad[2], ad[3]);
    let geom = Conv2dGeometry::new(c, h, w, weights.dims[2], stride, padding);
    let mut out = Tensor::zeros(&[n, weights.dims[0], geom.out_h, geom.out_w]);
    let scales = vec![act.scale(); n];
    let mut counts = OpCounts::default();
    core(act.codes(), &scales, &geom, out.as_mut_slice(), &mut counts);
    (out, counts)
}

/// Validates the shared layout contract of the conv cores (see
/// `check_core_shapes` in `shift.rs`): `plane` codes per image.
fn check_core_shapes(
    codes: &[i32],
    plane: usize,
    scales: &[f32],
    geom: &Conv2dGeometry,
    weights: &FixedWeights,
    out: &[f32],
) {
    let c = geom.in_channels;
    let wd = &weights.dims;
    let (f, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(kh, kw, "kernels must be square");
    assert_eq!(wc, c, "weight channels {wc} != activation channels {c}");
    assert_eq!(kh, geom.kernel, "geometry/kernel size mismatch");
    assert_eq!(codes.len(), scales.len() * plane, "codes length mismatch");
    assert_eq!(
        out.len(),
        scales.len() * f * geom.out_positions(),
        "output length mismatch"
    );
}

/// Fixed-point convolution over zero-padded integer planes with one
/// scale per image, laid out for `path` — the path
/// [`FixedWeights::lane_path`] chose for these codes (lowered path; see
/// `shift_add_conv_core` for the layout contract).
pub(crate) fn fixed_point_conv_core(
    planes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    weights: &FixedWeights,
    path: KernelPath,
    out: &mut [f32],
    counts: &mut OpCounts,
) {
    let lowered = weights.lowered(geom);
    check_core_shapes(planes, lowered.plane.len, scales, geom, weights, out);
    debug_assert!(
        path == KernelPath::Scalar || lowered.lane_path(path, scales.len(), 0) == path,
        "lane path {path} on a call that cannot run it"
    );
    lowered.run(weights, planes, scales, path, out);
    let n = scales.len() as u64;
    counts.int_mults += n * lowered.macs_per_image;
    counts.int_adds += n * lowered.macs_per_image;
}

/// The interpreted tap loop the lowered core replaced: unpadded planes,
/// per-tap bounds checks and per-tap count bumps. Retained as the
/// parity oracle.
fn fixed_point_conv_reference_core(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    weights: &FixedWeights,
    out: &mut [f32],
    counts: &mut OpCounts,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    check_core_shapes(codes, c * h * w, scales, geom, weights, out);
    let n = scales.len();
    let wd = &weights.dims;
    let (f, kh, kw) = (wd[0], wd[2], wd[3]);
    let (stride, padding) = (geom.stride, geom.padding);
    let wcodes = &weights.codes;

    for b in 0..n {
        let out_scale = scales[b] * weights.scale;
        for fi in 0..f {
            for oi in 0..geom.out_h {
                let row = ((b * f + fi) * geom.out_h + oi) * geom.out_w;
                for oj in 0..geom.out_w {
                    let mut acc: i64 = 0;
                    for ch in 0..c {
                        for ki in 0..kh {
                            let ii = (oi * stride + ki) as isize - padding as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for kj in 0..kw {
                                let jj = (oj * stride + kj) as isize - padding as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                let a = codes[((b * c + ch) * h + ii as usize) * w + jj as usize];
                                let wv = wcodes[((fi * c + ch) * kh + ki) * kw + kj];
                                acc += (a as i64) * (wv as i64);
                                counts.int_mults += 1;
                                counts.int_adds += 1;
                            }
                        }
                    }
                    out[row + oj] = acc as f32 * out_scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_nn::layers::functional::conv2d_forward;
    use flight_tensor::{uniform, TensorRng};

    #[test]
    fn integer_conv_matches_float_reference() {
        let mut rng = TensorRng::seed(5);
        let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
        let w = uniform(&mut rng, &[4, 3, 3, 3], -0.5, 0.5);

        let qa = QuantActivations::quantize(&x, 8);
        let qw = FixedWeights::quantize(&w, 4);

        // Reference: float conv of the dequantized values.
        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &qw.dequantize(),
            &Tensor::zeros(&[4]),
            1,
            1,
            false,
        );
        let (out, counts) = fixed_point_conv(&qa, &qw, 1, 1);
        assert!(
            out.allclose(&reference, 1e-4),
            "integer and float paths diverge"
        );
        assert!(counts.int_mults > 0);
        assert_eq!(counts.int_mults, counts.int_adds);

        // The lowered path and the interpreted oracle are bit-identical.
        let (oracle, oracle_counts) = fixed_point_conv_reference(&qa, &qw, 1, 1);
        assert_eq!(out.as_slice(), oracle.as_slice(), "lowered != oracle");
        assert_eq!(counts, oracle_counts, "lowered counts != oracle counts");
    }

    #[test]
    fn stride_and_padding_variants_match() {
        let mut rng = TensorRng::seed(6);
        for &(s, p) in &[(1usize, 0usize), (2, 1), (1, 1)] {
            let x = uniform(&mut rng, &[1, 2, 7, 7], -1.0, 1.0);
            let w = uniform(&mut rng, &[3, 2, 3, 3], -0.5, 0.5);
            let qa = QuantActivations::quantize(&x, 8);
            let qw = FixedWeights::quantize(&w, 4);
            let (reference, _) = conv2d_forward(
                &qa.dequantize(),
                &qw.dequantize(),
                &Tensor::zeros(&[3]),
                s,
                p,
                false,
            );
            let (out, counts) = fixed_point_conv(&qa, &qw, s, p);
            assert!(out.allclose(&reference, 1e-4), "s={s} p={p}");

            let (oracle, oracle_counts) = fixed_point_conv_reference(&qa, &qw, s, p);
            assert_eq!(
                out.as_slice(),
                oracle.as_slice(),
                "s={s} p={p}: lowered != oracle"
            );
            assert_eq!(counts, oracle_counts, "s={s} p={p}: counts diverge");
        }
    }

    #[test]
    fn weight_codes_respect_bit_width() {
        let mut rng = TensorRng::seed(7);
        let w = uniform(&mut rng, &[2, 2, 3, 3], -1.0, 1.0);
        let qw = FixedWeights::quantize(&w, 4);
        assert!(qw.codes.iter().all(|&c| c.abs() <= 7));
    }

    #[test]
    fn a_wide_code_bound_takes_the_scalar_path_at_a_full_block() {
        // 16-bit weights of full magnitude over a 64·3·3 volume:
        // `lane_weight · 127` does not fit i32, so 8-bit codes must take
        // the scalar path at batch 8 and still match the oracle.
        let mut rng = TensorRng::seed(9);
        let w = uniform(&mut rng, &[2, 64, 3, 3], -1.0, 1.0).map(|v| v.signum());
        let qw = FixedWeights::quantize(&w, 16);
        let geom = Conv2dGeometry::new(64, 3, 3, 3, 1, 0);
        let lowered = qw.lowered(&geom);
        assert_eq!(lowered.lane_weight, 64 * 9 * 32767);
        assert!(lowered.lane_weight * 127 > i32::MAX as u64);
        assert_eq!(
            qw.lane_path(&geom, KernelPath::Portable, LANES, 127),
            KernelPath::Scalar
        );
        assert_eq!(
            qw.lane_path(&geom, KernelPath::Portable, LANES, 63),
            KernelPath::Portable
        );

        let x = uniform(&mut rng, &[LANES, 64, 3, 3], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (oracle, oracle_counts) = fixed_point_conv_reference(&qa, &qw, 1, 0);
        for path in [KernelPath::Portable, active_path()] {
            let (fast, counts) = fixed_point_conv_with_path(&qa, &qw, 1, 0, path);
            assert_eq!(fast.as_slice(), oracle.as_slice(), "{path}");
            assert_eq!(counts, oracle_counts, "{path}");
        }
    }

    #[test]
    fn lowering_stats_count_dense_taps() {
        let mut rng = TensorRng::seed(8);
        let w = uniform(&mut rng, &[2, 3, 3, 3], -1.0, 1.0);
        let qw = FixedWeights::quantize(&w, 4);
        let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 1);
        let stats = qw.lowering_stats(&geom);
        assert_eq!(stats.total_taps, 2 * 3 * 3 * 3);
        assert_eq!(stats.filters, 2);
        assert_eq!(
            stats.interior_positions + stats.border_positions,
            geom.out_positions()
        );
    }
}
