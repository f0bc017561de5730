//! Shift-add convolution — the (F)LightNN datapath.
//!
//! A quantized filter is a [`ShiftPlan`] (Fig. 3): each active level is a
//! subfilter whose taps are single powers of two. The kernel therefore
//! computes every multiply as `±(a << s)` over the integer activation
//! codes, accumulating in `i64`, and rescales once at the end by
//! `2^{e_min} · act_scale`.
//!
//! # Lowered tap programs
//!
//! [`ShiftKernel::compile`] decodes the plan once into a flat tap table
//! sorted by `(channel, kernel row, kernel column)` with the shift amount
//! and sign packed into a single `u32` per tap. On first contact with a
//! concrete [`Conv2dGeometry`] the kernel lowers that table into a
//! per-geometry program (cached, shared across clones and worker
//! threads): one sort per filter by `(shift, sign)` turns its taps into
//! **groups**, one per shift amount, each a run of `u32` offsets into
//! the **zero-padded input plane** `[c, h + 2p, w + 2p]` — the adding
//! taps, then the subtracting ones — described by a
//! `[shift, start, pos_end, neg_end]` entry of the filter's group table.
//! A filter is a sum of `k` signed powers of two per weight, so a layer
//! has far fewer distinct shifts than taps: a position costs one load
//! and one add per tap and one subtract, shift and add per group,
//! instead of a shift and a sign fold per tap.
//!
//! * Inputs are padded once, when each conv stage fills its planes
//!   (see the `lower` module), so every output position — border ring
//!   included — runs one branchless program with no bounds checks and
//!   no index arithmetic. A tap on the ring reads a zero and adds
//!   exactly 0.
//! * Full blocks of [`LANES`] images run that program on the SIMD lanes
//!   over the whole output map; remnant images run it per image. The
//!   grouped sum is exact on every path (see the `simd` module's
//!   exactness section).
//! * Op accounting is hoisted out of the loops entirely: a one-time
//!   per-geometry count of the taps that land on real input (see
//!   [`OpCounts`]) keeps the totals bit-identical to the interpreted
//!   reference ([`shift_add_conv_reference`]), which is retained as the
//!   parity oracle and the lowering bench baseline. The counts follow
//!   the paper's `k` shifts / `k − 1` adds cost model per weight, not
//!   the grouped instruction mix.

use std::sync::{Arc, Mutex};

use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::convert::ShiftPlan;
use flightnn::pow2::pow2_exponent;

use crate::counts::OpCounts;
use crate::lower::{executed_taps, interior_rect, pad_planes, PaddedPlane, Sweep};
use crate::qact::QuantActivations;
use crate::simd::{active_path, lane_images, run_shift_block, KernelPath, LANES, MAX_LANE_SHIFT};

/// Packed tap code layout: shift amount in the low 6 bits, sign in the
/// top bit (`1` = subtract).
const SHIFT_MASK: u32 = 0x3f;
const SIGN_BIT: u32 = 1 << 31;

/// One compiled tap: flat kernel-space offset plus the packed shift/sign
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tap {
    /// Index into the `[c, kh, kw]` filter volume.
    offset: u32,
    /// Shift amount and sign, packed (`SHIFT_MASK` / `SIGN_BIT`).
    code: u32,
}

/// Why a [`ShiftPlan`] cannot compile to shift taps.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftCompileError {
    /// `weight_dims` is not rank 4.
    BadWeightRank(usize),
    /// The kernel window is not square.
    NonSquareKernel {
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
    },
    /// The plan's filter count disagrees with the weight shape.
    FilterCountMismatch {
        /// Filters in the plan.
        plan: usize,
        /// Filters in `weight_dims`.
        weights: usize,
    },
    /// The plan's filter length disagrees with `c · kh · kw`.
    FilterLenMismatch {
        /// Coefficients per filter in the plan.
        plan: usize,
        /// `c · kh · kw` from `weight_dims`.
        weights: usize,
    },
    /// A nonzero tap is not `±2^e` — the plan is not a shift program.
    NotPowerOfTwo {
        /// Filter index.
        filter: usize,
        /// Flat coefficient index within the filter volume.
        index: usize,
        /// The offending coefficient.
        value: f32,
    },
    /// A tap's shift relative to the layer minimum exceeds the barrel
    /// shifter's range.
    ShiftOutOfRange {
        /// Filter index.
        filter: usize,
        /// Flat coefficient index within the filter volume.
        index: usize,
        /// The out-of-range shift amount.
        shift: i32,
    },
}

impl std::fmt::Display for ShiftCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShiftCompileError::BadWeightRank(rank) => {
                write!(f, "weights must be [f, c, k, k], got rank {rank}")
            }
            ShiftCompileError::NonSquareKernel { kh, kw } => {
                write!(f, "kernels must be square, got {kh}x{kw}")
            }
            ShiftCompileError::FilterCountMismatch { plan, weights } => {
                write!(f, "plan has {plan} filters but weights have {weights}")
            }
            ShiftCompileError::FilterLenMismatch { plan, weights } => {
                write!(f, "plan filter length {plan} != weight volume {weights}")
            }
            ShiftCompileError::NotPowerOfTwo {
                filter,
                index,
                value,
            } => write!(
                f,
                "filter {filter} tap {index} is {value}, not a power of two"
            ),
            ShiftCompileError::ShiftOutOfRange {
                filter,
                index,
                shift,
            } => write!(f, "filter {filter} tap {index}: shift {shift} out of range"),
        }
    }
}

impl std::error::Error for ShiftCompileError {}

/// `Some(e)` iff `v == ±2^e` exactly.
fn strict_pow2_exponent(v: f32) -> Option<i32> {
    let e = pow2_exponent(v)?;
    ((e as f32).exp2() == v.abs()).then_some(e)
}

/// How one output geometry splits for a lowered kernel — surfaced to
/// telemetry (`kernel.lowering.*` gauges) and the lowering bench exhibit.
/// Both kinds of position run the same branchless program over the
/// zero-padded plane; the split says how many of them read padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringStats {
    /// Output positions whose whole kernel window lies on real input.
    pub interior_positions: usize,
    /// Output positions whose window overlaps the zero padding ring.
    pub border_positions: usize,
    /// Total shift taps across all filters.
    pub total_taps: usize,
    /// Number of filters.
    pub filters: usize,
}

impl LoweringStats {
    /// Mean taps per filter (`0.0` for an empty kernel).
    pub fn mean_taps_per_filter(&self) -> f64 {
        if self.filters == 0 {
            0.0
        } else {
            self.total_taps as f64 / self.filters as f64
        }
    }
}

/// Geometry-keyed cache of lowered programs. Networks see one geometry
/// per layer, so the list stays tiny; linear lookup beats hashing.
type LoweredCache = Arc<Mutex<Vec<(Conv2dGeometry, Arc<LoweredShift>)>>>;

/// A conv layer compiled for shift-add execution.
///
/// # Example
///
/// ```
/// use flight_kernels::ShiftKernel;
/// use flightnn::convert::shift_plan;
/// use flightnn::layers::QuantConv2d;
/// use flightnn::QuantScheme;
/// use flight_tensor::TensorRng;
///
/// let mut rng = TensorRng::seed(0);
/// let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 3, 8, 3, 1, 1);
/// let plan = shift_plan(&mut conv);
/// let kernel = ShiftKernel::compile(&plan, &[8, 3, 3, 3]);
/// assert_eq!(kernel.filters(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftKernel {
    /// All filters' taps, concatenated; within each filter sorted by flat
    /// offset, i.e. by `(channel, kernel row, kernel column)`, so the
    /// lowered inner loop walks input memory forward.
    taps: Vec<Tap>,
    /// Filter `f`'s taps are `taps[bounds[f] as usize..bounds[f+1] as usize]`.
    bounds: Vec<u32>,
    /// Global scale `2^{e_min}` restoring real weight magnitudes.
    base_scale: f32,
    /// Filter volume dims `[c, kh, kw]`.
    in_channels: usize,
    kernel: usize,
    /// Lowered tap programs, one per geometry, shared across clones (and
    /// therefore across the parallel engine's workers).
    lowered: LoweredCache,
}

impl ShiftKernel {
    /// Compiles a [`ShiftPlan`] into shift taps. `weight_dims` is the
    /// original weight shape `[f, c, kh, kw]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShiftCompileError`] if the plan does not match
    /// `weight_dims`, a nonzero tap is not an exact power of two, or a
    /// shift amount exceeds the barrel shifter's range.
    pub fn try_compile(plan: &ShiftPlan, weight_dims: &[usize]) -> Result<Self, ShiftCompileError> {
        if weight_dims.len() != 4 {
            return Err(ShiftCompileError::BadWeightRank(weight_dims.len()));
        }
        let (f, c, kh, kw) = (
            weight_dims[0],
            weight_dims[1],
            weight_dims[2],
            weight_dims[3],
        );
        if kh != kw {
            return Err(ShiftCompileError::NonSquareKernel { kh, kw });
        }
        if plan.filters.len() != f {
            return Err(ShiftCompileError::FilterCountMismatch {
                plan: plan.filters.len(),
                weights: f,
            });
        }
        if plan.filter_len != c * kh * kw {
            return Err(ShiftCompileError::FilterLenMismatch {
                plan: plan.filter_len,
                weights: c * kh * kw,
            });
        }

        // Find the minimum exponent across all taps so shifts are >= 0.
        let mut min_exp = i32::MAX;
        for (fi, fp) in plan.filters.iter().enumerate() {
            for sub in &fp.subfilters {
                for (idx, &v) in sub.coefficients.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let e = strict_pow2_exponent(v).ok_or(ShiftCompileError::NotPowerOfTwo {
                        filter: fi,
                        index: idx,
                        value: v,
                    })?;
                    min_exp = min_exp.min(e);
                }
            }
        }
        if min_exp == i32::MAX {
            min_exp = 0; // all-zero layer
        }

        let mut taps = Vec::new();
        let mut bounds = Vec::with_capacity(f + 1);
        bounds.push(0u32);
        for (fi, fp) in plan.filters.iter().enumerate() {
            let filter_start = taps.len();
            for sub in &fp.subfilters {
                for (idx, &v) in sub.coefficients.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let e = strict_pow2_exponent(v).expect("validated above");
                    let shift = e - min_exp;
                    if !(0..=SHIFT_MASK as i32).contains(&shift) {
                        return Err(ShiftCompileError::ShiftOutOfRange {
                            filter: fi,
                            index: idx,
                            shift,
                        });
                    }
                    let mut code = shift as u32;
                    if v < 0.0 {
                        code |= SIGN_BIT;
                    }
                    taps.push(Tap {
                        offset: idx as u32,
                        code,
                    });
                }
            }
            // Sort this filter's taps by offset == (ch, ki, kj) so the
            // lowered loop reads the input front to back. Integer
            // accumulation is exact, so reordering cannot change results.
            taps[filter_start..].sort_unstable_by_key(|t| t.offset);
            bounds.push(taps.len() as u32);
        }

        Ok(ShiftKernel {
            taps,
            bounds,
            base_scale: (min_exp as f32).exp2(),
            in_channels: c,
            kernel: kh,
            lowered: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Compiles a [`ShiftPlan`] into shift taps, panicking on invalid
    /// input — the historical API; see [`ShiftKernel::try_compile`] for
    /// the `Result`-returning form.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match `weight_dims`, or a tap is not a
    /// power of two.
    pub fn compile(plan: &ShiftPlan, weight_dims: &[usize]) -> Self {
        ShiftKernel::try_compile(plan, weight_dims)
            .unwrap_or_else(|e| panic!("ShiftKernel::compile: {e}"))
    }

    /// Number of filters.
    pub fn filters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Square kernel side the taps were compiled for.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Input channels the taps were compiled for.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total shift taps (shift operations per output position summed over
    /// filters).
    pub fn total_taps(&self) -> usize {
        self.taps.len()
    }

    /// The interior/border split of `geom` plus this kernel's tap
    /// totals (forces the lowering, which is cached).
    pub fn lowering_stats(&self, geom: &Conv2dGeometry) -> LoweringStats {
        self.lowered(geom);
        let interior_positions = interior_rect(geom).positions();
        LoweringStats {
            interior_positions,
            border_positions: geom.out_positions() - interior_positions,
            total_taps: self.total_taps(),
            filters: self.filters(),
        }
    }

    /// The path a conv call over `geom` runs for `n` images whose codes
    /// are all within `±bound`, when `requested` is asked for (see
    /// `LoweredShift::lane_path`). The caller lays the planes out for
    /// it (see [`lane_images`]) before handing them to the core.
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
    /// use. Clones share the cache, so every context lowers each layer
    /// geometry exactly once.
    fn lowered(&self, geom: &Conv2dGeometry) -> Arc<LoweredShift> {
        let mut cache = self.lowered.lock().expect("lowering cache poisoned");
        if let Some((_, program)) = cache.iter().find(|(g, _)| g == geom) {
            return program.clone();
        }
        let program = Arc::new(LoweredShift::build(self, geom));
        cache.push((*geom, program.clone()));
        program
    }
}

/// One group of a filter's lowered taps: every tap sharing one shift
/// amount, the adding taps first. The group contributes
/// `(Σ adds − Σ subtracts) << shift`: its codes are summed with plain
/// adds and shifted once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TapGroup {
    /// The shared shift amount.
    pub shift: u32,
    /// `offsets[start..pos_end]` are the group's adding taps.
    pub start: u32,
    /// `offsets[pos_end..neg_end]` are the group's subtracting taps.
    pub pos_end: u32,
    /// One past the group's last tap.
    pub neg_end: u32,
}

/// A [`ShiftKernel`] lowered against one concrete [`Conv2dGeometry`]:
/// per-tap offsets into the zero-padded plane grouped by shift amount,
/// the per-filter group tables, and the op totals hoisted out of the
/// runtime loops.
#[derive(Debug)]
struct LoweredShift {
    plane: PaddedPlane,
    sweep: Sweep,
    /// Per tap: flat offset into the padded plane relative to the output
    /// position's window origin, ordered by filter, then shift amount,
    /// then sign (adds first), then offset.
    offsets: Vec<u32>,
    /// Every filter's tap groups, in filter order, by ascending shift.
    groups: Vec<TapGroup>,
    /// Filter `f`'s groups are `groups[group_bounds[f]..group_bounds[f+1]]`.
    group_bounds: Vec<u32>,
    /// Shift ops one image costs (taps on real input only).
    shifts_per_image: u64,
    /// Integer adds one image costs under the `k` shifts / `k−1` adds
    /// convention (see [`OpCounts`]).
    adds_per_image: u64,
    /// Largest shift amount across all groups — the lane path requires
    /// it ≤ [`MAX_LANE_SHIFT`] so `a << s` stays defined (and bounded)
    /// in i32.
    max_shift: u32,
    /// Worst-case per-filter magnitude multiplier `max_f Σ_taps 2^s`:
    /// an accumulator is bounded by `bound · lane_weight` for codes
    /// within `±bound`, which must fit i32 for the lane path to match
    /// the scalar i64 accumulation bit-for-bit.
    lane_weight: u64,
}

impl LoweredShift {
    fn build(kernel: &ShiftKernel, geom: &Conv2dGeometry) -> LoweredShift {
        let k = geom.kernel;
        debug_assert_eq!(k, kernel.kernel, "geometry/kernel size mismatch");
        let plane = PaddedPlane::of(geom);
        assert!(
            plane.len <= u32::MAX as usize,
            "padded input volume too large for lowered offsets"
        );
        let decode = |tap: &Tap| {
            let off = tap.offset as usize;
            (off / (k * k), (off / k) % k, off % k)
        };

        let f = kernel.filters();
        let mut offsets = Vec::with_capacity(kernel.taps.len());
        let mut groups = Vec::new();
        let mut group_bounds = Vec::with_capacity(f + 1);
        group_bounds.push(0u32);
        // A filter with `t` taps on real input at a position costs `t`
        // shifts and `t − 1` adds there; summed over positions that is
        // `executed` shifts and `executed − active` adds.
        let (mut shifts, mut adds) = (0u64, 0u64);
        let (mut max_shift, mut lane_weight) = (0u32, 0u64);
        let mut window = Vec::new();
        let mut keyed = Vec::new();
        for fi in 0..f {
            let taps = &kernel.taps[kernel.bounds[fi] as usize..kernel.bounds[fi + 1] as usize];
            window.clear();
            window.extend(taps.iter().map(|tap| {
                let (_, ki, kj) = decode(tap);
                (ki, kj)
            }));
            let (executed, active) = executed_taps(geom, &window);
            shifts += executed;
            adds += executed - active;

            // One sort by (shift, sign, offset), then one scan cutting
            // the sorted taps into groups.
            keyed.clear();
            keyed.extend(taps.iter().map(|tap| {
                let (ch, ki, kj) = decode(tap);
                (
                    tap.code & SHIFT_MASK,
                    tap.code & SIGN_BIT,
                    plane.tap_offset(ch, ki, kj),
                )
            }));
            keyed.sort_unstable();
            let mut filter_weight = 0u64;
            let mut rest = &keyed[..];
            while let Some(&(shift, _, _)) = rest.first() {
                let len = rest.iter().take_while(|t| t.0 == shift).count();
                let (group, tail) = rest.split_at(len);
                let start = offsets.len() as u32;
                offsets.extend(group.iter().map(|t| t.2));
                let adding = group.iter().take_while(|t| t.1 == 0).count() as u32;
                groups.push(TapGroup {
                    shift,
                    start,
                    pos_end: start + adding,
                    neg_end: offsets.len() as u32,
                });
                max_shift = max_shift.max(shift);
                let weight = 1u64.checked_shl(shift).unwrap_or(u64::MAX);
                filter_weight = filter_weight.saturating_add(weight.saturating_mul(len as u64));
                rest = tail;
            }
            lane_weight = lane_weight.max(filter_weight);
            group_bounds.push(groups.len() as u32);
        }

        LoweredShift {
            plane,
            sweep: Sweep::of(geom),
            offsets,
            groups,
            group_bounds,
            shifts_per_image: shifts,
            adds_per_image: adds,
            max_shift,
            lane_weight,
        }
    }

    /// Filter `fi`'s tap groups.
    fn filter_groups(&self, fi: usize) -> &[TapGroup] {
        &self.groups[self.group_bounds[fi] as usize..self.group_bounds[fi + 1] as usize]
    }

    /// The path a call actually runs: the requested lane path only when
    /// the batch fills at least one lane block and i32 lane
    /// accumulation provably cannot wrap for codes within `±bound` (see
    /// the `lane_weight` field docs); [`KernelPath::Scalar`] otherwise.
    /// It looks at no code, so it can be decided before any exists.
    fn lane_path(&self, requested: KernelPath, n: usize, bound: u32) -> KernelPath {
        let wraps = u64::from(bound).saturating_mul(self.lane_weight) > i32::MAX as u64;
        if requested == KernelPath::Scalar || n < LANES || self.max_shift > MAX_LANE_SHIFT || wraps
        {
            return KernelPath::Scalar;
        }
        requested
    }

    /// Executes the lowered program over padded planes laid out for
    /// `path` (full blocks of [`LANES`] images lane-major on a lane
    /// path, see [`lane_images`]): the blocks on the SIMD lanes, every
    /// other image on the per-image scalar loop; both sweep the whole
    /// output map. Writes outputs only — op accounting lives in the
    /// precomputed per-image totals, which are dispatch-invariant.
    fn run(
        &self,
        kernel: &ShiftKernel,
        planes: &[i32],
        scales: &[f32],
        path: KernelPath,
        out: &mut [f32],
    ) {
        let n = scales.len();
        let lane_images = lane_images(path, n);
        let plane = self.plane.len;
        let f = kernel.filters();
        let positions = self.sweep.positions();
        let img_stride = f * positions;

        for b0 in (0..lane_images).step_by(LANES) {
            let block = &planes[b0 * plane..(b0 + LANES) * plane];
            let mut out_scales = [0f32; LANES];
            for (l, slot) in out_scales.iter_mut().enumerate() {
                *slot = scales[b0 + l] * kernel.base_scale;
            }
            for fi in 0..f {
                run_shift_block(
                    path,
                    block,
                    &self.offsets,
                    self.filter_groups(fi),
                    &self.sweep,
                    out,
                    (b0 * f + fi) * positions,
                    img_stride,
                    &out_scales,
                );
            }
        }

        // Remnant images (or the whole batch when the lane path is off)
        // run per image, so any batch size produces the same bits as
        // solo inference.
        for b in lane_images..n {
            let out_scale = scales[b] * kernel.base_scale;
            let img = &planes[b * plane..(b + 1) * plane];
            for fi in 0..f {
                let groups = self.filter_groups(fi);
                let out_plane = &mut out[(b * f + fi) * positions..(b * f + fi + 1) * positions];
                let mut slot = out_plane.iter_mut();
                for oi in 0..self.sweep.out_h {
                    for oj in 0..self.sweep.out_w {
                        let window = &img[self.sweep.origin(oi, oj)..];
                        let acc = grouped_scalar(window, &self.offsets, groups);
                        *slot.next().expect("one slot per position") = acc as f32 * out_scale;
                    }
                }
            }
        }
    }
}

/// The grouped shift sum of one window of one image, accumulated in
/// `i64`: per group, the adding taps are added, the subtracting taps
/// subtracted, and the group sum is shifted once into the accumulator.
fn grouped_scalar(window: &[i32], offs: &[u32], groups: &[TapGroup]) -> i64 {
    let sum = |taps: &[u32]| -> i64 { taps.iter().map(|&o| window[o as usize] as i64).sum() };
    groups.iter().fold(0i64, |acc, g| {
        let adds = sum(&offs[g.start as usize..g.pos_end as usize]);
        let subs = sum(&offs[g.pos_end as usize..g.neg_end as usize]);
        acc.wrapping_add((adds - subs).wrapping_shl(g.shift))
    })
}

/// Validates the shared layout contract of the conv cores: `plane`
/// codes per image (padded for the lowered core, unpadded for the
/// reference).
fn check_core_shapes(
    codes: &[i32],
    plane: usize,
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &ShiftKernel,
    out: &[f32],
) {
    let c = geom.in_channels;
    assert_eq!(
        c, kernel.in_channels,
        "activation channels {c} != kernel channels {}",
        kernel.in_channels
    );
    assert_eq!(geom.kernel, kernel.kernel, "geometry/kernel size mismatch");
    assert_eq!(codes.len(), scales.len() * plane, "codes length mismatch");
    assert_eq!(
        out.len(),
        scales.len() * kernel.filters() * geom.out_positions(),
        "output length mismatch"
    );
}

/// Shift-add convolution over zero-padded integer planes with one scale
/// per image — the lowered core.
///
/// `scales.len()` is the batch size `n`; image `b`'s codes occupy a
/// `[c, h + 2p, w + 2p]` plane with zeros in the padding ring, laid out
/// for `path` — the path [`ShiftKernel::lane_path`] chose for these
/// codes: the first [`lane_images`] images lane-major in their blocks,
/// the rest at `planes[b·len .. (b+1)·len]` (`len` = one plane). Image
/// `b`'s outputs are rescaled by `scales[b] · kernel.base_scale`.
/// Results land in `out` (length `n · filters · out_positions`,
/// row-major `[n, f, oh, ow]`) and op counts accumulate into `counts`,
/// so the execution engine can drive this from reusable scratch.
///
/// Per-image scales are what make each image's pipeline independent of
/// its batchmates: an image's outputs do not depend on the batch.
pub(crate) fn shift_add_conv_core(
    planes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &ShiftKernel,
    path: KernelPath,
    out: &mut [f32],
    counts: &mut OpCounts,
) {
    let lowered = kernel.lowered(geom);
    check_core_shapes(planes, lowered.plane.len, scales, geom, kernel, out);
    debug_assert!(
        path == KernelPath::Scalar || lowered.lane_path(path, scales.len(), 0) == path,
        "lane path {path} on a call that cannot run it"
    );
    lowered.run(kernel, planes, scales, path, out);
    let n = scales.len() as u64;
    counts.shifts += n * lowered.shifts_per_image;
    counts.int_adds += n * lowered.adds_per_image;
}

/// The interpreted tap loop the lowered core replaced: reads unpadded
/// planes, re-decodes every tap's `(ch, ki, kj)` per output position and
/// checks padding bounds per tap. Retained as the bit-exactness oracle
/// for the lowering (the parity proptests compare against it) and as
/// the baseline of the `lowering` bench exhibit.
fn shift_add_conv_reference_core(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &ShiftKernel,
    out: &mut [f32],
    counts: &mut OpCounts,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    check_core_shapes(codes, c * h * w, scales, geom, kernel, out);
    let n = scales.len();
    let k = geom.kernel;
    let (stride, padding) = (geom.stride, geom.padding);
    let f = kernel.filters();

    for b in 0..n {
        let out_scale = scales[b] * kernel.base_scale;
        for fi in 0..f {
            let taps = &kernel.taps[kernel.bounds[fi] as usize..kernel.bounds[fi + 1] as usize];
            for oi in 0..geom.out_h {
                let row = ((b * f + fi) * geom.out_h + oi) * geom.out_w;
                for oj in 0..geom.out_w {
                    let mut acc: i64 = 0;
                    let mut executed: u64 = 0;
                    for tap in taps {
                        // Decode the tap's position in the [c, k, k] volume.
                        let off = tap.offset as usize;
                        let ch = off / (k * k);
                        let ki = (off / k) % k;
                        let kj = off % k;
                        let ii = (oi * stride + ki) as isize - padding as isize;
                        let jj = (oj * stride + kj) as isize - padding as isize;
                        if ii < 0 || jj < 0 || ii as usize >= h || jj as usize >= w {
                            continue;
                        }
                        let a = codes[((b * c + ch) * h + ii as usize) * w + jj as usize] as i64;
                        let term = a << (tap.code & SHIFT_MASK);
                        acc += if tap.code & SIGN_BIT != 0 {
                            -term
                        } else {
                            term
                        };
                        executed += 1;
                    }
                    counts.shifts += executed;
                    counts.int_adds += executed.saturating_sub(1);
                    out[row + oj] = acc as f32 * out_scale;
                }
            }
        }
    }
}

/// Shift-add convolution over integer activation codes (lowered path).
///
/// Returns the float output `[n, f, oh, ow]` and the operation counts
/// (`k` shifts and `k − 1` adds per position under the paper's §3 cost
/// model — see [`OpCounts`]; no multiplies anywhere).
///
/// # Panics
///
/// Panics on activation/kernel shape mismatches.
pub fn shift_add_conv(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    shift_add_conv_with_path(act, kernel, stride, padding, active_path())
}

/// [`shift_add_conv`] pinned to a specific [`KernelPath`] instead of
/// the process-wide dispatch decision — the entry point of the
/// path-matrix parity tests and the `lowering` bench exhibit.
pub fn shift_add_conv_with_path(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
    path: KernelPath,
) -> (Tensor, OpCounts) {
    shift_add_conv_with(
        act,
        kernel,
        stride,
        padding,
        |codes, scales, geom, out, counts| {
            // Caller-built codes carry no grid: scan them for the bound.
            let bound = codes.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
            let path = kernel.lane_path(geom, path, scales.len(), bound);
            let planes = pad_planes(codes, geom, path);
            shift_add_conv_core(&planes, scales, geom, kernel, path, out, counts);
        },
    )
}

/// [`shift_add_conv`] on the retained interpreted core — the oracle the
/// lowered path is tested against, and the baseline the `lowering` bench
/// exhibit times. Bit-identical outputs and counts to the lowered path,
/// only slower.
pub fn shift_add_conv_reference(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    shift_add_conv_with(
        act,
        kernel,
        stride,
        padding,
        |codes, scales, geom, out, counts| {
            shift_add_conv_reference_core(codes, scales, geom, kernel, out, counts)
        },
    )
}

/// Shapes the output of a public conv call and runs `core` over the
/// activations' unpadded codes with the shared scale repeated per image.
fn shift_add_conv_with(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
    core: impl FnOnce(&[i32], &[f32], &Conv2dGeometry, &mut [f32], &mut OpCounts),
) -> (Tensor, OpCounts) {
    let ad = act.dims();
    assert_eq!(ad.len(), 4, "activations must be [n, c, h, w]");
    let (n, c, h, w) = (ad[0], ad[1], ad[2], ad[3]);
    let geom = Conv2dGeometry::new(c, h, w, kernel.kernel, stride, padding);
    let mut out = Tensor::zeros(&[n, kernel.filters(), geom.out_h, geom.out_w]);
    let scales = vec![act.scale(); n];
    let mut counts = OpCounts::default();
    core(act.codes(), &scales, &geom, out.as_mut_slice(), &mut counts);
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_nn::layers::functional::conv2d_forward;
    use flight_tensor::{uniform, TensorRng};
    use flightnn::convert::{shift_plan, FilterPlan, SubFilter};
    use flightnn::layers::QuantConv2d;
    use flightnn::QuantScheme;

    fn check_scheme(scheme: QuantScheme, seed: u64) {
        let mut rng = TensorRng::seed(seed);
        let mut conv = QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1);
        let plan = shift_plan(&mut conv);
        let dims = conv.shadow().value.dims().to_vec();
        let kernel = ShiftKernel::compile(&plan, &dims);

        let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let qweights = conv.quantized_weights();

        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &qweights,
            &Tensor::zeros(&[4]),
            1,
            1,
            false,
        );
        let (out, counts) = shift_add_conv(&qa, &kernel, 1, 1);
        assert!(
            out.allclose(&reference, 1e-3),
            "shift-add diverges from reference for {}",
            scheme.label()
        );
        assert_eq!(counts.int_mults, 0, "shift kernel must not multiply");
        assert!(counts.shifts > 0);

        // The lowered path and the interpreted oracle are bit-identical.
        let (oracle, oracle_counts) = shift_add_conv_reference(&qa, &kernel, 1, 1);
        assert_eq!(out.as_slice(), oracle.as_slice(), "lowered != oracle");
        assert_eq!(counts, oracle_counts, "lowered counts != oracle counts");
    }

    #[test]
    fn lightnn1_matches_reference() {
        check_scheme(QuantScheme::l1(), 11);
    }

    #[test]
    fn lightnn2_matches_reference() {
        check_scheme(QuantScheme::l2(), 12);
    }

    #[test]
    fn flightnn_matches_reference() {
        check_scheme(QuantScheme::flight(1e-5), 13);
    }

    #[test]
    fn tap_count_scales_with_k() {
        let mut rng = TensorRng::seed(14);
        let mut c1 = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 2, 4, 3, 1, 1);
        let mut rng = TensorRng::seed(14);
        let mut c2 = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 2, 4, 3, 1, 1);
        let p1 = shift_plan(&mut c1);
        let p2 = shift_plan(&mut c2);
        let k1 = ShiftKernel::compile(&p1, &[4, 2, 3, 3]);
        let k2 = ShiftKernel::compile(&p2, &[4, 2, 3, 3]);
        assert!(
            k2.total_taps() > k1.total_taps(),
            "L-2 should need more shift taps than L-1"
        );
    }

    #[test]
    fn core_with_per_image_scales_matches_solo_images() {
        let mut rng = TensorRng::seed(16);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 2, 3, 3, 1, 1);
        let plan = shift_plan(&mut conv);
        let kernel = ShiftKernel::compile(&plan, &[3, 2, 3, 3]);
        let x = uniform(&mut rng, &[3, 2, 6, 6], -1.0, 1.0);

        let mut codes = Vec::new();
        let mut scales = Vec::new();
        QuantActivations::quantize_padded_into(&x, 8, 1, &mut codes, &mut scales);
        let geom = Conv2dGeometry::new(2, 6, 6, 3, 1, 1);
        let mut out = vec![0.0f32; 3 * kernel.filters() * geom.out_positions()];
        let mut counts = OpCounts::default();
        shift_add_conv_core(
            &codes,
            &scales,
            &geom,
            &kernel,
            KernelPath::Scalar,
            &mut out,
            &mut counts,
        );

        // Each image must be bit-identical to submitting it alone.
        let img_out = kernel.filters() * geom.out_positions();
        let mut solo_counts = OpCounts::default();
        for b in 0..3 {
            let img = Tensor::from_vec(x.outer(b).to_vec(), &[1, 2, 6, 6]);
            let qa = QuantActivations::quantize(&img, 8);
            let (solo, c) = shift_add_conv(&qa, &kernel, 1, 1);
            solo_counts += c;
            assert_eq!(
                &out[b * img_out..(b + 1) * img_out],
                solo.as_slice(),
                "image {b} diverges from solo inference"
            );
        }
        assert_eq!(counts, solo_counts, "op counts reduce associatively");
    }

    #[test]
    fn stride_two_matches_reference() {
        let mut rng = TensorRng::seed(15);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 2, 3, 3, 2, 1);
        let plan = shift_plan(&mut conv);
        let kernel = ShiftKernel::compile(&plan, &[3, 2, 3, 3]);
        let x = uniform(&mut rng, &[1, 2, 8, 8], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &conv.quantized_weights(),
            &Tensor::zeros(&[3]),
            2,
            1,
            false,
        );
        let (out, _) = shift_add_conv(&qa, &kernel, 2, 1);
        assert!(out.allclose(&reference, 1e-3));
    }

    /// A hand-built plan: one filter over a [1, 2, 2] volume.
    fn tiny_plan(coefficients: Vec<f32>) -> ShiftPlan {
        ShiftPlan {
            filters: vec![FilterPlan {
                subfilters: vec![SubFilter { coefficients }],
            }],
            filter_len: 4,
        }
    }

    #[test]
    fn try_compile_rejects_non_power_of_two_taps() {
        let plan = tiny_plan(vec![0.5, 0.0, 0.3, -1.0]);
        let err = ShiftKernel::try_compile(&plan, &[1, 1, 2, 2]).unwrap_err();
        assert_eq!(
            err,
            ShiftCompileError::NotPowerOfTwo {
                filter: 0,
                index: 2,
                value: 0.3
            }
        );
        assert!(err.to_string().contains("not a power of two"));
    }

    #[test]
    fn try_compile_rejects_shape_mismatches() {
        let plan = tiny_plan(vec![0.5, 0.0, 0.25, -1.0]);
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 1, 2]).unwrap_err(),
            ShiftCompileError::BadWeightRank(3)
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 1, 2, 3]).unwrap_err(),
            ShiftCompileError::NonSquareKernel { kh: 2, kw: 3 }
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[2, 1, 2, 2]).unwrap_err(),
            ShiftCompileError::FilterCountMismatch {
                plan: 1,
                weights: 2
            }
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 2, 2, 2]).unwrap_err(),
            ShiftCompileError::FilterLenMismatch {
                plan: 4,
                weights: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn compile_panics_where_try_compile_errors() {
        let plan = tiny_plan(vec![0.3, 0.0, 0.0, 0.0]);
        let _ = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
    }

    #[test]
    fn taps_are_sorted_for_sequential_access() {
        // Two subfilters whose taps interleave: compile must merge-sort
        // them by flat offset within the filter.
        let plan = ShiftPlan {
            filters: vec![FilterPlan {
                subfilters: vec![
                    SubFilter {
                        coefficients: vec![0.0, 1.0, 0.0, -0.5],
                    },
                    SubFilter {
                        coefficients: vec![2.0, 0.0, 0.25, 0.0],
                    },
                ],
            }],
            filter_len: 4,
        };
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let offsets: Vec<u32> = kernel.taps.iter().map(|t| t.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cost_convention_k_shifts_k_minus_1_adds() {
        // Padding 0: every position is interior and executes all taps, so
        // the §3 cost model is exact: taps shifts, taps−1 adds per
        // position.
        let plan = tiny_plan(vec![0.5, -1.0, 2.0, 0.0]); // 3 taps
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let mut rng = TensorRng::seed(17);
        let x = uniform(&mut rng, &[2, 1, 5, 5], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (_, counts) = shift_add_conv(&qa, &kernel, 1, 0);
        let positions = 4 * 4 * 2; // out 4x4, batch 2
        assert_eq!(counts.shifts, 3 * positions);
        assert_eq!(counts.int_adds, 2 * positions);
        let (_, oracle) = shift_add_conv_reference(&qa, &kernel, 1, 0);
        assert_eq!(counts, oracle);
    }

    #[test]
    fn lowering_stats_split_the_output_map() {
        let plan = tiny_plan(vec![0.5, -1.0, 2.0, 0.25]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 1);
        let stats = kernel.lowering_stats(&geom);
        assert_eq!(
            stats.interior_positions + stats.border_positions,
            geom.out_positions()
        );
        assert!(stats.interior_positions > 0, "6x6 k2 p1 has an interior");
        assert!(stats.border_positions > 0, "padding creates a border");
        assert_eq!(stats.total_taps, 4);
        assert_eq!(stats.filters, 1);
        assert_eq!(stats.mean_taps_per_filter(), 4.0);
    }

    #[test]
    fn oversized_shifts_fall_back_to_scalar_lanes() {
        // Shift amounts up to 31 exceed MAX_LANE_SHIFT, so a full lane
        // batch must silently take the scalar path — and still match the
        // interpreted oracle bit-for-bit.
        let plan = tiny_plan(vec![1.0, 2147483648.0, 0.0, 0.0]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 0);
        let lowered = kernel.lowered(&geom);
        assert!(lowered.max_shift > MAX_LANE_SHIFT);
        assert_eq!(
            lowered.lane_path(KernelPath::Portable, 8, 127),
            KernelPath::Scalar
        );

        let mut rng = TensorRng::seed(21);
        let x = uniform(&mut rng, &[LANES, 1, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (fast, counts) = shift_add_conv(&qa, &kernel, 1, 0);
        let (oracle, oracle_counts) = shift_add_conv_reference(&qa, &kernel, 1, 0);
        assert_eq!(fast.as_slice(), oracle.as_slice());
        assert_eq!(counts, oracle_counts);
    }

    #[test]
    fn a_wide_code_bound_takes_the_scalar_path_at_a_full_block() {
        // Shifts 0, 24, 24 fit the lanes, but `lane_weight · 127` does
        // not fit i32: 8-bit codes must take the scalar path at batch 8,
        // whatever the data, and still match the interpreted oracle.
        let plan = tiny_plan(vec![1.0, 16777216.0, -16777216.0, 0.0]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 0);
        let lowered = kernel.lowered(&geom);
        assert_eq!(lowered.lane_weight, 1 + 2 * (1 << 24));
        assert!(lowered.lane_weight * 127 > i32::MAX as u64);
        assert_eq!(
            kernel.lane_path(&geom, KernelPath::Portable, LANES, 127),
            KernelPath::Scalar
        );
        // A 7-bit grid fits, so the decision follows the bound alone.
        assert_eq!(
            kernel.lane_path(&geom, KernelPath::Portable, LANES, 63),
            KernelPath::Portable
        );

        let mut rng = TensorRng::seed(22);
        let x = uniform(&mut rng, &[LANES, 1, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (oracle, oracle_counts) = shift_add_conv_reference(&qa, &kernel, 1, 0);
        for path in [KernelPath::Portable, active_path()] {
            let (fast, counts) = shift_add_conv_with_path(&qa, &kernel, 1, 0, path);
            assert_eq!(fast.as_slice(), oracle.as_slice(), "{path}");
            assert_eq!(counts, oracle_counts, "{path}");
        }
    }

    #[test]
    fn lowering_groups_taps_by_shift_with_adds_first() {
        // Exponents -1, 0, 1, -1 → shifts 0, 1, 2, 0 (min exponent -1).
        let plan = tiny_plan(vec![0.5, -1.0, 2.0, -0.5]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let lowered = kernel.lowered(&geom);
        // Padded row width 3: taps (0,0) (0,1) (1,0) (1,1) → 0, 1, 3, 4.
        assert_eq!(lowered.offsets, vec![0, 4, 1, 3]);
        let group = |shift, start, pos_end, neg_end| TapGroup {
            shift,
            start,
            pos_end,
            neg_end,
        };
        assert_eq!(
            lowered.groups,
            vec![group(0, 0, 1, 2), group(1, 2, 2, 3), group(2, 3, 4, 4)]
        );
        assert_eq!(lowered.group_bounds, vec![0, 3]);
        assert_eq!(lowered.max_shift, 2);
        assert_eq!(lowered.lane_weight, 1 + 2 + 4 + 1);
    }

    #[test]
    fn lowered_cache_is_shared_across_clones() {
        let plan = tiny_plan(vec![0.5, -1.0, 0.0, 0.25]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 1);
        let clone = kernel.clone();
        let a = kernel.lowered(&geom);
        let b = clone.lowered(&geom);
        assert!(Arc::ptr_eq(&a, &b), "clones must share lowered programs");
    }
}
