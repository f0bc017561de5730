//! Batch-major SIMD lanes for the lowered tap programs.
//!
//! The lowered loops of both integer datapaths (`shift.rs`, `fixed.rs`)
//! are branchless but scalar: one load/add per shift tap plus one shift
//! per tap group (or one multiply/add per fixed-point tap) per output
//! position per image. This module vectorizes them
//! **batch-major**: a lane holds the *same spatial position across
//! [`LANES`] images*, so the tap program — offsets, shift amounts,
//! signs, weights — is identical for every element of the lane and
//! broadcasts across it with no per-lane control flow.
//!
//! That requires a layout change. Activations live in per-image
//! zero-padded planes (see the `lower` module), but the images of every
//! full block of [`LANES`] sit **lane-major** inside the block's span of
//! the batch buffer:
//!
//! ```text
//! codes[b0 · plane + off · LANES + l]  is image b0 + l at plane offset off
//! ```
//!
//! i.e. the flat padded `(c, h, w)` offset keeps its meaning and the
//! lane index becomes the innermost (unit-stride) dimension, so every
//! tap load is one contiguous 8 × i32 vector. Remnant images stay
//! image-major (`codes[b · plane + off]`). Because the padding ring is
//! part of the block, one lane program covers the *whole* output map —
//! border positions included — with no scalar fix-up pass. The lane
//! decision depends only on the path, the batch size, the lowered
//! program and the activation bits (see *Exactness*), so a conv stage
//! makes it before quantizing and the quantizer writes every block in
//! this layout directly: there is no pack pass.
//!
//! # Dispatch
//!
//! Three paths share the contract "bit-identical to the interpreted
//! reference":
//!
//! * [`KernelPath::Avx2`] — `core::arch` AVX2 intrinsics, i32×8 lanes;
//! * [`KernelPath::Portable`] — the same lane loops over `[i32; LANES]`
//!   arrays in safe Rust (auto-vectorizes on whatever the target has);
//! * [`KernelPath::Scalar`] — the per-image loop with i64 accumulation
//!   (also the remnant/overflow fallback inside the lane paths).
//!
//! [`active_path`] picks once per process: AVX2 when the CPU has it,
//! unless `FLIGHT_FORCE_SCALAR` pins the scalar path; Portable
//! otherwise. Batches smaller than [`LANES`] and the remnant images of
//! non-multiple batches run the scalar path per image, so logits are
//! invariant under batch composition on every path. [`LaneCtx`] tallies
//! how many images each path actually covered, which is what the
//! engine's profiler reports.
//!
//! # Exactness
//!
//! The scalar cores accumulate in `i64`; the lane cores accumulate in
//! `i32`. They agree bit-for-bit iff the i32 accumulation cannot wrap.
//! Each lowered program records the worst-case per-filter magnitude
//! multiplier (`Σ 2^s` over a filter's taps for the shift path, `Σ |w|`
//! for the fixed path), and the runner takes the lane path only when
//! `bound · multiplier ≤ i32::MAX`, where `bound` caps every code's
//! magnitude. The bound comes from the **quantizer's clamp**, not from
//! the data: every code the engine hands a core comes from `code` in
//! the `qact` module (clamped to `±qmax(act_bits)`), from a regrid copy
//! of such codes (taken only when they already fit that grid), or from
//! a refused slab (all zeros), and the padding ring holds zeros, so the
//! engine passes `bound = qmax(act_bits)` and the decision is a pure
//! function of `(path, n, max_shift, multiplier, act_bits)`. The public
//! conv entry points take caller-built
//! [`QuantActivations`](crate::QuantActivations), whose bits they do
//! not know, and scan those codes for the bound instead. Padding zeros
//! only lower a partial sum's magnitude, so the bound covers border
//! positions too. 8-bit activations with realistic tap programs pass by
//! orders of magnitude; a program that could wrap runs the scalar path
//! instead.
//!
//! The shift lanes compute a **grouped** sum: a filter's taps are
//! grouped by shift amount, each group's codes are summed with plain
//! adds (adding taps and subtracting taps apart), and the difference is
//! shifted once — `Σ_s (Σ⁺a − Σ⁻a) << s` instead of `Σ ±(a << s)`. The
//! lanes run that in wrapping i32 arithmetic. Wrapping i32 is the ring
//! ℤ/2³², where `<< s` is multiplication by `2^s` and distributes over
//! the sums, so the grouped result is congruent to the per-tap sum mod
//! 2³². That sum is the true value and, by the bound above, fits i32,
//! so the grouped lane result equals it exactly, even if a partial
//! group sum wrapped on the way.

use std::sync::OnceLock;

use crate::lower::Sweep;

/// Images per SIMD lane block (i32×8 — one AVX2 register).
pub const LANES: usize = 8;

/// Largest packed shift amount the lane paths accept. Anything bigger
/// would overflow i32 for every nonzero code anyway; the cap also keeps
/// `<<` defined for all-zero planes.
pub(crate) const MAX_LANE_SHIFT: u32 = 30;

/// Environment variable that pins the portable scalar path when set to
/// anything but `0`/empty — the escape hatch for cross-machine perf
/// diffs and for ruling the vectorizer out of a miscompare.
pub const FORCE_SCALAR_ENV: &str = "FLIGHT_FORCE_SCALAR";

/// Which lowered implementation a conv call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 i32×8 lanes over the batch-blocked arena.
    Avx2,
    /// The same lane loops in portable safe Rust (`[i32; LANES]`).
    Portable,
    /// Per-image scalar loops with i64 accumulation — the fallback for
    /// remnant images and accumulator-overflow risks.
    Scalar,
}

impl KernelPath {
    /// Stable label used in telemetry (`kernel.dispatch.<name>`), run
    /// manifests, and `flightctl summarize`.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPath::Avx2 => "avx2",
            KernelPath::Portable => "portable",
            KernelPath::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The SIMD-relevant CPU features of the host, for run-manifest `env`
/// blocks (cross-machine perf diffs need to know what the machine
/// could have dispatched to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 (the feature the lane kernels dispatch on).
    pub avx2: bool,
    /// FMA (not used by the integer kernels; recorded for context).
    pub fma: bool,
    /// SSE4.2 (baseline-ish; recorded for context).
    pub sse4_2: bool,
}

impl CpuFeatures {
    /// Comma-joined list of detected features (`"avx2,fma,sse4.2"`),
    /// or `"none"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.avx2 {
            parts.push("avx2");
        }
        if self.fma {
            parts.push("fma");
        }
        if self.sse4_2 {
            parts.push("sse4.2");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// Runtime-detected CPU features of this host (all `false` off x86_64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            sse4_2: std::arch::is_x86_feature_detected!("sse4.2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            sse4_2: false,
        }
    }
}

/// Whether [`FORCE_SCALAR_ENV`] pins the scalar path (set and not
/// `"0"`).
pub fn force_scalar_env() -> bool {
    force_scalar_value(std::env::var(FORCE_SCALAR_ENV).ok().as_deref())
}

/// The [`FORCE_SCALAR_ENV`] decision for a raw variable value —
/// factored out so tests can pin it without racing on the process
/// environment.
pub fn force_scalar_value(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// One fresh dispatch decision: the environment override, then CPU
/// detection. Prefer [`active_path`], which caches this per process.
pub fn detect_path() -> KernelPath {
    if force_scalar_env() {
        return KernelPath::Scalar;
    }
    if cpu_features().avx2 {
        KernelPath::Avx2
    } else {
        KernelPath::Portable
    }
}

/// The process-wide dispatch decision (detected once, then cached).
pub fn active_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(detect_path)
}

/// Per-context lane state: the requested dispatch decision plus tallies
/// of the path the conv stages actually ran. Owned by the engine's
/// scratch (one per [`ExecCtx`](crate::ExecCtx)).
#[derive(Debug, Clone)]
pub struct LaneCtx {
    path: KernelPath,
    /// Images the lowered cores ran on lane blocks since the last
    /// [`take_engaged`](Self::take_engaged).
    lane_images: u64,
    /// Images the lowered cores ran on the per-image scalar loop since
    /// the last [`take_engaged`](Self::take_engaged).
    scalar_images: u64,
}

impl LaneCtx {
    /// A context on the process-wide [`active_path`].
    pub fn new() -> Self {
        LaneCtx::with_path(active_path())
    }

    /// A context pinned to `path` (tests, benches, and the engine's
    /// `ExecCtx::set_kernel_path`).
    pub fn with_path(path: KernelPath) -> Self {
        LaneCtx {
            path,
            lane_images: 0,
            scalar_images: 0,
        }
    }

    /// The dispatch decision this context requests (the lowered runner
    /// may still fall back to [`KernelPath::Scalar`] per call).
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Re-pins the dispatch decision.
    pub fn set_path(&mut self, path: KernelPath) {
        self.path = path;
    }

    /// Records one conv call's split: `lane` images on lane blocks,
    /// `scalar` on the per-image loop.
    pub(crate) fn note_engaged(&mut self, lane: usize, scalar: usize) {
        self.lane_images += lane as u64;
        self.scalar_images += scalar as u64;
    }

    /// The `(lane, scalar)` image counts the lowered cores engaged since
    /// the last call, resetting both — the path that actually ran, as
    /// opposed to the requested [`path`](Self::path).
    pub fn take_engaged(&mut self) -> (u64, u64) {
        let engaged = (self.lane_images, self.scalar_images);
        self.lane_images = 0;
        self.scalar_images = 0;
        engaged
    }
}

impl Default for LaneCtx {
    fn default() -> Self {
        LaneCtx::new()
    }
}

/// Images of an `n`-image batch that run on lane blocks when a conv
/// call runs `path`: every full block of [`LANES`], or none on
/// [`KernelPath::Scalar`]. The rest run the per-image scalar loop.
pub(crate) fn lane_images(path: KernelPath, n: usize) -> usize {
    if path == KernelPath::Scalar {
        0
    } else {
        n - n % LANES
    }
}

/// Where image `b`'s `plane` codes sit in a batch buffer whose first
/// `lane_images` images are lane-major (see the module docs): plane
/// offset `off` of image `b` is element `base + off · step`. The layout
/// writers produce it without per-code addressing; tests read it back
/// through this.
#[cfg(test)]
pub(crate) fn lane_slot(b: usize, plane: usize, lane_images: usize) -> (usize, usize) {
    if b < lane_images {
        ((b - b % LANES) * plane + b % LANES, LANES)
    } else {
        (b * plane, 1)
    }
}

/// Transposes [`LANES`] image rows of codes into lane-major lane vectors:
/// position `j` of every row lands as one vector at
/// `out[dsts[j] · LANES ..]`, lane `l` holding `rows[l][j]` — how a lane
/// block is written straight from per-image codes (8 × 8 register
/// transposes on [`KernelPath::Avx2`]).
///
/// # Panics
///
/// Panics if a row is shorter than `dsts`, or `dsts` is not increasing
/// or reaches past `out`.
pub(crate) fn transpose_lanes(
    path: KernelPath,
    rows: &[&[i32]; LANES],
    dsts: &[usize],
    out: &mut [i32],
) {
    let k = dsts.len();
    assert!(rows.iter().all(|r| r.len() >= k), "short transpose row");
    assert!(
        dsts.windows(2).all(|d| d[0] < d[1])
            && dsts.last().is_none_or(|&d| (d + 1) * LANES <= out.len()),
        "transpose destinations out of bounds"
    );
    let done = match path {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch only selects Avx2 after
        // `is_x86_feature_detected!("avx2")`; bounds asserted above.
        KernelPath::Avx2 => unsafe { avx2::transpose(rows, dsts, out) },
        _ => 0,
    };
    for (j, &d) in dsts.iter().enumerate().skip(done) {
        for (l, row) in rows.iter().enumerate() {
            out[d * LANES + l] = row[j];
        }
    }
}

use crate::shift::TapGroup;

/// Runs one filter's grouped shift taps over the whole output map of one
/// lane block, dispatching on `path` ([`KernelPath::Scalar`] is the
/// caller's responsibility and never reaches here). `groups` index into
/// `offs` (see `TapGroup`).
///
/// `filter_base` is the flat output index of `(b0, fi, 0, 0)` and
/// `img_stride` the per-image output stride `f · oh · ow`, so lane `l`
/// of position `(oi, oj)` lands at
/// `filter_base + l · img_stride + oi · out_w + oj`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shift_block(
    path: KernelPath,
    block: &[i32],
    offs: &[u32],
    groups: &[TapGroup],
    g: &Sweep,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            // Safety: dispatch only selects Avx2 after
            // `is_x86_feature_detected!("avx2")`.
            avx2::shift_block(
                block,
                offs,
                groups,
                g,
                out,
                filter_base,
                img_stride,
                out_scales,
            )
        },
        _ => shift_block_portable(
            block,
            offs,
            groups,
            g,
            out,
            filter_base,
            img_stride,
            out_scales,
        ),
    }
}

/// Runs one filter's dense fixed-point taps over the whole output map
/// of one lane block (see [`run_shift_block`] for the output indexing
/// contract). `weights` is the filter's `c · k · k` codes,
/// parallel to `offs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fixed_block(
    path: KernelPath,
    block: &[i32],
    offs: &[u32],
    weights: &[i32],
    g: &Sweep,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            // Safety: dispatch only selects Avx2 after
            // `is_x86_feature_detected!("avx2")`.
            avx2::fixed_block(
                block,
                offs,
                weights,
                g,
                out,
                filter_base,
                img_stride,
                out_scales,
            )
        },
        _ => fixed_block_portable(
            block,
            offs,
            weights,
            g,
            out,
            filter_base,
            img_stride,
            out_scales,
        ),
    }
}

/// Output positions one pass of the grouped shift sweep covers: each
/// tap offset is read once for `POSITIONS` neighbouring windows, which
/// amortizes the per-group work and gives the adds independent chains.
const POSITIONS: usize = 4;

/// Calls `run(oj, P)` over one output row in blocks of [`POSITIONS`]
/// positions, then singles for the remainder.
#[inline(always)]
fn for_position_blocks(out_w: usize, mut run: impl FnMut(usize, usize)) {
    let full = out_w - out_w % POSITIONS;
    for oj in (0..full).step_by(POSITIONS) {
        run(oj, POSITIONS);
    }
    for oj in full..out_w {
        run(oj, 1);
    }
}

/// The grouped shift sums of `P` neighbouring windows of one lane block
/// — window `p` starts at lane vector `base + p · step` — in wrapping
/// i32 lanes: per group, the adding taps are added, the subtracting taps
/// subtracted, and the group sum is shifted once into the accumulator.
#[inline(always)]
fn grouped_lanes<const P: usize>(
    block: &[i32],
    base: usize,
    step: usize,
    offs: &[u32],
    groups: &[TapGroup],
) -> [[i32; LANES]; P] {
    let lanes_at = |q: usize| -> &[i32; LANES] {
        block[q * LANES..(q + 1) * LANES]
            .try_into()
            .expect("lane width")
    };
    let mut acc = [[0i32; LANES]; P];
    for grp in groups {
        let mut sum = [[0i32; LANES]; P];
        for &o in &offs[grp.start as usize..grp.pos_end as usize] {
            for (p, sum) in sum.iter_mut().enumerate() {
                let v = lanes_at(base + p * step + o as usize);
                for l in 0..LANES {
                    sum[l] = sum[l].wrapping_add(v[l]);
                }
            }
        }
        for &o in &offs[grp.pos_end as usize..grp.neg_end as usize] {
            for (p, sum) in sum.iter_mut().enumerate() {
                let v = lanes_at(base + p * step + o as usize);
                for l in 0..LANES {
                    sum[l] = sum[l].wrapping_sub(v[l]);
                }
            }
        }
        for (acc, sum) in acc.iter_mut().zip(&sum) {
            for l in 0..LANES {
                acc[l] = acc[l].wrapping_add(sum[l].wrapping_shl(grp.shift));
            }
        }
    }
    acc
}

/// The portable lane implementation of the grouped shift sweep:
/// identical loop structure to the AVX2 version, over `[i32; LANES]`
/// arrays the compiler is free to auto-vectorize. Arithmetic wraps like
/// the AVX2 lanes; the no-wrap bound makes the final sum exact.
#[allow(clippy::too_many_arguments)]
fn shift_block_portable(
    block: &[i32],
    offs: &[u32],
    groups: &[TapGroup],
    g: &Sweep,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    for oi in 0..g.out_h {
        let out_row = filter_base + oi * g.out_w;
        for_position_blocks(g.out_w, |oj, p| {
            let base = g.origin(oi, oj);
            let mut store = |q: usize, acc: &[i32; LANES]| {
                for (l, &scale) in out_scales.iter().enumerate() {
                    out[out_row + oj + q + l * img_stride] = acc[l] as f32 * scale;
                }
            };
            if p == POSITIONS {
                let acc = grouped_lanes::<POSITIONS>(block, base, g.stride, offs, groups);
                acc.iter().enumerate().for_each(|(q, a)| store(q, a));
            } else {
                store(
                    0,
                    &grouped_lanes::<1>(block, base, g.stride, offs, groups)[0],
                );
            }
        });
    }
}

/// The portable lane implementation of the fixed-point sweep.
#[allow(clippy::too_many_arguments)]
fn fixed_block_portable(
    block: &[i32],
    offs: &[u32],
    weights: &[i32],
    g: &Sweep,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    for oi in 0..g.out_h {
        let out_row = filter_base + oi * g.out_w;
        for oj in 0..g.out_w {
            let base = g.origin(oi, oj);
            let mut acc = [0i32; LANES];
            for (&o, &wv) in offs.iter().zip(weights) {
                let p = (base + o as usize) * LANES;
                let lanes: &[i32; LANES] = block[p..p + LANES].try_into().expect("lane width");
                for l in 0..LANES {
                    acc[l] += lanes[l] * wv;
                }
            }
            for (l, &scale) in out_scales.iter().enumerate() {
                out[out_row + oj + l * img_stride] = acc[l] as f32 * scale;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane kernels. Each function carries
    //! `#[target_feature(enable = "avx2")]` and must only be reached
    //! through the runtime-detected dispatch in the parent module.

    use core::arch::x86_64::*;

    use super::LANES;
    use crate::lower::Sweep;
    use crate::shift::TapGroup;

    /// The grouped shift sums of `P` neighbouring windows — window `p`
    /// starts at `src + p · step · LANES` — as i32×8 vectors: per group,
    /// plain vector adds of the adding taps and subtracts of the
    /// subtracting ones, then one shift into the accumulator.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, and every tap of every
    /// window must read a full lane vector inside the block.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn grouped<const P: usize>(
        src: *const i32,
        step: usize,
        offs: &[u32],
        groups: &[TapGroup],
    ) -> [__m256i; P] {
        let mut acc = [_mm256_setzero_si256(); P];
        for grp in groups {
            let mut sum = [_mm256_setzero_si256(); P];
            for &o in &offs[grp.start as usize..grp.pos_end as usize] {
                let q = src.add(o as usize * LANES);
                for (p, sum) in sum.iter_mut().enumerate() {
                    let v = _mm256_loadu_si256(q.add(p * step * LANES) as *const __m256i);
                    *sum = _mm256_add_epi32(*sum, v);
                }
            }
            for &o in &offs[grp.pos_end as usize..grp.neg_end as usize] {
                let q = src.add(o as usize * LANES);
                for (p, sum) in sum.iter_mut().enumerate() {
                    let v = _mm256_loadu_si256(q.add(p * step * LANES) as *const __m256i);
                    *sum = _mm256_sub_epi32(*sum, v);
                }
            }
            let count = _mm_cvtsi32_si128(grp.shift as i32);
            for (acc, sum) in acc.iter_mut().zip(&sum) {
                *acc = _mm256_add_epi32(*acc, _mm256_sll_epi32(*sum, count));
            }
        }
        acc
    }

    /// One filter's grouped shift taps over the whole output map,
    /// i32×8, [`POSITIONS`](super::POSITIONS) windows per pass.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn shift_block(
        block: &[i32],
        offs: &[u32],
        groups: &[TapGroup],
        g: &Sweep,
        out: &mut [f32],
        filter_base: usize,
        img_stride: usize,
        out_scales: &[f32; LANES],
    ) {
        // The raw loads below stay inside `block` iff the last window's
        // furthest tap does; origins grow with (oi, oj), so one check
        // covers every window.
        if g.out_h == 0 || g.out_w == 0 {
            return;
        }
        let last = g.origin(g.out_h - 1, g.out_w - 1);
        let reach = groups
            .iter()
            .flat_map(|grp| &offs[grp.start as usize..grp.neg_end as usize])
            .max()
            .map_or(0, |&o| (last + o as usize + 1) * LANES);
        assert!(
            reach <= block.len(),
            "tap program reads past the lane block"
        );
        let scales = _mm256_loadu_ps(out_scales.as_ptr());
        for oi in 0..g.out_h {
            let out_row = filter_base + oi * g.out_w;
            super::for_position_blocks(g.out_w, |oj, p| {
                // SAFETY: AVX2 is the caller's guarantee; every window at
                // or before `last` reads within `block` (asserted above).
                let src = block.as_ptr().add(g.origin(oi, oj) * LANES);
                let mut store = |q: usize, acc: __m256i| {
                    // `acc as f32 * scale` per lane: cvtdq2ps rounds to
                    // nearest even like `as f32`.
                    let mut lanes = [0f32; LANES];
                    let scaled = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), scales);
                    _mm256_storeu_ps(lanes.as_mut_ptr(), scaled);
                    for (l, &v) in lanes.iter().enumerate() {
                        out[out_row + oj + q + l * img_stride] = v;
                    }
                };
                if p == super::POSITIONS {
                    let acc = grouped::<{ super::POSITIONS }>(src, g.stride, offs, groups);
                    acc.iter().enumerate().for_each(|(q, &a)| store(q, a));
                } else {
                    store(0, grouped::<1>(src, g.stride, offs, groups)[0]);
                }
            });
        }
    }

    /// Transposes the full 8-position groups of `rows` into `out` (see
    /// [`transpose_lanes`](super::transpose_lanes)), returning how many
    /// positions it moved.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, that every row holds at
    /// least `dsts.len()` codes, and that every `(dsts[j] + 1) · LANES`
    /// is at most `out.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn transpose(
        rows: &[&[i32]; LANES],
        dsts: &[usize],
        out: &mut [i32],
    ) -> usize {
        let full = dsts.len() / LANES * LANES;
        for j in (0..full).step_by(LANES) {
            // SAFETY: `j + LANES <= dsts.len() <= rows[l].len()`, and the
            // stores stay below `out.len()` (the caller's guarantee).
            let r: [__m256i; LANES] = core::array::from_fn(|l| {
                _mm256_loadu_si256(rows[l].as_ptr().add(j) as *const __m256i)
            });
            // Pairs, then quads, then 128-bit halves: row l of the 8 × 8
            // tile becomes column l.
            let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
            let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
            let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
            let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
            let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
            let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
            let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
            let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
            let u0 = _mm256_unpacklo_epi64(t0, t2);
            let u1 = _mm256_unpackhi_epi64(t0, t2);
            let u2 = _mm256_unpacklo_epi64(t1, t3);
            let u3 = _mm256_unpackhi_epi64(t1, t3);
            let u4 = _mm256_unpacklo_epi64(t4, t6);
            let u5 = _mm256_unpackhi_epi64(t4, t6);
            let u6 = _mm256_unpacklo_epi64(t5, t7);
            let u7 = _mm256_unpackhi_epi64(t5, t7);
            let cols = [
                _mm256_permute2x128_si256::<0x20>(u0, u4),
                _mm256_permute2x128_si256::<0x20>(u1, u5),
                _mm256_permute2x128_si256::<0x20>(u2, u6),
                _mm256_permute2x128_si256::<0x20>(u3, u7),
                _mm256_permute2x128_si256::<0x31>(u0, u4),
                _mm256_permute2x128_si256::<0x31>(u1, u5),
                _mm256_permute2x128_si256::<0x31>(u2, u6),
                _mm256_permute2x128_si256::<0x31>(u3, u7),
            ];
            for (i, col) in cols.iter().enumerate() {
                let dst = out.as_mut_ptr().add(dsts[j + i] * LANES);
                _mm256_storeu_si256(dst as *mut __m256i, *col);
            }
        }
        full
    }

    /// One filter's dense fixed-point taps over the whole output map,
    /// i32×8 multiplies (`vpmulld`).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn fixed_block(
        block: &[i32],
        offs: &[u32],
        weights: &[i32],
        g: &Sweep,
        out: &mut [f32],
        filter_base: usize,
        img_stride: usize,
        out_scales: &[f32; LANES],
    ) {
        let src = block.as_ptr();
        for oi in 0..g.out_h {
            let out_row = filter_base + oi * g.out_w;
            for oj in 0..g.out_w {
                let base = g.origin(oi, oj);
                let mut acc = _mm256_setzero_si256();
                for (&o, &wv) in offs.iter().zip(weights) {
                    let p = (base + o as usize) * LANES;
                    debug_assert!(p + LANES <= block.len());
                    let v = _mm256_loadu_si256(src.add(p) as *const __m256i);
                    let w = _mm256_set1_epi32(wv);
                    acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(v, w));
                }
                let mut lanes = [0i32; LANES];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                for (l, &scale) in out_scales.iter().enumerate() {
                    out[out_row + oj + l * img_stride] = lanes[l] as f32 * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_value_semantics() {
        assert!(!force_scalar_value(None));
        assert!(!force_scalar_value(Some("")));
        assert!(!force_scalar_value(Some("0")));
        assert!(force_scalar_value(Some("1")));
        assert!(force_scalar_value(Some("true")));
    }

    #[test]
    fn detected_path_is_consistent_with_features() {
        // Whatever this host is, the cached decision must agree with a
        // fresh detection and never pick AVX2 without the feature.
        let path = active_path();
        assert_eq!(path, detect_path());
        if path == KernelPath::Avx2 {
            assert!(cpu_features().avx2);
        }
    }

    #[test]
    fn feature_label_is_stable() {
        let all = CpuFeatures {
            avx2: true,
            fma: true,
            sse4_2: true,
        };
        assert_eq!(all.label(), "avx2,fma,sse4.2");
        let none = CpuFeatures {
            avx2: false,
            fma: false,
            sse4_2: false,
        };
        assert_eq!(none.label(), "none");
    }

    #[test]
    fn lane_slots_tile_the_batch_buffer() {
        // 2 "pixels" per image, 19 images: two lane-major blocks, then
        // three image-major remnants. Every element is claimed once.
        let (plane, n) = (2, 19);
        let lanes = lane_images(KernelPath::Portable, n);
        assert_eq!(lanes, 16);
        assert_eq!(lane_images(KernelPath::Scalar, n), 0);
        let mut owner = vec![None; n * plane];
        for b in 0..n {
            let (base, step) = lane_slot(b, plane, lanes);
            for off in 0..plane {
                let slot = &mut owner[base + off * step];
                assert_eq!(*slot, None, "image {b} offset {off}");
                *slot = Some((b, off));
            }
        }
        // Lane-major inside a block: offset-major, image-minor.
        assert_eq!(owner[LANES * plane + 3], Some((LANES + 3, 0)));
        assert_eq!(owner[LANES * plane + LANES + 3], Some((LANES + 3, 1)));
        assert_eq!(owner[16 * plane + 1], Some((16, 1)));
    }

    #[test]
    fn lane_transposes_scatter_every_position_and_tail() {
        let rows: [Vec<i32>; LANES] =
            std::array::from_fn(|l| (0..20).map(|j| (l * 100 + j) as i32).collect());
        let rows: [&[i32]; LANES] = std::array::from_fn(|l| &rows[l][..]);
        let mut paths = vec![KernelPath::Scalar, KernelPath::Portable];
        if cpu_features().avx2 {
            paths.push(KernelPath::Avx2);
        }
        for k in 0..=20 {
            // Runs of three positions with one-position gaps, as padded
            // rows are laid out.
            let dsts: Vec<usize> = (0..k).map(|j| j + j / 3).collect();
            let len = dsts.last().map_or(0, |d| (d + 1) * LANES);
            let mut want = vec![-1; len + 3];
            for (j, &d) in dsts.iter().enumerate() {
                for l in 0..LANES {
                    want[d * LANES + l] = rows[l][j];
                }
            }
            for &path in &paths {
                let mut out = vec![-1; len + 3];
                transpose_lanes(path, &rows, &dsts, &mut out);
                assert_eq!(out, want, "{path} k {k}");
            }
        }
    }

    #[test]
    fn engaged_tallies_accumulate_and_reset() {
        let mut lanes = LaneCtx::with_path(KernelPath::Portable);
        lanes.note_engaged(8, 1);
        lanes.note_engaged(0, 3);
        assert_eq!(lanes.take_engaged(), (8, 4));
        assert_eq!(lanes.take_engaged(), (0, 0), "take resets");
    }

    #[test]
    fn path_names_round_trip_through_display() {
        for path in [KernelPath::Avx2, KernelPath::Portable, KernelPath::Scalar] {
            assert_eq!(path.to_string(), path.name());
        }
    }
}
