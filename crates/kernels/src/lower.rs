//! Shared geometry machinery for lowered conv kernels: the pad-once
//! layout.
//!
//! Both integer datapaths (shift-add and fixed-point) read their input
//! from **zero-padded planes**: each image's `[c, h, w]` codes sit inside
//! a `[c, h + 2p, w + 2p]` plane whose ring of width `p` holds zeros (see
//! [`PaddedPlane`]). Every kernel tap then lowers once to a flat offset
//! into that plane, and every output position — the border ring
//! included — runs the same branchless program: load, shift (or
//! multiply), accumulate. A padding tap reads a zero and adds exactly 0,
//! so outputs equal the clipped convolution bit for bit.
//!
//! Op accounting still charges only taps that land on real input (see
//! [`OpCounts`](crate::OpCounts)). That is a property of the geometry
//! alone, so it is computed once per lowering by [`executed_taps`]: the
//! **interior** rectangle ([`interior_rect`]), where every tap is real,
//! is counted analytically, and only the thin ring around it is dry-run.
//! The rectangle also feeds the `LoweringStats` geometry gauges; no
//! execution code looks at it.

use flight_tensor::Conv2dGeometry;

use crate::simd::{lane_images, transpose_lanes, KernelPath, LANES};

/// The zero-padded input plane a lowered program reads:
/// `[c, h + 2p, w + 2p]` with the real `[c, h, w]` codes at offset
/// `(p, p)` of every channel and zeros in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PaddedPlane {
    /// Padded height `h + 2p`.
    pub h: usize,
    /// Padded width `w + 2p`.
    pub w: usize,
    /// Codes per image, `c · (h + 2p) · (w + 2p)`.
    pub len: usize,
}

impl PaddedPlane {
    /// The padded plane of `geom`'s input.
    pub fn of(geom: &Conv2dGeometry) -> PaddedPlane {
        let (h, w) = (geom.in_h + 2 * geom.padding, geom.in_w + 2 * geom.padding);
        PaddedPlane {
            h,
            w,
            len: geom.in_channels * h * w,
        }
    }

    /// Flat offset of kernel tap `(ch, ki, kj)` relative to an output
    /// position's window origin.
    pub fn tap_offset(&self, ch: usize, ki: usize, kj: usize) -> u32 {
        (ch * self.h * self.w + ki * self.w + kj) as u32
    }
}

/// How a lowered program sweeps the output map: output `(oi, oj)` reads
/// its window at plane offset `stride · (oi · w + oj)`, where `w` is the
/// padded plane width. Every position, border ring included, uses this
/// one formula.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sweep {
    pub out_h: usize,
    pub out_w: usize,
    pub stride: usize,
    /// Padded plane width.
    pub row: usize,
}

impl Sweep {
    /// The sweep of `geom` over its padded plane.
    pub fn of(geom: &Conv2dGeometry) -> Sweep {
        Sweep {
            out_h: geom.out_h,
            out_w: geom.out_w,
            stride: geom.stride,
            row: PaddedPlane::of(geom).w,
        }
    }

    /// Plane offset of the window origin of output `(oi, oj)`.
    #[inline(always)]
    pub fn origin(&self, oi: usize, oj: usize) -> usize {
        self.stride * (oi * self.row + oj)
    }

    /// Output positions per filter plane.
    pub fn positions(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// A batch of zero-padded input planes as a conv stage's cores read
/// them when they run `path`: `n` images of `[c, h, w]` padded by
/// `padding` on each side, the first [`lane_images`](Self::lane_images)
/// of them lane-major and the rest image-major (see the `simd` module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaneBatch {
    /// Real image dims `[c, h, w]`.
    pub dims: [usize; 3],
    pub padding: usize,
    /// Images in the batch.
    pub n: usize,
    /// The path the conv call runs (not merely requests).
    pub path: KernelPath,
}

/// Code positions a lane block is transposed in at a time.
const CHUNK: usize = 64;

impl PlaneBatch {
    /// The `n` input planes of `geom` for a call running `path`.
    pub fn of(geom: &Conv2dGeometry, n: usize, path: KernelPath) -> PlaneBatch {
        PlaneBatch {
            dims: [geom.in_channels, geom.in_h, geom.in_w],
            padding: geom.padding,
            n,
            path,
        }
    }

    /// Images laid out lane-major: every full block of [`LANES`] on a
    /// lane path, none on the scalar path.
    pub fn lane_images(&self) -> usize {
        lane_images(self.path, self.n)
    }

    /// Codes per padded plane.
    pub fn plane(&self) -> usize {
        let [c, h, w] = self.dims;
        c * (h + 2 * self.padding) * (w + 2 * self.padding)
    }

    /// Real codes per image.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// The runs of real codes in one padded plane: their common length
    /// and the plane offset of each, in source order. An unpadded plane
    /// is one run.
    fn runs(&self) -> (usize, impl Iterator<Item = usize>) {
        let [c, h, w] = self.dims;
        if self.padding == 0 {
            (c * h * w, padded_rows(1, 1, c * h * w, 0))
        } else {
            (w, padded_rows(c, h, w, self.padding))
        }
    }

    /// Writes the real codes of the batch into `codes` (`n` planes
    /// long, ring already zero) in this layout. `image(b)` is called
    /// once per image, in image order, before any of its codes are
    /// written, and produces them (see [`ImageCodes`]). An image-major
    /// image is written in place run by run. The images of a lane block
    /// are read a chunk at a time — borrowed straight from their source
    /// where they are stored verbatim, else staged on the stack — and
    /// transposed into place, one lane vector per code position.
    pub fn fill<S: ImageCodes>(&self, codes: &mut [i32], mut image: impl FnMut(usize) -> S) {
        let (plane, len) = (self.plane(), self.len());
        let (run, _) = self.runs();
        let lane_images = self.lane_images();
        let mut staged = [[0i32; CHUNK]; LANES];
        let mut dsts = [0usize; CHUNK];
        for b0 in (0..lane_images).step_by(LANES) {
            let states: [S; LANES] = std::array::from_fn(|l| image(b0 + l));
            let block = &mut codes[b0 * plane..(b0 + LANES) * plane];
            let mut offs = self.runs().1;
            let (mut off, mut col) = (0, run);
            for start in (0..len).step_by(CHUNK) {
                let k = CHUNK.min(len - start);
                for dst in &mut dsts[..k] {
                    if col == run {
                        (off, col) = (offs.next().expect("a run per source code"), 0);
                    }
                    (*dst, col) = (off + col, col + 1);
                }
                let mut stage = staged.iter_mut();
                let rows: [&[i32]; LANES] = std::array::from_fn(|l| {
                    let stage = stage.next().expect("a stage per lane");
                    states[l].read(start, &mut stage[..k])
                });
                transpose_lanes(self.path, &rows, &dsts[..k], block);
            }
        }
        for b in lane_images..self.n {
            let state = image(b);
            let img = &mut codes[b * plane..(b + 1) * plane];
            for (r, off) in self.runs().1.enumerate() {
                state.write(r * run, &mut img[off..off + run]);
            }
        }
    }
}

/// One image's real codes as [`PlaneBatch::fill`] consumes them, by
/// position in the image's unpadded `[c, h, w]` order.
pub(crate) trait ImageCodes {
    /// Writes the codes at positions `start..start + dst.len()` into
    /// `dst`.
    fn write(&self, start: usize, dst: &mut [i32]);

    /// The same codes, borrowed from where the image stores them
    /// verbatim, or else written into `stage` and borrowed from there.
    fn read<'s>(&'s self, start: usize, stage: &'s mut [i32]) -> &'s [i32] {
        self.write(start, stage);
        stage
    }
}

/// Stored codes are their own source.
impl ImageCodes for &[i32] {
    fn write(&self, start: usize, dst: &mut [i32]) {
        dst.copy_from_slice(&self[start..start + dst.len()]);
    }

    fn read<'s>(&'s self, start: usize, stage: &'s mut [i32]) -> &'s [i32] {
        &self[start..start + stage.len()]
    }
}

/// Copies `n` unpadded `[c, h, w]` planes into zero-padded
/// [`PaddedPlane`]s laid out for a call running `path` — the public
/// conv entry points' adapter from
/// [`QuantActivations`](crate::QuantActivations) to the lowered layout
/// (the engine quantizes straight into that layout instead).
pub(crate) fn pad_planes(codes: &[i32], geom: &Conv2dGeometry, path: KernelPath) -> Vec<i32> {
    let len = geom.in_channels * geom.in_h * geom.in_w;
    let n = codes.len().checked_div(len).unwrap_or(0);
    let batch = PlaneBatch::of(geom, n, path);
    let mut out = vec![0; n * batch.plane()];
    batch.fill(&mut out, |b| &codes[b * len..(b + 1) * len]);
    out
}

/// The destination offset of every real row in `planes` consecutive
/// `h × w` channel planes padded by `p` on each side, in source order.
pub(crate) fn padded_rows(
    planes: usize,
    h: usize,
    w: usize,
    p: usize,
) -> impl Iterator<Item = usize> {
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    (0..planes).flat_map(move |plane| (0..h).map(move |i| (plane * hp + i + p) * wp + p))
}

/// The half-open interior rectangle `[oi_lo, oi_hi) × [oj_lo, oj_hi)` of
/// output positions whose entire kernel window lies on real input (no
/// tap reads the padding ring). Empty rectangles are normalized to
/// `hi == lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InteriorRect {
    pub oi_lo: usize,
    pub oi_hi: usize,
    pub oj_lo: usize,
    pub oj_hi: usize,
}

impl InteriorRect {
    /// Number of interior output positions.
    pub fn positions(&self) -> usize {
        (self.oi_hi - self.oi_lo) * (self.oj_hi - self.oj_lo)
    }

    /// Whether `(oi, oj)` lies in the interior.
    pub fn contains(&self, oi: usize, oj: usize) -> bool {
        (self.oi_lo..self.oi_hi).contains(&oi) && (self.oj_lo..self.oj_hi).contains(&oj)
    }
}

/// One axis of the interior: the output coordinates `o` with
/// `0 <= o·stride − padding` and `o·stride + k − 1 − padding < dim`.
fn interior_axis(
    dim: usize,
    k: usize,
    stride: usize,
    padding: usize,
    out: usize,
) -> (usize, usize) {
    let lo = padding.div_ceil(stride).min(out);
    let hi = if dim + padding >= k {
        ((dim + padding - k) / stride + 1).min(out)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Computes the interior rectangle of `geom`.
pub(crate) fn interior_rect(geom: &Conv2dGeometry) -> InteriorRect {
    let (oi_lo, oi_hi) = interior_axis(
        geom.in_h,
        geom.kernel,
        geom.stride,
        geom.padding,
        geom.out_h,
    );
    let (oj_lo, oj_hi) = interior_axis(
        geom.in_w,
        geom.kernel,
        geom.stride,
        geom.padding,
        geom.out_w,
    );
    InteriorRect {
        oi_lo,
        oi_hi,
        oj_lo,
        oj_hi,
    }
}

/// Executed-tap accounting of one filter's taps (`(ki, kj)` kernel
/// coordinates) over every output position of `geom`: returns
/// `(executed, active)`, the taps that read real input summed over
/// positions, and the positions where at least one did. A tap on the
/// zero ring costs nothing under the [`OpCounts`](crate::OpCounts)
/// conventions, so this — not `taps × positions` — is what a lowered
/// program is charged. Interior positions are counted analytically;
/// only the ring around them is dry-run.
pub(crate) fn executed_taps(geom: &Conv2dGeometry, taps: &[(usize, usize)]) -> (u64, u64) {
    let rect = interior_rect(geom);
    let interior = rect.positions() as u64;
    let mut executed = taps.len() as u64 * interior;
    let mut active = if taps.is_empty() { 0 } else { interior };
    let real = |o: usize, k: usize, dim: usize| {
        (geom.padding..geom.padding + dim).contains(&(o * geom.stride + k))
    };
    for oi in 0..geom.out_h {
        for oj in 0..geom.out_w {
            if rect.contains(oi, oj) {
                continue;
            }
            let t = taps
                .iter()
                .filter(|&&(ki, kj)| real(oi, ki, geom.in_h) && real(oj, kj, geom.in_w))
                .count() as u64;
            executed += t;
            active += u64::from(t > 0);
        }
    }
    (executed, active)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geoms() -> Vec<Conv2dGeometry> {
        let mut out = Vec::new();
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1, 2] {
                    for (h, w) in [(5usize, 7usize), (7, 5), (9, 9), (6, 11), (2, 2)] {
                        if h + 2 * padding >= k && w + 2 * padding >= k {
                            out.push(Conv2dGeometry::new(2, h, w, k, stride, padding));
                        }
                    }
                }
            }
        }
        out
    }

    /// Brute-force interior definition: every (ki, kj) tap in bounds.
    fn is_interior(geom: &Conv2dGeometry, oi: usize, oj: usize) -> bool {
        let k = geom.kernel;
        (0..k).all(|ki| {
            let ii = (oi * geom.stride + ki) as isize - geom.padding as isize;
            ii >= 0 && (ii as usize) < geom.in_h
        }) && (0..k).all(|kj| {
            let jj = (oj * geom.stride + kj) as isize - geom.padding as isize;
            jj >= 0 && (jj as usize) < geom.in_w
        })
    }

    #[test]
    fn rect_matches_bruteforce_interior() {
        for geom in geoms() {
            let rect = interior_rect(&geom);
            for oi in 0..geom.out_h {
                for oj in 0..geom.out_w {
                    assert_eq!(
                        rect.contains(oi, oj),
                        is_interior(&geom, oi, oj),
                        "geom {geom:?} position ({oi},{oj})"
                    );
                }
            }
        }
    }

    #[test]
    fn executed_taps_match_a_signed_bounds_dry_run() {
        for geom in geoms() {
            let k = geom.kernel;
            // A sparse tap pattern: every other kernel cell.
            let taps: Vec<(usize, usize)> = (0..k * k)
                .filter(|i| i % 2 == 0)
                .map(|i| (i / k, i % k))
                .collect();
            let (mut executed, mut active) = (0u64, 0u64);
            for oi in 0..geom.out_h {
                for oj in 0..geom.out_w {
                    let t = taps
                        .iter()
                        .filter(|&&(ki, kj)| {
                            let ii = (oi * geom.stride + ki) as isize - geom.padding as isize;
                            let jj = (oj * geom.stride + kj) as isize - geom.padding as isize;
                            (0..geom.in_h as isize).contains(&ii)
                                && (0..geom.in_w as isize).contains(&jj)
                        })
                        .count() as u64;
                    executed += t;
                    active += u64::from(t > 0);
                }
            }
            assert_eq!(
                executed_taps(&geom, &taps),
                (executed, active),
                "geom {geom:?}"
            );
        }
    }

    #[test]
    fn padded_planes_keep_codes_at_p_p_and_zeros_in_the_ring() {
        let geom = Conv2dGeometry::new(2, 2, 3, 3, 1, 1);
        let codes: Vec<i32> = (1..=2 * 2 * 2 * 3).collect(); // n = 2
        let padded = pad_planes(&codes, &geom, KernelPath::Scalar);
        let plane = PaddedPlane::of(&geom);
        assert_eq!((plane.h, plane.w, plane.len), (4, 5, 2 * 4 * 5));
        assert_eq!(padded.len(), 2 * plane.len);
        assert_eq!(padded.iter().filter(|&&c| c != 0).count(), codes.len());
        for b in 0..2 {
            for ch in 0..2 {
                for i in 0..2 {
                    for j in 0..3 {
                        let src = ((b * 2 + ch) * 2 + i) * 3 + j;
                        let dst = b * plane.len + plane.tap_offset(ch, i + 1, j + 1) as usize;
                        assert_eq!(padded[dst], codes[src]);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_padded_planes_hold_every_image_plane_lane_major() {
        use crate::simd::{active_path, lane_slot};
        for padding in [0, 1, 2] {
            // Nine images: one lane block and one remnant.
            let geom = Conv2dGeometry::new(2, 3, 9, 3, 1, padding);
            let codes: Vec<i32> = (1..=9 * 2 * 3 * 9).collect();
            let flat = pad_planes(&codes, &geom, KernelPath::Scalar);
            let plane = PaddedPlane::of(&geom).len;
            for path in [KernelPath::Portable, active_path()] {
                let blocked = pad_planes(&codes, &geom, path);
                let lanes = lane_images(path, 9);
                assert_eq!(blocked.len(), flat.len());
                for b in 0..9 {
                    let (base, step) = lane_slot(b, plane, lanes);
                    for off in 0..plane {
                        assert_eq!(
                            blocked[base + off * step],
                            flat[b * plane + off],
                            "{path} padding {padding} image {b} offset {off}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_origins_step_by_stride_over_the_padded_row() {
        let geom = Conv2dGeometry::new(1, 7, 7, 3, 2, 1);
        let sweep = Sweep::of(&geom);
        assert_eq!(sweep.row, 9);
        assert_eq!(sweep.origin(0, 0), 0);
        assert_eq!(sweep.origin(0, 1), 2);
        assert_eq!(sweep.origin(1, 0), 18);
        // The last window ends on the last padded row and column.
        let last = sweep.origin(geom.out_h - 1, geom.out_w - 1)
            + PaddedPlane::of(&geom).tap_offset(0, 2, 2) as usize;
        assert_eq!(last, PaddedPlane::of(&geom).len - 1);
    }

    #[test]
    fn zero_padding_stride_one_is_all_interior() {
        let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 0);
        let rect = interior_rect(&geom);
        assert_eq!(rect.positions(), geom.out_positions());
    }

    #[test]
    fn tiny_input_is_all_border() {
        // 3x3 input, 5x5 kernel, padding 1: no position has the full
        // window inside, yet every position still executes real taps.
        let geom = Conv2dGeometry::new(1, 3, 3, 5, 1, 1);
        assert_eq!(interior_rect(&geom).positions(), 0);
        let taps: Vec<(usize, usize)> = (0..25).map(|i| (i / 5, i % 5)).collect();
        let (executed, active) = executed_taps(&geom, &taps);
        assert_eq!(active, geom.out_positions() as u64);
        assert!(executed < 25 * geom.out_positions() as u64);
    }
}
