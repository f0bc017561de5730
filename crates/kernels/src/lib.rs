//! Multiplier-free integer inference kernels.
//!
//! The paper's hardware claim is that a LightNN/FLightNN multiplication
//! is `k` barrel shifts and `k−1` adds instead of a fixed-point multiply.
//! This crate implements both arithmetic styles *in software, over actual
//! integers*, so the claim can be exercised end-to-end:
//!
//! * [`qact`] — 8-bit activation quantization into integer planes,
//! * [`fixed`] — fixed-point convolution with true integer multiplies
//!   (the FP 4W8A baseline's datapath),
//! * [`shift`] — shift-add convolution driven by the
//!   [`ShiftPlan`](flightnn::convert::ShiftPlan) of a quantized layer
//!   (the (F)LightNN datapath),
//! * [`counts`] — operation counting shared with the ASIC energy model
//!   (see [`OpCounts`] for the exact per-datapath conventions),
//! * [`engine`] — whole-network integer inference: compile a trained
//!   `QuantNet` with [`CompiledNet::compile`] into a multiplier-free
//!   deployment pipeline (optionally folding batch norms) and run it
//!   with [`CompiledNet::forward`] through a per-caller [`ExecCtx`]
//!   (scratch arenas, kernel path, telemetry). A `CompiledNet` is
//!   `Send + Sync`: concurrent callers share one behind an `Arc`, each
//!   with its own context, and every forward walks the stages in one
//!   observed loop (untraced, traced, or profiled). Activations are
//!   quantized with one scale per image, so an image's logits do not
//!   depend on its batchmates.
//!
//! Both integer datapaths run **lowered tap programs** over a pad-once
//! layout: each conv stage fills a zero-padded plane `[c, h + 2p, w + 2p]`
//! per image (held in the engine's per-context scratch), and each kernel
//! is compiled once per layer geometry into flat `u32` offsets into that
//! plane (the `lower` module). The shift path groups each filter's taps
//! by shift amount: a small `[shift, start, pos_end, neg_end]` table per
//! filter says which offsets are summed, with plain adds, before one
//! shift per group. Every output position, border ring included, then
//! runs one branchless program: a padding tap reads a zero and adds
//! exactly 0.
//! Full blocks of [`LANES`] images run it on the batch-major SIMD lanes
//! ([`simd`]) over the whole output map; remnant images run it per
//! image. Op accounting is hoisted out of the loops entirely (a one-time
//! count of the taps that land on real input). The interpreted loops
//! are retained as [`shift_add_conv_reference`] /
//! [`fixed_point_conv_reference`] — the parity oracles (bit-identical
//! logits *and* counts, enforced by proptests) and the baselines of the
//! `lowering` bench exhibit.
//!
//! Both kernels are validated bit-for-bit against the floating-point
//! reference convolution of the same quantized values.

pub mod counts;
pub mod engine;
pub mod fixed;
mod lower;
pub mod qact;
pub mod shift;
pub mod simd;

pub use counts::OpCounts;
pub use engine::{CompiledNet, ExecCtx};
pub use fixed::{fixed_point_conv, fixed_point_conv_reference, fixed_point_conv_with_path};
pub use qact::QuantActivations;
pub use shift::{
    shift_add_conv, shift_add_conv_reference, shift_add_conv_with_path, LoweringStats,
    ShiftCompileError, ShiftKernel,
};
pub use simd::{active_path, cpu_features, CpuFeatures, KernelPath, FORCE_SCALAR_ENV, LANES};
