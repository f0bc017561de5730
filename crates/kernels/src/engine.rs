//! Whole-network integer inference.
//!
//! [`CompiledNet::compile`] lowers a trained
//! [`QuantNet`](flightnn::QuantNet) into a deployment pipeline where
//! every convolution and fully connected layer runs on the integer
//! kernels of this crate — shift-add for (F)LightNN weights, integer
//! multiply for fixed-point weights.
//!
//! Between integer layers activations stay integer. Compilation fuses
//! every `Conv → [BatchNorm] → [LeakyReLU] → [ActQuant]` run into one
//! conv stage: its epilogue applies the bias, the batch-norm affine and
//! the LeakyReLU in place over the conv's f32 output (in the f32
//! operation order of the standalone layers), then quantizes each image
//! into 8-bit codes plus one scale, held in code arenas of the
//! [`ExecCtx`] scratch. Max pooling and flatten run on those codes (max
//! commutes with `c ↦ c · s` for `s ≥ 0`), and the next conv or linear
//! layer takes them directly: it replays the scale its own quantizer
//! would derive from the dequantized values, copies the codes when that
//! scale is unchanged and translates them through a per-image map
//! otherwise. Codes are dequantized only for float consumers — a
//! residual add, global average pooling, and the logits. Network 1
//! compiles to 12 stages (7 fused convs, 3 pools, flatten, linear), and
//! its logits are bit-identical to running each layer on its own,
//! re-quantizing dequantized floats at every conv (`tests/golden.rs`
//! pins that).
//!
//! The engine surface is split **request-first**: [`CompiledNet`] is the
//! immutable, `Send + Sync` compile-time half (the lowered stage list)
//! and [`ExecCtx`] is the per-call half (scratch arenas, kernel path,
//! telemetry). N concurrent callers share one `Arc<CompiledNet>` and
//! bring their own `ExecCtx` — the shape a long-running inference
//! service needs, and what makes hot model swap a plain atomic `Arc`
//! publish. Parallelism lives there, across whole batches: one forward
//! runs on its caller's thread.
//!
//! Every forward walks the stages in one loop, `run_stages` (its body,
//! `walk`, also runs residual branches), generic over a `StageObserver`:
//! [`CompiledNet::forward`] runs it with the zero-sized `Unobserved`
//! (the uninstrumented hot loop) or, with a live sink, a `Tracer`
//! (spans and per-stage counters), and
//! [`CompiledNet::forward_profiled`] with a `Profiler` filling a
//! [`StageSample`]. Observers only watch, so logits and op counts are
//! the same bits whichever one runs.
//!
//! Activations are quantized with one scale **per image**, so each
//! image's integer pipeline is independent of its batchmates: an
//! image's logits do not depend on the batch it was coalesced into.
//!
//! The compiled network reports aggregate [`OpCounts`], so a single
//! forward pass measures exactly how many shifts/multiplies/adds the
//! model costs — the numbers the ASIC energy model prices.

use std::borrow::Cow;
use std::time::Instant;

use flight_nn::layers::MaxPool2d;
use flight_telemetry::{Span, StageSample, Telemetry};
use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::convert::shift_plan;
use flightnn::layers::{QuantConv2d, QuantLinear};
use flightnn::net::{NetLayer, QuantNet};

use crate::counts::OpCounts;
use crate::fixed::{fixed_point_conv_core, FixedWeights};
use crate::lower::PlaneBatch;
use crate::qact::{code_bound, Coder, QuantActivations};
use crate::shift::{shift_add_conv_core, ShiftKernel};
use crate::simd::{KernelPath, LaneCtx};

/// How a compiled conv/linear layer multiplies.
#[derive(Debug, Clone)]
pub(crate) enum IntWeights {
    /// Shift-add taps ((F)LightNN).
    Shift(ShiftKernel),
    /// Integer multiplies (fixed-point baseline).
    Fixed(FixedWeights),
    /// Float fallback (full-precision models; kept so any `QuantNet`
    /// compiles).
    Float(Tensor),
}

#[derive(Debug, Clone)]
pub(crate) enum IntLayer {
    /// A conv with its fused epilogue.
    Conv {
        weights: IntWeights,
        bias: Tensor,
        stride: usize,
        padding: usize,
        act_bits: u32,
        epilogue: Epilogue,
    },
    /// Per-channel `y = scale·x + bias` (a batch norm at inference time)
    /// that no conv absorbed.
    Affine {
        scale: Tensor,
        bias: Tensor,
    },
    LeakyRelu {
        slope: f32,
    },
    MaxPool {
        window: usize,
    },
    GlobalAvgPool,
    Flatten,
    Linear {
        weights: IntWeights,
        bias: Tensor,
        act_bits: u32,
    },
    Residual {
        main: Vec<IntLayer>,
        shortcut: Option<Vec<IntLayer>>,
        slope: f32,
    },
    /// 8-bit activation requantization that no conv absorbed: float in,
    /// codes out.
    Requant,
}

/// What a conv stage does to its float output before handing it on, in
/// this order, element by element: the conv bias, an absorbed batch-norm
/// affine, an absorbed LeakyReLU, and an absorbed requantization into
/// per-image 8-bit codes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Epilogue {
    /// Per-channel `(scale, bias)`.
    affine: Option<(Tensor, Tensor)>,
    /// LeakyReLU slope.
    leaky: Option<f32>,
    /// Whether the stage hands on 8-bit codes instead of floats.
    requant: bool,
}

/// The bits every requantization (fused or not) quantizes to.
const REQUANT_BITS: u32 = 8;

/// Errors from [`CompiledNet::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A plain layer the compiler does not recognize.
    UnsupportedLayer(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnsupportedLayer(name) => {
                write!(f, "cannot compile layer '{name}' to the integer pipeline")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Reusable per-context buffers: the padded integer planes a conv stage
/// reads, the float accumulator a fused conv stage's epilogue works in,
/// the code arenas requantized activations travel between stages in,
/// and the lane context (dispatch path plus engaged-path tallies).
/// Every buffer grows to the largest stage once and is reused from then
/// on, so a warmed walk allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Integer activation codes over the whole batch; conv stages write
    /// one zero-padded plane per image here, full lane blocks lane-major
    /// (see `PlaneBatch`).
    pub codes: Vec<i32>,
    /// One quantization scale per image.
    pub scales: Vec<f32>,
    /// A fused conv stage's float output, before it is requantized.
    pub acc: Vec<f32>,
    /// Requantized activations between stages. A straight pipeline
    /// ping-pongs between two; a residual block holds its input's arena
    /// while its branches run, which may add a third.
    pub arenas: Vec<CodeArena>,
    /// Kernel dispatch path plus the lane/scalar images the conv stages
    /// engaged.
    pub lanes: LaneCtx,
}

/// One image batch of requantized activations, `codes · scale` per
/// image, each image's largest code magnitude (recorded by whichever
/// stage wrote the codes, so no consumer scans for it), plus the number
/// of live readers.
#[derive(Debug, Default)]
pub(crate) struct CodeArena {
    pub codes: Vec<i32>,
    pub scales: Vec<f32>,
    pub cmax: Vec<u32>,
    readers: u32,
}

impl Scratch {
    /// An arena no live value reads, now with one reader.
    pub fn acquire(&mut self) -> usize {
        let free = self.arenas.iter().position(|a| a.readers == 0);
        let i = free.unwrap_or_else(|| {
            self.arenas.push(CodeArena::default());
            self.arenas.len() - 1
        });
        self.arenas[i].readers = 1;
        i
    }

    /// Adds a reader to arena `i` (a residual block's second branch).
    pub fn retain(&mut self, i: usize) {
        self.arenas[i].readers += 1;
    }

    /// Drops one reader of arena `i`; with none left it is free.
    pub fn release(&mut self, i: usize) {
        self.arenas[i].readers -= 1;
    }
}

/// The immutable, shareable half of a compiled network: the lowered
/// stage list and nothing else.
///
/// A `CompiledNet` is `Send + Sync` — it holds no scratch buffers and no
/// telemetry handle, so any number of threads can run
/// [`CompiledNet::forward`] on one instance concurrently, each with its
/// own [`ExecCtx`]. This is the type a long-running service shares
/// behind an `Arc`: the serve crate's hot-swap slot publishes an
/// `Arc<CompiledNet>` and every server worker clones the `Arc` on its
/// read path.
///
/// # Example
///
/// ```
/// use flight_kernels::{CompiledNet, ExecCtx};
/// use flight_tensor::{Tensor, TensorRng};
/// use flightnn::{configs::NetworkConfig, QuantScheme};
///
/// # fn main() -> Result<(), flight_kernels::engine::CompileError> {
/// let mut rng = TensorRng::seed(0);
/// let mut net = NetworkConfig::by_id(1)
///     .build(&QuantScheme::l1(), &mut rng, 10, [3, 16, 16], 0.25);
/// let engine = CompiledNet::compile(&mut net, false)?;
/// let mut ctx = ExecCtx::new();
/// let x = Tensor::zeros(&[1, 3, 16, 16]);
/// let (logits, counts) = engine.forward(&x, &mut ctx);
/// assert_eq!(logits.dims(), &[1, 10]);
/// assert_eq!(counts.int_mults, 0); // multiplier-free
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNet {
    layers: Vec<IntLayer>,
}

// The whole point of the split: compiled state must be shareable across
// server workers, per-call state must at least move into a worker.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<CompiledNet>();
    assert_send::<ExecCtx>();
};

/// Per-call execution state: the reusable activation-quantization
/// scratch arenas, the kernel dispatch path, and the telemetry handle
/// events of this call are attributed to.
///
/// An `ExecCtx` is cheap to create but worth keeping: the scratch
/// buffers grow to the largest activation plane once and are reused by
/// every later forward, so a server worker holds one `ExecCtx` for its
/// lifetime while the `CompiledNet` underneath it may be hot-swapped
/// between calls.
#[derive(Debug, Default)]
pub struct ExecCtx {
    scratch: Scratch,
    telemetry: Telemetry,
}

impl ExecCtx {
    /// A fresh context with empty scratch and the null telemetry sink.
    pub fn new() -> Self {
        ExecCtx::default()
    }

    /// A fresh context whose forwards emit through `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        ExecCtx {
            scratch: Scratch::default(),
            telemetry,
        }
    }

    /// Replaces the telemetry handle, keeping the warmed-up scratch.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle forwards through this context emit to.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The kernel dispatch path forwards through this context request
    /// (defaults to the process-wide detected path; individual conv
    /// calls may still fall back to scalar for small batches or
    /// overflow-risky programs).
    pub fn kernel_path(&self) -> KernelPath {
        self.scratch.lanes.path()
    }

    /// Re-pins the kernel dispatch path, keeping the warmed-up scratch —
    /// `set_kernel_path(KernelPath::Scalar)` is the programmatic form of
    /// the [`FLIGHT_FORCE_SCALAR`](crate::FORCE_SCALAR_ENV) escape hatch.
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.scratch.lanes.set_path(path);
    }
}

/// What `run_stages` reports each stage to. Both hooks default to
/// nothing, so an observer overrides only what it watches. A residual
/// block is one stage: its branches run unobserved inside it.
trait StageObserver {
    /// Stage `index`, of kind `kind`, is about to run; `counts` holds
    /// the forward's op totals so far.
    fn enter(
        &mut self,
        _telemetry: &Telemetry,
        _index: usize,
        _kind: &'static str,
        _counts: &OpCounts,
    ) {
    }

    /// The stage just ran; `lanes` holds the lane and scalar images its
    /// integer kernels engaged (see [`LaneCtx::take_engaged`]).
    fn exit(&mut self, _telemetry: &Telemetry, _counts: &OpCounts, _lanes: &mut LaneCtx) {}
}

/// The zero-sized observer of the uninstrumented hot loop.
struct Unobserved;

impl StageObserver for Unobserved {}

/// A live sink's observer: a `kernel.stage.<i>.<kind>` span around each
/// stage plus one counter per nonzero [`OpCounts`] field it spent, and
/// whether any stage engaged the SIMD lanes.
#[derive(Default)]
struct Tracer {
    stage: Option<(String, Span, OpCounts)>,
    lanes: bool,
}

impl StageObserver for Tracer {
    fn enter(
        &mut self,
        telemetry: &Telemetry,
        index: usize,
        kind: &'static str,
        counts: &OpCounts,
    ) {
        let name = format!("kernel.stage.{index:02}.{kind}");
        let span = telemetry.span(&name);
        self.stage = Some((name, span, *counts));
    }

    fn exit(&mut self, telemetry: &Telemetry, counts: &OpCounts, lanes: &mut LaneCtx) {
        if let Some((name, span, before)) = self.stage.take() {
            drop(span);
            for (field, n) in counts.delta(before).fields() {
                if n > 0 {
                    telemetry.counter(&format!("{name}.{field}"), n, "op");
                }
            }
        }
        self.lanes |= lanes.take_engaged().0 > 0;
    }
}

/// The sampling profiler's observer: per-stage wall nanoseconds, op
/// totals and engaged lane/scalar images into a [`StageSample`]. It
/// emits nothing and allocates nothing.
struct Profiler<'s> {
    sample: &'s mut StageSample,
    kind: &'static str,
    before: OpCounts,
    start: Instant,
    lanes: bool,
}

impl StageObserver for Profiler<'_> {
    fn enter(&mut self, _: &Telemetry, _: usize, kind: &'static str, counts: &OpCounts) {
        self.kind = kind;
        self.before = *counts;
        self.start = Instant::now();
    }

    fn exit(&mut self, _: &Telemetry, counts: &OpCounts, lanes: &mut LaneCtx) {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let (lane, scalar) = lanes.take_engaged();
        self.lanes |= lane > 0;
        self.sample.record_kernel_stage(
            self.kind,
            wall_ns,
            counts.delta(self.before).total(),
            lane,
            scalar,
        );
    }
}

/// The path a forward actually ran: the requested lane path if any stage
/// engaged the lanes, `scalar` otherwise (a batch smaller than one lane
/// block never shows as `avx2`).
fn ran_path(requested: KernelPath, any_lanes: bool) -> KernelPath {
    if any_lanes {
        requested
    } else {
        KernelPath::Scalar
    }
}

impl CompiledNet {
    /// Lowers a trained network to the integer stage list, fusing each
    /// conv with the batch norm, LeakyReLU and requantization that
    /// follow it.
    ///
    /// With `fold_batch_norm`, each conv's bias folds into the following
    /// batch norm's bias first — `a·(v + cb) + b` becomes
    /// `a·v + (a·cb + b)`, the standard deployment transform. This is
    /// not bit-identical: the two forms round differently in f32, so
    /// folded logits agree with unfolded ones to about 1e-5, not bit for
    /// bit. The stage count is the same either way.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedLayer`] for plain layers the
    /// integer pipeline does not know (none are produced by
    /// [`NetworkConfig::build`](flightnn::configs::NetworkConfig::build)).
    pub fn compile(net: &mut QuantNet, fold_batch_norm: bool) -> Result<Self, CompileError> {
        let mut layers = compile_layers(net)?;
        if fold_batch_norm {
            fold_affines(&mut layers);
        }
        Ok(CompiledNet {
            layers: fuse_epilogues(layers),
        })
    }

    /// Number of pipeline stages (after epilogue fusion).
    pub fn stages(&self) -> usize {
        self.layers.len()
    }

    /// Runs the pipeline on a float input batch `[n, …]` through `ctx`'s
    /// scratch arenas, returning the logits and the integer-op counts of
    /// this pass.
    ///
    /// With the null sink this is the uninstrumented hot loop. With a
    /// live telemetry handle on the context the pass is bracketed by a
    /// `kernel.forward` span; every stage `i` emits a
    /// `kernel.stage.<i>.<kind>` span plus one counter per nonzero
    /// [`OpCounts`] field it spent; every activation quantization
    /// reports `kernel.qact.<conv|linear|requant>.saturated` /
    /// `.quantized` counters (codes at the representable rail vs codes
    /// produced, the clamp-rate signal `flightctl health` checks); and
    /// after the walk a `kernel.dispatch.<path>` gauge names the path
    /// that actually ran (the rule of
    /// [`forward_profiled`](Self::forward_profiled)).
    pub fn forward(&self, input: &Tensor, ctx: &mut ExecCtx) -> (Tensor, OpCounts) {
        if !ctx.telemetry.enabled() {
            return self.run_stages(input, ctx, &mut Unobserved);
        }
        let span = ctx.telemetry.span("kernel.forward");
        ctx.scratch.lanes.take_engaged();
        let mut tracer = Tracer::default();
        let result = self.run_stages(input, ctx, &mut tracer);
        let ran = ran_path(ctx.kernel_path(), tracer.lanes);
        ctx.telemetry
            .gauge(&format!("kernel.dispatch.{}", ran.name()), 1.0, "path");
        drop(span);
        result
    }

    /// Runs the pipeline while filling `sample` with per-stage wall
    /// nanoseconds, op totals, and the images each integer conv stage
    /// ran on SIMD lane blocks vs the per-image scalar loop — the
    /// [`StageProf`](flight_telemetry::StageProf) hook the serving
    /// profiler uses for 1-in-N sampled requests.
    ///
    /// The sample's path tag is the path that actually ran: the
    /// requested lane path if any stage engaged the lanes, `scalar`
    /// otherwise (a batch smaller than one lane block never shows as
    /// `avx2`).
    ///
    /// Unlike a traced [`forward`](Self::forward), this emits no spans,
    /// no counters, and allocates nothing: each stage costs one
    /// `Instant::now()` pair and a few array stores into the
    /// caller-owned scratch. The logits and op counts are bit-identical
    /// to every other forward.
    pub fn forward_profiled(
        &self,
        input: &Tensor,
        ctx: &mut ExecCtx,
        sample: &mut StageSample,
    ) -> (Tensor, OpCounts) {
        sample.reset();
        sample.set_images(input.dims().first().copied().unwrap_or(0) as u64);
        ctx.scratch.lanes.take_engaged();
        let mut profiler = Profiler {
            sample,
            kind: "",
            before: OpCounts::default(),
            start: Instant::now(),
            lanes: false,
        };
        let result = self.run_stages(input, ctx, &mut profiler);
        let ran = ran_path(ctx.kernel_path(), profiler.lanes);
        profiler.sample.set_path(ran.name());
        result
    }

    /// Walks the stage list over `input` under `obs`. The input is
    /// borrowed for the first stage (no upfront clone); `ctx`'s scratch
    /// holds the reusable planes, accumulators and code arenas.
    fn run_stages<O: StageObserver>(
        &self,
        input: &Tensor,
        ctx: &mut ExecCtx,
        obs: &mut O,
    ) -> (Tensor, OpCounts) {
        let mut counts = OpCounts::default();
        let out = walk(
            &self.layers,
            &ctx.telemetry,
            Act::Float(Cow::Borrowed(input)),
            &mut counts,
            &mut ctx.scratch,
            obs,
        );
        (out.into_float(&mut ctx.scratch).into_owned(), counts)
    }
}

/// Short stage label used in telemetry event names.
fn stage_kind(layer: &IntLayer) -> &'static str {
    match layer {
        IntLayer::Conv { .. } => "conv",
        IntLayer::Affine { .. } => "affine",
        IntLayer::LeakyRelu { .. } => "leaky_relu",
        IntLayer::MaxPool { .. } => "maxpool",
        IntLayer::GlobalAvgPool => "global_avg_pool",
        IntLayer::Flatten => "flatten",
        IntLayer::Linear { .. } => "linear",
        IntLayer::Residual { .. } => "residual",
        IntLayer::Requant => "requant",
    }
}

fn compile_layers(net: &mut QuantNet) -> Result<Vec<IntLayer>, CompileError> {
    let mut out = Vec::new();
    for layer in net.layers_mut() {
        match layer {
            NetLayer::Conv(conv) => out.push(compile_conv(conv)),
            NetLayer::Linear(lin) => out.push(compile_linear(lin)),
            NetLayer::Residual(block) => {
                let slope = block.activation_slope();
                let main = compile_layers(block.main_mut())?;
                let shortcut = match block.shortcut_mut() {
                    Some(sc) => Some(compile_layers(sc)?),
                    None => None,
                };
                out.push(IntLayer::Residual {
                    main,
                    shortcut,
                    slope,
                });
            }
            NetLayer::Plain(boxed) => {
                let any: &mut dyn flight_nn::Layer = boxed.as_mut();
                let name = any.name();
                if name.starts_with("batchnorm2d") {
                    // Downcast-free extraction: rebuild the affine from a
                    // second forward pass is fragile; instead we re-read
                    // the known concrete types via trait-object name +
                    // unsafe-free re-dispatch below.
                    out.push(compile_batchnorm_by_probe(any, &name)?);
                } else if let Some(slope) = parse_leaky(&name) {
                    out.push(IntLayer::LeakyRelu { slope });
                } else if let Some(win) = parse_pool(&name) {
                    out.push(IntLayer::MaxPool { window: win });
                } else if name == "global_avg_pool" {
                    out.push(IntLayer::GlobalAvgPool);
                } else if name == "flatten" {
                    out.push(IntLayer::Flatten);
                } else if name.starts_with("act_quant") {
                    out.push(IntLayer::Requant);
                } else {
                    return Err(CompileError::UnsupportedLayer(name));
                }
            }
        }
    }
    Ok(out)
}

/// Extracts the inference-time affine of a batch norm by probing it with
/// basis inputs: for eval-mode BN, `y = a·x + b` per channel, so `b =
/// BN(0)` and `a = BN(1) − b`. This keeps the compiler decoupled from the
/// layer's private fields.
fn compile_batchnorm_by_probe(
    layer: &mut dyn flight_nn::Layer,
    name: &str,
) -> Result<IntLayer, CompileError> {
    let channels: usize = name
        .trim_start_matches("batchnorm2d(")
        .trim_end_matches(')')
        .parse()
        .map_err(|_| CompileError::UnsupportedLayer(name.to_string()))?;
    let zeros = Tensor::zeros(&[1, channels, 1, 1]);
    let ones = Tensor::ones(&[1, channels, 1, 1]);
    let b = layer.forward(&zeros, false);
    let a_plus_b = layer.forward(&ones, false);
    let scale = &a_plus_b - &b;
    Ok(IntLayer::Affine {
        scale: scale.reshape(&[channels]),
        bias: b.reshape(&[channels]),
    })
}

fn parse_leaky(name: &str) -> Option<f32> {
    name.strip_prefix("leaky_relu(")?
        .trim_end_matches(')')
        .parse()
        .ok()
}

fn parse_pool(name: &str) -> Option<usize> {
    let inner = name.strip_prefix("maxpool2d(")?.trim_end_matches(')');
    inner.split('x').next()?.parse().ok()
}

fn compile_conv(conv: &mut QuantConv2d) -> IntLayer {
    // Re-quantize: the layer's cache may be stale from the last training
    // step (the shadow weights moved after the last forward pass).
    let q = conv.quantize_weights();
    let counts = conv.filter_shift_counts();
    let weights = if counts.is_empty() {
        // Full or fixed-point scheme: distinguish by checking whether the
        // quantized weights differ from the shadow (fixed-point quantizes,
        // full passes through).
        if q == conv.shadow().value {
            IntWeights::Float(q)
        } else {
            IntWeights::Fixed(FixedWeights::quantize(&conv.shadow().value, 4))
        }
    } else {
        let plan = shift_plan(conv);
        IntWeights::Shift(ShiftKernel::compile(&plan, conv.shadow().value.dims()))
    };
    IntLayer::Conv {
        weights,
        bias: conv.bias().value.clone(),
        stride: conv.stride(),
        padding: conv.padding(),
        act_bits: 8,
        epilogue: Epilogue::default(),
    }
}

fn compile_linear(lin: &mut QuantLinear) -> IntLayer {
    let q = lin.quantize_weights();
    let counts = lin.row_shift_counts();
    let dims = q.dims().to_vec();
    let weights = if counts.is_empty() {
        if q == lin.shadow().value {
            // Full precision: lift [out, in] to a 1x1 conv weight.
            IntWeights::Float(q.reshape(&[dims[0], dims[1], 1, 1]))
        } else {
            // 4-bit fixed point, reshaped to a 1x1 conv weight.
            let w4 = lin.shadow().value.reshape(&[dims[0], dims[1], 1, 1]);
            IntWeights::Fixed(FixedWeights::quantize(&w4, 4))
        }
    } else {
        // A linear layer is a 1×1 conv on a 1×1 image.
        let plan = flightnn::convert::shift_plan_for(&q, &counts);
        IntWeights::Shift(ShiftKernel::compile(&plan, &[dims[0], dims[1], 1, 1]))
    };
    IntLayer::Linear {
        weights,
        bias: lin.bias().value.clone(),
        act_bits: 8,
    }
}

/// Folds the bias of every `Conv` directly followed by an `Affine` into
/// that affine: `a·(conv + bias) + b = a·conv + (a·bias + b)` in exact
/// arithmetic. The conv then adds a zero bias, which is the standard
/// batch-norm-folding deployment transform. In f32 the two sides round
/// differently, so folded results move by a few ulps, not bit for bit.
fn fold_affines(layers: &mut [IntLayer]) {
    let mut i = 0;
    while i + 1 < layers.len() {
        let fold = matches!(
            (&layers[i], &layers[i + 1]),
            (IntLayer::Conv { .. }, IntLayer::Affine { .. })
        );
        if fold {
            // Take the conv bias out, rewrite the affine bias.
            let conv_bias = if let IntLayer::Conv { bias, .. } = &mut layers[i] {
                std::mem::replace(bias, Tensor::zeros(bias.dims()))
            } else {
                unreachable!("checked above")
            };
            if let IntLayer::Affine { scale, bias } = &mut layers[i + 1] {
                let new_bias: Vec<f32> = conv_bias
                    .as_slice()
                    .iter()
                    .zip(scale.as_slice())
                    .zip(bias.as_slice())
                    .map(|((&cb, &a), &b)| a * cb + b)
                    .collect();
                *bias = Tensor::from_slice(&new_bias);
            }
        }
        i += 1;
    }
    // Recurse into residual blocks.
    for layer in layers.iter_mut() {
        if let IntLayer::Residual { main, shortcut, .. } = layer {
            fold_affines(main);
            if let Some(sc) = shortcut {
                fold_affines(sc);
            }
        }
    }
}

/// Fuses every `Conv → [Affine] → [LeakyRelu] → [Requant]` run into one
/// conv stage whose epilogue applies them in place (see [`Epilogue`]),
/// recursing into residual blocks. Network 1 drops from 33 stages to
/// 12: seven fused convs, three pools, flatten, linear.
fn fuse_epilogues(layers: Vec<IntLayer>) -> Vec<IntLayer> {
    let mut out: Vec<IntLayer> = Vec::with_capacity(layers.len());
    for layer in layers {
        let last = out.last_mut();
        match (last, layer) {
            (Some(IntLayer::Conv { epilogue, .. }), IntLayer::Affine { scale, bias })
                if epilogue.affine.is_none() && epilogue.leaky.is_none() && !epilogue.requant =>
            {
                epilogue.affine = Some((scale, bias));
            }
            (Some(IntLayer::Conv { epilogue, .. }), IntLayer::LeakyRelu { slope })
                if epilogue.leaky.is_none() && !epilogue.requant =>
            {
                epilogue.leaky = Some(slope);
            }
            (Some(IntLayer::Conv { epilogue, .. }), IntLayer::Requant) if !epilogue.requant => {
                epilogue.requant = true;
            }
            (
                _,
                IntLayer::Residual {
                    main,
                    shortcut,
                    slope,
                },
            ) => out.push(IntLayer::Residual {
                main: fuse_epilogues(main),
                shortcut: shortcut.map(fuse_epilogues),
                slope,
            }),
            (_, layer) => out.push(layer),
        }
    }
    out
}

/// Activations between stages: floats (the caller's input is borrowed,
/// never cloned), or requantized per-image codes in a scratch arena.
#[derive(Debug)]
enum Act<'a> {
    Float(Cow<'a, Tensor>),
    Codes(Codes),
}

/// Requantized activations: `arenas[arena]` holds `codes · scale` per
/// image for a batch of shape `dims[..rank]`.
#[derive(Debug, Clone, Copy)]
struct Codes {
    arena: usize,
    dims: [usize; 4],
    rank: usize,
}

impl Codes {
    fn new(arena: usize, dims: &[usize]) -> Codes {
        let mut fixed = [1; 4];
        fixed[..dims.len()].copy_from_slice(dims);
        Codes {
            arena,
            dims: fixed,
            rank: dims.len(),
        }
    }

    fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }
}

impl<'a> Act<'a> {
    fn dims(&self) -> &[usize] {
        match self {
            Act::Float(t) => t.dims(),
            Act::Codes(c) => c.dims(),
        }
    }

    /// The float activations, dequantizing codes (`c as f32 · scale`,
    /// exactly the values a standalone requant stage used to emit) and
    /// freeing their arena.
    fn into_float(self, scratch: &mut Scratch) -> Cow<'a, Tensor> {
        match self {
            Act::Float(t) => t,
            Act::Codes(c) => {
                let arena = &scratch.arenas[c.arena];
                let per = arena.codes.len() / arena.scales.len().max(1);
                let mut data = Vec::with_capacity(arena.codes.len());
                if per > 0 {
                    for (img, &s) in arena.codes.chunks_exact(per).zip(&arena.scales) {
                        data.extend(img.iter().map(|&v| v as f32 * s));
                    }
                }
                scratch.release(c.arena);
                Cow::Owned(Tensor::from_vec(data, c.dims()))
            }
        }
    }
}

/// The one loop over compiled stages: runs `stages` over `x`, reporting
/// each to `obs`. Residual blocks run their branches through it too,
/// unobserved.
fn walk<'a, O: StageObserver>(
    stages: &[IntLayer],
    telemetry: &Telemetry,
    mut x: Act<'a>,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
) -> Act<'a> {
    for (i, stage) in stages.iter().enumerate() {
        obs.enter(telemetry, i, stage_kind(stage), counts);
        x = run_layer(stage, telemetry, x, counts, scratch);
        obs.exit(telemetry, counts, &mut scratch.lanes);
    }
    x
}

/// Emits the `kernel.lowering` span and gauges describing how an integer
/// conv stage decomposes `geom` — interior/border position split and
/// taps per filter — through the context's handle (a server worker's is
/// [`prefixed`](flight_telemetry::Telemetry::with_prefix) with its
/// track).
/// Returns the span guard bracketing the kernel run (`None` on the null
/// sink, which keeps the hot path free of telemetry work: `stats` is
/// only evaluated on a live one).
fn lowering_span(
    telemetry: &Telemetry,
    stats: impl FnOnce() -> crate::shift::LoweringStats,
) -> Option<flight_telemetry::Span> {
    if !telemetry.enabled() {
        return None;
    }
    let stats = stats();
    telemetry.gauge(
        "kernel.lowering.interior_positions",
        stats.interior_positions as f64,
        "pos",
    );
    telemetry.gauge(
        "kernel.lowering.border_positions",
        stats.border_positions as f64,
        "pos",
    );
    telemetry.gauge(
        "kernel.lowering.taps_per_filter",
        stats.mean_taps_per_filter(),
        "tap",
    );
    Some(telemetry.span("kernel.lowering"))
}

/// Reports how many just-quantized activation codes sit at the
/// representable rail, as `kernel.qact.<stage>.saturated` /
/// `.quantized` counters. `real` is the number of real codes in
/// `codes`: a padded buffer's ring holds exact zeros, which never sit on
/// the rail and are not counted as quantized. The post-pass over the
/// codes only runs with a live sink, so the null-sink hot path never
/// pays for it.
fn emit_saturation(
    telemetry: &Telemetry,
    stage: &'static str,
    codes: &[i32],
    real: usize,
    bits: u32,
) {
    if !telemetry.enabled() || real == 0 {
        return;
    }
    telemetry.counter(
        &format!("kernel.qact.{stage}.saturated"),
        QuantActivations::saturation_count(codes, bits),
        "op",
    );
    telemetry.counter(&format!("kernel.qact.{stage}.quantized"), real as u64, "op");
}

/// One conv stage over `x` (viewed as `[n, c, h, w]`) with whichever
/// datapath the layer compiled to, then its epilogue. An integer
/// datapath first decides which path its kernel runs — from the
/// context's path, the batch size, the lowered program and the
/// quantizer's code bound, never from the codes — then fills the
/// zero-padded planes in the scratch buffers in that path's layout (the
/// one place padding happens) by quantizing floats or re-gridding the
/// previous stage's codes, and the lowered core sweeps the whole output
/// map over them. `stage` labels the quantization site (`"conv"` /
/// `"linear"`) in the saturation counters; a `linear` stage shapes its
/// result `[n, f]` instead of `[n, f, oh, ow]`.
#[allow(clippy::too_many_arguments)]
fn conv_stage<'a>(
    weights: &IntWeights,
    telemetry: &Telemetry,
    stage: &'static str,
    act_bits: u32,
    x: Act<'a>,
    [n, c, h, w]: [usize; 4],
    stride: usize,
    padding: usize,
    bias: &Tensor,
    epilogue: &Epilogue,
    linear: bool,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
) -> Act<'a> {
    let (kernel, filters) = match weights {
        IntWeights::Shift(k) => (k.kernel_size(), k.filters()),
        IntWeights::Fixed(fw) => (fw.dims()[2], fw.dims()[0]),
        IntWeights::Float(wt) => (wt.dims()[2], wt.dims()[0]),
    };
    let geom = Conv2dGeometry::new(c, h, w, kernel, stride, padding);
    let conv_dims = [n, filters, geom.out_h, geom.out_w];
    let out_dims: &[usize] = if linear { &conv_dims[..2] } else { &conv_dims };
    let mut out = if epilogue.requant {
        std::mem::take(&mut scratch.acc)
    } else {
        Vec::new()
    };
    out.clear();
    out.resize(n * filters * geom.out_positions(), 0.0);

    if let IntWeights::Float(wt) = weights {
        let xt = x.into_float(scratch);
        let (o, _) = flight_nn::layers::functional::conv2d_forward(
            &xt.reshape(&[n, c, h, w]),
            wt,
            &Tensor::zeros(&[filters]),
            stride,
            padding,
            false,
        );
        // macs = weights × output positions × batch.
        let macs = (wt.len() * o.len() / filters.max(1)) as u64;
        counts.float_mults += macs;
        counts.float_adds += macs;
        out.copy_from_slice(o.as_slice());
    } else {
        let requested = scratch.lanes.path();
        let bound = code_bound(act_bits);
        let path = match weights {
            IntWeights::Shift(k) => k.lane_path(&geom, requested, n, bound),
            IntWeights::Fixed(fw) => fw.lane_path(&geom, requested, n, bound),
            IntWeights::Float(_) => unreachable!("handled above"),
        };
        let batch = PlaneBatch::of(&geom, n, path);
        let coder = Coder::new(requested, act_bits);
        match x {
            Act::Float(t) => QuantActivations::quantize_padded_slice_into(
                t.as_slice(),
                &batch,
                coder,
                &mut scratch.codes,
                &mut scratch.scales,
            ),
            Act::Codes(src) => {
                let arena = &scratch.arenas[src.arena];
                QuantActivations::regrid_padded_into(
                    &arena.codes,
                    &arena.scales,
                    &arena.cmax,
                    &batch,
                    coder,
                    &mut scratch.codes,
                    &mut scratch.scales,
                );
                scratch.release(src.arena);
            }
        }
        emit_saturation(telemetry, stage, &scratch.codes, n * c * h * w, act_bits);
        match weights {
            IntWeights::Shift(kernel) => {
                let span = lowering_span(telemetry, || kernel.lowering_stats(&geom));
                shift_add_conv_core(
                    &scratch.codes,
                    &scratch.scales,
                    &geom,
                    kernel,
                    path,
                    &mut out,
                    counts,
                );
                drop(span);
            }
            IntWeights::Fixed(fw) => {
                let span = lowering_span(telemetry, || fw.lowering_stats(&geom));
                fixed_point_conv_core(
                    &scratch.codes,
                    &scratch.scales,
                    &geom,
                    fw,
                    path,
                    &mut out,
                    counts,
                );
                drop(span);
            }
            IntWeights::Float(_) => unreachable!("handled above"),
        }
        let lanes = batch.lane_images();
        scratch.lanes.note_engaged(lanes, n - lanes);
    }

    apply_epilogue(&mut out, filters, geom.out_positions(), bias, epilogue);
    if !epilogue.requant {
        return Act::Float(Cow::Owned(Tensor::from_vec(out, out_dims)));
    }
    let codes = requant(&out, out_dims, telemetry, scratch);
    scratch.acc = out;
    Act::Codes(codes)
}

/// Quantizes a `dims` batch of floats per image to 8-bit codes in a
/// fresh code arena.
fn requant(x: &[f32], dims: &[usize], telemetry: &Telemetry, scratch: &mut Scratch) -> Codes {
    let arena = scratch.acquire();
    let coder = Coder::new(scratch.lanes.path(), REQUANT_BITS);
    let dst = &mut scratch.arenas[arena];
    QuantActivations::quantize_images_into(
        x,
        dims[0],
        coder,
        &mut dst.codes,
        &mut dst.scales,
        &mut dst.cmax,
    );
    emit_saturation(telemetry, "requant", &dst.codes, x.len(), REQUANT_BITS);
    Codes::new(arena, dims)
}

/// Applies a conv stage's bias and epilogue in place over `[n, f, …]`
/// outputs with `positions` values per channel, each element through
/// the same f32 operations, in the same order, as the standalone bias,
/// affine and LeakyReLU stages (no fused multiply-add).
fn apply_epilogue(
    out: &mut [f32],
    filters: usize,
    positions: usize,
    bias: &Tensor,
    epilogue: &Epilogue,
) {
    if positions == 0 {
        return;
    }
    for (i, chunk) in out.chunks_exact_mut(positions).enumerate() {
        let ch = i % filters;
        let add = bias.as_slice()[ch];
        let affine = epilogue
            .affine
            .as_ref()
            .map(|(a, b)| (a.as_slice()[ch], b.as_slice()[ch]));
        for v in chunk {
            let mut y = *v + add;
            if let Some((a, b)) = affine {
                y = a * y + b;
            }
            if let Some(slope) = epilogue.leaky {
                y = if y > 0.0 { y } else { slope * y };
            }
            *v = y;
        }
    }
}

/// 2-D max pooling over requantized codes, `window × window` with the
/// same stride, recording each image's largest pooled code magnitude in
/// `cmax` as it goes. Max commutes with dequantization — `c ↦ c · s` is
/// monotone for `s ≥ 0` — so pooling codes and keeping each image's
/// scale equals pooling the dequantized floats.
fn max_pool_codes(
    src: &[i32],
    dst: &mut Vec<i32>,
    cmax: &mut Vec<u32>,
    [n, c, h, w]: [usize; 4],
    k: usize,
) {
    assert!(
        h % k == 0 && w % k == 0,
        "input {h}x{w} not divisible by pool window {k}"
    );
    let (oh, ow) = (h / k, w / k);
    dst.clear();
    dst.resize(n * c * oh * ow, 0);
    cmax.clear();
    cmax.resize(n, 0);
    let planes = src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow));
    for (i, (plane, out)) in planes.enumerate() {
        let top = &mut cmax[i / c];
        for (band, out_row) in plane.chunks_exact(k * w).zip(out.chunks_exact_mut(ow)) {
            out_row.fill(i32::MIN);
            for row in band.chunks_exact(w) {
                for (slot, window) in out_row.iter_mut().zip(row.chunks_exact(k)) {
                    *slot = window.iter().fold(*slot, |m, &v| m.max(v));
                }
            }
            *top = out_row.iter().fold(*top, |m, v| m.max(v.unsigned_abs()));
        }
    }
}

fn run_layer<'a>(
    layer: &IntLayer,
    telemetry: &Telemetry,
    x: Act<'a>,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
) -> Act<'a> {
    match layer {
        IntLayer::Conv {
            weights,
            bias,
            stride,
            padding,
            act_bits,
            epilogue,
        } => {
            let d = x.dims();
            assert_eq!(d.len(), 4, "conv input must be [n, c, h, w]");
            let dims = [d[0], d[1], d[2], d[3]];
            conv_stage(
                weights, telemetry, "conv", *act_bits, x, dims, *stride, *padding, bias, epilogue,
                false, counts, scratch,
            )
        }
        IntLayer::Linear {
            weights,
            bias,
            act_bits,
        } => {
            // A linear layer is a 1×1 conv on `[n, f, 1, 1]`.
            let d = x.dims();
            let n = d[0];
            let f = d.iter().product::<usize>() / n.max(1);
            conv_stage(
                weights,
                telemetry,
                "linear",
                *act_bits,
                x,
                [n, f, 1, 1],
                1,
                0,
                bias,
                &Epilogue::default(),
                true,
                counts,
                scratch,
            )
        }
        IntLayer::Affine { scale, bias } => {
            let mut out = x.into_float(scratch).into_owned();
            scale_channels(&mut out, scale, bias);
            Act::Float(Cow::Owned(out))
        }
        IntLayer::LeakyRelu { slope } => {
            let s = *slope;
            let mut out = x.into_float(scratch).into_owned();
            out.map_in_place(|v| if v > 0.0 { v } else { s * v });
            Act::Float(Cow::Owned(out))
        }
        IntLayer::MaxPool { window } => match x {
            Act::Codes(src) => {
                let d = src.dims();
                let dims = [d[0], d[1], d[2], d[3]];
                let (k, out_dims) = (*window, [d[0], d[1], d[2] / window, d[3] / window]);
                let arena = scratch.acquire();
                let mut to = std::mem::take(&mut scratch.arenas[arena]);
                let from = &scratch.arenas[src.arena];
                max_pool_codes(&from.codes, &mut to.codes, &mut to.cmax, dims, k);
                to.scales.clear();
                to.scales.extend_from_slice(&from.scales);
                scratch.arenas[arena] = to;
                scratch.release(src.arena);
                Act::Codes(Codes::new(arena, &out_dims))
            }
            Act::Float(t) => {
                let mut pool = MaxPool2d::new(*window);
                Act::Float(Cow::Owned(flight_nn::Layer::forward(&mut pool, &t, false)))
            }
        },
        IntLayer::GlobalAvgPool => {
            let t = x.into_float(scratch);
            let mut gap = flight_nn::layers::GlobalAvgPool::new();
            Act::Float(Cow::Owned(flight_nn::Layer::forward(&mut gap, &t, false)))
        }
        IntLayer::Flatten => {
            let d = x.dims();
            let flat = [d[0], d.iter().product::<usize>() / d[0].max(1)];
            match x {
                Act::Codes(c) => Act::Codes(Codes::new(c.arena, &flat)),
                Act::Float(Cow::Owned(mut t)) => {
                    t.reshape_in_place(&flat);
                    Act::Float(Cow::Owned(t))
                }
                Act::Float(Cow::Borrowed(t)) => Act::Float(Cow::Owned(t.reshape(&flat))),
            }
        }
        IntLayer::Requant => {
            let t = x.into_float(scratch);
            Act::Codes(requant(t.as_slice(), t.dims(), telemetry, scratch))
        }
        IntLayer::Residual {
            main,
            shortcut,
            slope,
        } => {
            // Both branches read the block input: codes stay in their
            // arena with a second reader, floats are borrowed.
            let (main_out, short_out) = match x {
                Act::Codes(c) => {
                    scratch.retain(c.arena);
                    let main_out = walk(
                        main,
                        telemetry,
                        Act::Codes(c),
                        counts,
                        scratch,
                        &mut Unobserved,
                    );
                    let main_out = main_out.into_float(scratch).into_owned();
                    let short_out = match shortcut {
                        Some(sc) => walk(
                            sc,
                            telemetry,
                            Act::Codes(c),
                            counts,
                            scratch,
                            &mut Unobserved,
                        ),
                        None => Act::Codes(c),
                    };
                    (main_out, short_out.into_float(scratch).into_owned())
                }
                Act::Float(t) => {
                    let t: &Tensor = &t;
                    let main_out = walk(
                        main,
                        telemetry,
                        Act::Float(Cow::Borrowed(t)),
                        counts,
                        scratch,
                        &mut Unobserved,
                    );
                    let main_out = main_out.into_float(scratch).into_owned();
                    let short_out = match shortcut {
                        Some(sc) => walk(
                            sc,
                            telemetry,
                            Act::Float(Cow::Borrowed(t)),
                            counts,
                            scratch,
                            &mut Unobserved,
                        )
                        .into_float(scratch)
                        .into_owned(),
                        None => t.clone(),
                    };
                    (main_out, short_out)
                }
            };
            let sum = &main_out + &short_out;
            let s = *slope;
            Act::Float(Cow::Owned(sum.map(|v| if v > 0.0 { v } else { s * v })))
        }
    }
}

fn scale_channels(out: &mut Tensor, scale: &Tensor, bias: &Tensor) {
    let (n, c) = (out.dims()[0], out.dims()[1]);
    let plane = out.len() / (n * c).max(1);
    for b in 0..n {
        for ch in 0..c {
            let (a, bb) = (scale.as_slice()[ch], bias.as_slice()[ch]);
            let base = (b * c + ch) * plane;
            for v in &mut out.as_mut_slice()[base..base + plane] {
                *v = a * *v + bb;
            }
        }
    }
}

// Whole-network tests live in tests/engine.rs and tests/parity.rs (they
// need trained or hand-built networks and are slower than unit scale).
#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{uniform, TensorRng};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Max-pooling codes keeps every code on the grid its input was
        /// on, and records each image's largest pooled magnitude exactly
        /// (the bound the next stage's regrid replays its scale from).
        #[test]
        fn code_max_pool_stays_within_the_grid(
            bits in 2u32..=16,
            n in 1usize..=9,
            c in 1usize..=3,
            side in 1usize..=4,
            k in 1usize..=3,
            seed in 0u64..1 << 32,
        ) {
            let bound = code_bound(bits) as i32;
            let hw = side * k;
            let mut rng = TensorRng::seed(seed);
            let src: Vec<i32> = uniform(&mut rng, &[n * c * hw * hw], -1.0, 1.0)
                .as_slice()
                .iter()
                .map(|&u| (u * bound as f32).round() as i32)
                .collect();
            let (mut dst, mut cmax) = (vec![5; 3], vec![9]);
            max_pool_codes(&src, &mut dst, &mut cmax, [n, c, hw, hw], k);
            prop_assert_eq!(dst.len(), n * c * side * side);
            prop_assert!(dst.iter().all(|v| v.abs() <= bound));
            for (img, &top) in dst.chunks_exact(c * side * side).zip(&cmax) {
                prop_assert_eq!(top, img.iter().map(|v| v.unsigned_abs()).max().unwrap());
            }
        }
    }
}
