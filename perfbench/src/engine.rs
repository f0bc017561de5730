//! The engine workloads: [`CompiledNet::forward`] through one warmed
//! [`ExecCtx`] on one thread, with no wire. A batch-1 phase gives the
//! single-image latency and a batch-8 phase (the only size at which the
//! AVX2 lanes engage) gives the batched throughput.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use flight_kernels::{CompiledNet, ExecCtx, OpCounts};
use flight_serve::model::scheme_by_label;
use flight_serve::ModelSpec;
use flight_telemetry::StageSample;
use flight_tensor::{Tensor, TensorRng};
use flightnn::configs::NetworkConfig;

use crate::alloc::allocations;
use crate::gen::{self, Stream};
use crate::host;
use crate::ledger::{unattributed, Dist, LANE_BLOCK};
use crate::report::{ms, Report};
use crate::trace::SpanBuf;

/// Distinct images per run: eight full lane blocks.
const POOL: usize = 64;
/// Slices per phase, each preceded by one set-up; `setup_s` is the
/// median of the set-ups, with ten samples beyond it.
const SLICES: usize = 21;
/// Timed `ModelSpec::build` calls behind `model.build_ms.p50`.
const BUILD_REPS: usize = 21;
/// The percentile, in permille, behind the engine's end-to-end figures.
const FAST_PERMILLE: usize = 20;
/// Plain-call slots reserved per second of phase, above any rate the
/// engine reaches at batch 1.
const RESERVE_CALLS_PER_S: f64 = 8192.0;
/// Stage kinds the per-stage ledger and the served profile shares name.
pub const STAGE_KINDS: [&str; 6] = [
    "conv",
    "requant",
    "affine",
    "leaky_relu",
    "maxpool",
    "linear",
];

/// Times [`ModelSpec::build`] and reports `model.build_ms.p50`.
pub fn time_model_builds(
    spec: &ModelSpec,
    spans: &mut SpanBuf,
    report: &mut Report,
) -> Result<(), String> {
    let mut build_ms = Vec::with_capacity(BUILD_REPS);
    for _ in 0..BUILD_REPS {
        let start = Instant::now();
        black_box(spec.build()?);
        let end = Instant::now();
        spans.record(0, "ModelSpec::build", 0, (start, end), 0);
        build_ms.push(ms(end - start));
    }
    report.percentiles("model.build_ms", &Dist::new(build_ms), &[500], "ms");
    Ok(())
}

/// One timed phase over a fixed set of inputs, run in slices.
#[derive(Default)]
struct Phase {
    /// Per-call wall of plain `forward` calls, µs, reserved up front so
    /// the record never reallocates (its touched pages count in
    /// `peak_rss_mb`).
    plain_us: Vec<f64>,
    /// Per-call wall of `forward_profiled` calls (traced runs), µs.
    profiled_us: Vec<f64>,
    /// Allocations per plain call (traced runs).
    allocs: Vec<f64>,
    /// Summed stage time of the profiled calls, by stage kind, ns.
    stage_ns: BTreeMap<&'static str, u64>,
    profiled_images: u64,
    images: u64,
    wall: Duration,
    calls: usize,
    /// The first output seen for each input, as bits, with its counts;
    /// every later output of that input must equal it.
    first: Vec<Option<(Vec<u32>, OpCounts)>>,
    unstable: u64,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

impl Phase {
    fn new(inputs: usize, secs: f64) -> Phase {
        Phase {
            plain_us: Vec::with_capacity((secs * RESERVE_CALLS_PER_S) as usize),
            first: vec![None; inputs],
            ..Phase::default()
        }
    }

    /// Calls the engine on `inputs` round-robin for `secs`. Traced runs
    /// alternate plain and profiled calls, so the profiled stage ledger
    /// and the plain call time come from the same moments.
    #[allow(clippy::too_many_arguments)]
    fn slice(
        &mut self,
        net: &CompiledNet,
        ctx: &mut ExecCtx,
        inputs: &[Tensor],
        secs: f64,
        trace: bool,
        spans: &mut SpanBuf,
        name: &'static str,
    ) {
        let mut sample = StageSample::new();
        let parent = spans.open();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut end = start;
        while end < deadline {
            let k = self.calls % inputs.len();
            let x = &inputs[k];
            let profiled = trace && self.calls % 2 == 1;
            let allocs_before = allocations();
            let t = Instant::now();
            let (out, ops) = if profiled {
                net.forward_profiled(x, ctx, &mut sample)
            } else {
                net.forward(x, ctx)
            };
            end = Instant::now();
            let allocs = allocations() - allocs_before;
            let call_us = (end - t).as_secs_f64() * 1e6;
            if profiled {
                spans.record(0, "CompiledNet::forward_profiled", parent, (t, end), 0);
                for s in 0..sample.stages() {
                    let (kind, ns, _) = sample.stage(s).expect("stage index in range");
                    *self.stage_ns.entry(kind).or_default() += ns;
                }
                self.profiled_us.push(call_us);
                self.profiled_images += x.dims()[0] as u64;
            } else {
                self.plain_us.push(call_us);
                if trace {
                    self.allocs.push(allocs as f64);
                }
            }
            self.images += x.dims()[0] as u64;
            match &self.first[k] {
                None => self.first[k] = Some((bits(&out), ops)),
                Some((b, c)) => {
                    if *c != ops || b.iter().zip(out.as_slice()).any(|(b, v)| *b != v.to_bits()) {
                        self.unstable += 1;
                    }
                }
            }
            self.calls += 1;
        }
        self.wall += end - start;
        spans.record(parent, name, 0, (start, end), 0);
    }
}

/// The p2 of the plain calls, µs: the call time when the host leaves
/// the thread alone, still measured when contention covers all but a few
/// percent of the run.
fn fast_call_us(plain: &Dist) -> Result<f64, String> {
    plain
        .percentile(FAST_PERMILLE)
        .ok_or_else(|| format!("only {} plain calls", plain.len()))
}

/// Bytes of activations one image moves through the float network the
/// engine is compiled from: 4 B per element of every layer's input and
/// output. Computed from tensor sizes, not measured.
fn activation_bytes_per_img(spec: &ModelSpec) -> Result<f64, String> {
    let scheme = scheme_by_label(&spec.scheme)?;
    let mut net = NetworkConfig::by_id(spec.network).build(
        &scheme,
        &mut TensorRng::seed(spec.seed),
        spec.classes,
        spec.image_dims,
        spec.width,
    );
    let [c, h, w] = spec.image_dims;
    let mut x = Tensor::zeros(&[1, c, h, w]);
    let mut elements = 0;
    for layer in net.layers_mut() {
        let y = layer.as_layer_mut().forward(&x, false);
        elements += x.len() + y.len();
        x = y;
    }
    Ok(4.0 * elements as f64)
}

/// Runs the engine workload on the `scheme` model for `seconds` and
/// fills `report` (per-layer metrics only when `trace`).
pub fn run(
    scheme: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let spec = ModelSpec {
        scheme: scheme.to_string(),
        ..ModelSpec::default()
    };
    let [c, h, w] = spec.image_dims;
    let pool: Vec<Vec<f32>> = (0..POOL)
        .map(|i| gen::image(seed, Stream::Engine, i as u64, spec.input_len()))
        .collect();
    let b1: Vec<Tensor> = pool
        .iter()
        .map(|im| Tensor::from_vec(im.clone(), &[1, c, h, w]))
        .collect();
    let b8: Vec<Tensor> = pool
        .chunks(LANE_BLOCK)
        .map(|block| Tensor::from_vec(block.concat(), &[LANE_BLOCK, c, h, w]))
        .collect();
    let epoch = Instant::now();
    let mut spans = SpanBuf::new(trace);
    if trace {
        time_model_builds(&spec, &mut spans, report)?;
    }

    // The host's CPU contention comes and goes over seconds, so the run
    // interleaves set-ups, batch-1 slices and batch-8 slices: every
    // quantity samples the whole run. The first set-up's engine and
    // context serve every timed call.
    let slice_secs = seconds / (2 * SLICES) as f64;
    let mut setups = Vec::with_capacity(SLICES);
    let mut live = None;
    let mut p1 = Phase::new(b1.len(), seconds / 2.0);
    let mut p8 = Phase::new(b8.len(), seconds / 2.0);
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    for _ in 0..SLICES {
        let start = Instant::now();
        let net = spec.build()?;
        let mut ctx = ExecCtx::new();
        black_box(net.forward(&b1[0], &mut ctx));
        black_box(net.forward(&b8[0], &mut ctx));
        setups.push(start.elapsed().as_secs_f64());
        let (net, ctx) = live.get_or_insert((net, ctx));
        p1.slice(net, ctx, &b1, slice_secs, trace, &mut spans, "engine.b1");
        p8.slice(net, ctx, &b8, slice_secs, trace, &mut spans, "engine.b8");
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu_util = cpu0.zip(host::cpu_seconds()).map(|(a, b)| (b - a) / wall);
    let (net, _) = live.expect("SLICES > 0");
    report.e2e_setup(&setups)?;

    // Oracle: a fresh context; each image alone, then in its block of 8.
    report.attempted += (p1.calls + p8.calls) as u64;
    for _ in 0..p1.unstable + p8.unstable {
        report.fail_mismatch();
    }
    let mut fresh = ExecCtx::new();
    let solo: Vec<(Vec<u32>, OpCounts)> = b1
        .iter()
        .map(|x| {
            let (out, ops) = net.forward(x, &mut fresh);
            (bits(&out), ops)
        })
        .collect();
    for (k, block) in b8.iter().enumerate() {
        let (out, ops) = net.forward(block, &mut fresh);
        let members = &solo[k * LANE_BLOCK..(k + 1) * LANE_BLOCK];
        let want_bits: Vec<u32> = members
            .iter()
            .flat_map(|(b, _)| b.iter().copied())
            .collect();
        let want_ops: OpCounts = members.iter().map(|(_, o)| *o).sum();
        if bits(&out) != want_bits || ops != want_ops {
            report.fail_mismatch();
        }
        if p8.first[k]
            .as_ref()
            .is_some_and(|f| f.0 != want_bits || f.1 != want_ops)
        {
            report.fail_mismatch();
        }
    }
    for (k, want) in solo.iter().enumerate() {
        if p1.first[k].as_ref().is_some_and(|f| f != want) {
            report.fail_mismatch();
        }
    }

    let plain1 = Dist::new(std::mem::take(&mut p1.plain_us));
    let plain8 = Dist::new(std::mem::take(&mut p8.plain_us));
    report.e2e_latency(
        fast_call_us(&plain1)? / 1e3,
        &format!("p2 of {} batch-1 calls, {scheme} model", plain1.len()),
    );
    report.e2e_throughput(
        LANE_BLOCK as f64 * 1e6 / fast_call_us(&plain8)?,
        &format!("8 images / p2 of {} batch-8 calls", plain8.len()),
    );
    report.e2e_rss()?;

    if !trace {
        return Ok(());
    }

    for (label, p, plain) in [("b1", &p1, &plain1), ("b8", &p8, &plain8)] {
        report.percentiles(&format!("engine.forward_us.{label}"), plain, &[500], "us");
        let per_img = |ns: u64| ns as f64 / 1e3 / p.profiled_images as f64;
        let mut staged_ns = 0;
        for (kind, &ns) in &p.stage_ns {
            staged_ns += ns;
            if STAGE_KINDS.contains(kind) {
                report.layer(
                    &format!("engine.stage.{kind}_us.{label}"),
                    per_img(ns),
                    "us",
                );
            } else {
                report.note(format!("engine.stage.{kind}_us.{label} {} us", per_img(ns)));
            }
        }
        let profiled_total_us: f64 = p.profiled_us.iter().sum();
        report.layer(
            &format!("engine.unattributed_us.{label}"),
            unattributed(profiled_total_us, &[staged_ns as f64 / 1e3]) / p.profiled_images as f64,
            "us",
        );
        report.note(format!(
            "engine stage ledger {label}: per-image means over {} profiled calls ({} images)",
            p.profiled_us.len(),
            p.profiled_images
        ));
        let allocs = Dist::new(p.allocs.clone());
        report.layer(
            &format!("engine.allocs_per_forward.{label}"),
            allocs.mean().unwrap_or(0.0),
            "count",
        );
        report.note(format!(
            "engine.allocs_per_forward.{label}: mean of {} plain calls",
            allocs.len()
        ));
    }
    for (label, p) in [("b1", &p1), ("b8", &p8)] {
        let secs = p.wall.as_secs_f64();
        report.layer(
            &format!("engine.{label}_img_per_s"),
            p.images as f64 / secs,
            "1/s",
        );
        report.note(format!(
            "engine.{label}_img_per_s: {} images over {secs:.3} s of calls",
            p.images
        ));
    }
    let ops: OpCounts = solo.iter().map(|(_, o)| *o).sum();
    let per_img = |n: u64| n as f64 / POOL as f64;
    report.layer("ops.shift_per_img", per_img(ops.shifts), "count");
    report.layer("ops.add_per_img", per_img(ops.int_adds), "count");
    report.layer("ops.mult_per_img", per_img(ops.int_mults), "count");
    report.layer(
        "engine.bytes_per_img",
        activation_bytes_per_img(&spec)?,
        "B",
    );
    report.note("engine.bytes_per_img is computed from tensor sizes, not measured".to_string());
    if let Some(util) = cpu_util {
        report.layer("cpu.util", util, "cpu-s/s");
    }
    // The traced run swaps half the calls for `forward_profiled`; its
    // cost over the plain call is the tracing overhead.
    let plain = plain1.percentile(500);
    let profiled = Dist::new(p1.profiled_us.clone()).percentile(500);
    if let (Some(plain), Some(profiled)) = (plain, profiled) {
        report.layer(
            "trace.overhead_pct",
            100.0 * (profiled - plain) / plain,
            "%",
        );
    }
    report.spans(&mut spans, epoch);
    Ok(())
}
