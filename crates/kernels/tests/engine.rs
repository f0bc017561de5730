//! Integer-engine integration tests: compiled pipelines must match the
//! float quantized network on real trained models, multiplier-free.

use flight_data::{Fidelity, SyntheticDataset};
use flight_kernels::{CompiledNet, ExecCtx, KernelPath};
use flight_nn::Layer;
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::{FlightTrainer, QuantNet, QuantScheme};

fn trained(net_id: u8, scheme: &QuantScheme, epochs: usize) -> (QuantNet, SyntheticDataset) {
    let cfg = NetworkConfig::by_id(net_id);
    let data = SyntheticDataset::preset(cfg.dataset, Fidelity::Smoke, 5);
    let mut rng = TensorRng::seed(5);
    let mut net = cfg.build(scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(scheme, 5e-3);
    trainer.fit(&mut net, &data.train_batches(16), epochs);
    (net, data)
}

/// Pre-quantizes an input batch to the 8-bit grid so both the float path
/// and the integer engine see identical values (the engine always
/// quantizes conv inputs; the float QuantNet does not quantize the raw
/// image).
fn as_8bit(x: &flight_tensor::Tensor) -> flight_tensor::Tensor {
    flight_kernels::QuantActivations::quantize(x, 8).dequantize()
}

/// Compiles `net` unfolded and runs one forward on a fresh context.
fn run(
    net: &mut QuantNet,
    x: &flight_tensor::Tensor,
) -> (flight_tensor::Tensor, flight_kernels::OpCounts) {
    let engine = CompiledNet::compile(net, false).expect("compiles");
    engine.forward(x, &mut ExecCtx::new())
}

fn max_logit_gap(a: &flight_tensor::Tensor, b: &flight_tensor::Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[test]
fn vgg_lightnn_pipeline_matches_float_path() {
    let (mut net, data) = trained(1, &QuantScheme::l2(), 2);
    let input = as_8bit(&data.test_batches(8)[0].input);
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = run(&mut net, &input);

    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // The float path carries full-precision activations; the engine
    // re-quantizes them to 8 bits at every stage, so the achievable gap
    // is a property of the trained weights (hence of the RNG stream),
    // not a fixed constant. ~3% relative is typical for this smoke
    // configuration; top-1 agreement is pinned separately by
    // integer_accuracy_matches_float_accuracy.
    assert!(
        gap < 8e-2 * scale,
        "integer pipeline diverges: gap {gap} at logit scale {scale}"
    );
    assert_eq!(counts.int_mults, 0, "L-2 pipeline must be multiplier-free");
    assert!(counts.shifts > 0);
}

#[test]
fn resnet_flightnn_pipeline_matches_float_path() {
    let (mut net, data) = trained(2, &QuantScheme::flight(0.0), 2);
    let input = as_8bit(&data.test_batches(4)[0].input);
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = run(&mut net, &input);
    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // Residual adds compound the per-stage activation re-quantization
    // noise (see the note in vgg_lightnn_pipeline_matches_float_path).
    assert!(gap < 1.5e-1 * scale, "gap {gap} at scale {scale}");
    assert_eq!(counts.int_mults, 0);
}

#[test]
fn fixed_point_pipeline_multiplies_instead_of_shifting() {
    let (mut net, data) = trained(1, &QuantScheme::fp4w8a(), 2);
    let input = as_8bit(&data.test_batches(4)[0].input);
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = run(&mut net, &input);
    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // 4-bit weights leave less headroom than the L-2 scheme, so the
    // re-quantization gap runs wider (see the vgg test's note).
    assert!(gap < 2e-1 * scale, "gap {gap} at scale {scale}");
    assert!(counts.int_mults > 0);
    assert_eq!(counts.shifts, 0);
}

/// Folding is not bit-identical — `a·(v + cb) + b` rounds differently
/// from `a·v + (a·cb + b)` — so this pins agreement within 1e-5.
#[test]
fn folded_pipeline_matches_unfolded_within_1e_5() {
    let (mut net, data) = trained(1, &QuantScheme::l1(), 2);
    let plain = CompiledNet::compile(&mut net, false).expect("compiles");
    let folded = CompiledNet::compile(&mut net, true).expect("compiles folded");
    let batch = &data.test_batches(4)[0];
    let mut ctx = ExecCtx::new();
    let (a, _) = plain.forward(&batch.input, &mut ctx);
    let (b, _) = folded.forward(&batch.input, &mut ctx);
    assert!(
        a.allclose(&b, 1e-5),
        "batch-norm folding moved the results by more than 1e-5"
    );
}

#[test]
fn network1_compiles_to_twelve_fused_stages() {
    // Seven convs, each with its batch norm, LeakyReLU and requant fused
    // into the epilogue, then three pools, flatten and the classifier.
    for scheme in [
        QuantScheme::l1(),
        QuantScheme::fp4w8a(),
        QuantScheme::full(),
    ] {
        for fold in [false, true] {
            let mut rng = TensorRng::seed(3);
            let mut net = NetworkConfig::by_id(1).build(&scheme, &mut rng, 10, [3, 16, 16], 0.25);
            let compiled = CompiledNet::compile(&mut net, fold).expect("compiles");
            assert_eq!(compiled.stages(), 12, "{} fold {fold}", scheme.label());
        }
    }
}

#[test]
fn integer_accuracy_matches_float_accuracy() {
    use flight_nn::loss::top_k_accuracy;
    let (mut net, data) = trained(1, &QuantScheme::l2(), 6);
    let engine = CompiledNet::compile(&mut net, false).expect("compiles");
    let mut ctx = ExecCtx::new();
    let mut float_correct = 0.0;
    let mut int_correct = 0.0;
    let mut n = 0;
    for batch in data.test_batches(16) {
        let fl = net.forward(&batch.input, false);
        let (il, _) = engine.forward(&batch.input, &mut ctx);
        float_correct += top_k_accuracy(&fl, &batch.labels, 1) * batch.len() as f32;
        int_correct += top_k_accuracy(&il, &batch.labels, 1) * batch.len() as f32;
        n += batch.len();
    }
    let (fa, ia) = (float_correct / n as f32, int_correct / n as f32);
    assert!(
        (fa - ia).abs() < 0.03,
        "integer accuracy {ia} drifted from float accuracy {fa}"
    );
    assert!(fa > 0.3, "model should have learned something: {fa}");
}

#[test]
fn op_counts_track_mean_k() {
    // An L-2 model costs ~2x the shifts of an L-1 model of identical
    // architecture on the same input.
    let (mut l1, data) = trained(1, &QuantScheme::l1(), 1);
    let (mut l2, _) = trained(1, &QuantScheme::l2(), 1);
    let batch = &data.test_batches(2)[0];
    let (_, c1) = run(&mut l1, &batch.input);
    let (_, c2) = run(&mut l2, &batch.input);
    let ratio = c2.shifts as f64 / c1.shifts as f64;
    assert!(
        (1.5..2.4).contains(&ratio),
        "L-2/L-1 shift ratio {ratio} (got {} vs {})",
        c2.shifts,
        c1.shifts
    );
}

#[test]
fn traced_forward_matches_untraced_and_emits_stage_events() {
    use flight_telemetry::{CollectingSink, EventKind, Telemetry};
    use std::sync::Arc;

    let (mut net, data) = trained(1, &QuantScheme::l1(), 1);
    let engine = CompiledNet::compile(&mut net, true).expect("compiles");
    let input = as_8bit(&data.test_batches(2)[0].input);
    let (plain_logits, plain_counts) = engine.forward(&input, &mut ExecCtx::new());

    let sink = Arc::new(CollectingSink::new());
    let mut ctx = ExecCtx::with_telemetry(Telemetry::new(sink.clone()));
    let (traced_logits, traced_counts) = engine.forward(&input, &mut ctx);

    assert!(
        plain_logits.allclose(&traced_logits, 0.0),
        "tracing must not change the results"
    );
    assert_eq!(plain_counts, traced_counts);

    let events = sink.events();
    let stage_ends = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name.starts_with("kernel.stage."))
        .count();
    assert_eq!(stage_ends, engine.stages(), "one latency span per stage");
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::SpanEnd && e.name == "kernel.forward"),
        "whole-pass span present"
    );
    let shift_total: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name.ends_with(".shifts"))
        .map(|e| e.value as u64)
        .sum();
    assert_eq!(
        shift_total, traced_counts.shifts,
        "per-stage shift counters must sum to the aggregate"
    );
}

#[test]
fn quantization_saturation_counters_track_every_quantization_site() {
    use flight_telemetry::{CollectingSink, EventKind, Telemetry};
    use std::sync::Arc;

    let (mut net, data) = trained(1, &QuantScheme::l1(), 1);
    let sink = Arc::new(CollectingSink::new());
    let engine = CompiledNet::compile(&mut net, false).expect("compiles");
    let batch = 3;
    let input = as_8bit(&data.test_batches(batch)[0].input);
    engine.forward(
        &input,
        &mut ExecCtx::with_telemetry(Telemetry::new(sink.clone())),
    );

    let events = sink.events();
    let total = |suffix: &str| -> u64 {
        events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Counter
                    && e.name.contains("kernel.qact.")
                    && e.name.ends_with(suffix)
            })
            .map(|e| e.value as u64)
            .sum()
    };
    let saturated = total(".saturated");
    let quantized = total(".quantized");
    assert!(quantized > 0, "conv inputs were quantized");
    assert!(saturated <= quantized);
    // The per-image dynamic scale puts each image's max-magnitude
    // element exactly on the rail, so every quantization of a nonzero
    // batch saturates at least `batch` codes.
    let conv_quantizations = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name.ends_with(".quantized"))
        .count() as u64;
    assert!(conv_quantizations > 0);
    assert!(
        saturated >= conv_quantizations * batch as u64,
        "≥ batch rail hits per site: {saturated} < {conv_quantizations}×{batch}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "kernel.qact.conv.saturated"),
        "conv stage labelled"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "kernel.qact.linear.quantized"),
        "linear stage labelled"
    );
}

#[test]
fn full_precision_network_still_compiles() {
    let (mut net, data) = trained(1, &QuantScheme::full(), 1);
    let input = as_8bit(&data.test_batches(2)[0].input);
    let float_logits = net.forward(&input, false);
    let (logits, counts) = run(&mut net, &input);
    let gap = max_logit_gap(&float_logits, &logits);
    let scale = float_logits.abs_max().max(1.0);
    assert!(gap < 1e-2 * scale, "gap {gap} at scale {scale}");
    assert!(counts.float_mults > 0);
    assert_eq!(counts.shifts + counts.int_mults, 0);
}

#[test]
fn profiled_forward_is_bit_identical_and_attributes_every_stage() {
    let (mut net, data) = trained(1, &QuantScheme::l2(), 1);
    let compiled = CompiledNet::compile(&mut net, false).expect("compiles");
    let input = as_8bit(&data.test_batches(4)[0].input);

    let mut ctx = ExecCtx::new();
    let (plain_logits, plain_counts) = compiled.forward(&input, &mut ctx);

    let mut sample = flight_telemetry::StageSample::new();
    let (prof_logits, prof_counts) = compiled.forward_profiled(&input, &mut ctx, &mut sample);

    assert_eq!(
        prof_logits.as_slice(),
        plain_logits.as_slice(),
        "profiling must not perturb the logits"
    );
    assert_eq!(
        prof_counts, plain_counts,
        "profiling must not change op counts"
    );

    // Every compiled stage appears once, in order, tagged with the path
    // that actually ran — a 4-image batch fills no lane block, so it is
    // `scalar` whatever the context requests; the per-stage op totals
    // sum to the whole pass.
    assert_eq!(sample.stages(), compiled.stages());
    assert_eq!(sample.path(), "scalar");
    let per_stage_ops: u64 = (0..sample.stages())
        .map(|i| sample.stage(i).expect("recorded").2)
        .sum();
    assert_eq!(per_stage_ops, prof_counts.total());
    let (first_kind, _, _) = sample.stage(0).expect("stage 0");
    assert_eq!(first_kind, "conv", "network 1 opens with a conv stage");
}

/// Network 1 (untrained — the engaged path does not depend on weights)
/// plus a batch of `n` images.
fn network1_batch(n: usize) -> (CompiledNet, flight_tensor::Tensor) {
    let mut rng = TensorRng::seed(31);
    let mut net =
        NetworkConfig::by_id(1).build(&QuantScheme::l1(), &mut rng, 10, [3, 16, 16], 0.25);
    let engine = CompiledNet::compile(&mut net, false).expect("compiles");
    let x = flight_tensor::uniform(&mut rng, &[n, 3, 16, 16], -1.0, 1.0);
    (engine, x)
}

/// The `(lane, scalar)` image split of every conv/linear stage of one
/// profiled forward on `path`, plus the sample's path tag.
fn engaged(n: usize, path: KernelPath) -> (Vec<(u64, u64)>, &'static str) {
    let (net, x) = network1_batch(n);
    let mut ctx = ExecCtx::new();
    ctx.set_kernel_path(path);
    let mut sample = flight_telemetry::StageSample::new();
    let _ = net.forward_profiled(&x, &mut ctx, &mut sample);
    let splits = (0..sample.stages())
        .filter(|&i| matches!(sample.stage(i).unwrap().0, "conv" | "linear"))
        .map(|i| sample.stage_images(i).unwrap())
        .collect();
    (splits, sample.path())
}

#[test]
fn profiled_stages_report_the_engaged_lane_and_scalar_images() {
    // Portable lanes are available on every host, so the ground truth
    // holds under FLIGHT_FORCE_SCALAR too (the context pins the path).
    for (n, lane, scalar, tag) in [
        (8, 8, 0, "portable"),
        (3, 0, 3, "scalar"),
        (9, 8, 1, "portable"),
        (1, 0, 1, "scalar"),
    ] {
        let (splits, path) = engaged(n, KernelPath::Portable);
        assert_eq!(splits.len(), 8, "network 1: 7 convs + 1 linear");
        for split in &splits {
            assert_eq!(*split, (lane, scalar), "batch {n}");
        }
        assert_eq!(path, tag, "batch {n}");
    }
    // Forced scalar: every image on the scalar loop, whatever the batch.
    for n in [8, 16] {
        let (splits, path) = engaged(n, KernelPath::Scalar);
        assert!(splits.iter().all(|&s| s == (0, n as u64)), "batch {n}");
        assert_eq!(path, "scalar");
    }
}

/// The `kernel.dispatch.<path>` gauges one traced forward of `n`
/// images on `path` emits.
fn traced_dispatch(n: usize, path: KernelPath) -> Vec<String> {
    use flight_telemetry::{CollectingSink, EventKind, Telemetry};
    let (net, x) = network1_batch(n);
    let sink = std::sync::Arc::new(CollectingSink::new());
    let mut ctx = ExecCtx::with_telemetry(Telemetry::new(sink.clone()));
    ctx.set_kernel_path(path);
    let _ = net.forward(&x, &mut ctx);
    sink.events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Gauge && e.name.starts_with("kernel.dispatch."))
        .map(|e| e.name)
        .collect()
}

#[test]
fn traced_forward_reports_the_path_that_ran() {
    // One image fills no lane block, so every conv runs the scalar loop
    // whatever the context requests; a full block runs the lanes.
    for path in [KernelPath::Portable, flight_kernels::active_path()] {
        assert_eq!(
            traced_dispatch(1, path),
            ["kernel.dispatch.scalar"],
            "{path}"
        );
        assert_eq!(
            traced_dispatch(8, path),
            [format!("kernel.dispatch.{}", path.name())],
            "{path}"
        );
    }
}

#[test]
fn non_finite_images_poison_only_their_own_logits() {
    let (net, x) = network1_batch(3);
    let mut data = x.as_slice().to_vec();
    let img = data.len() / 3;
    data[img + 5] = f32::INFINITY;
    let poisoned = flight_tensor::Tensor::from_vec(data, x.dims());
    let mut ctx = ExecCtx::new();
    let (clean, _) = net.forward(&x, &mut ctx);
    let (out, _) = net.forward(&poisoned, &mut ctx);
    let classes = out.len() / 3;
    let row =
        |t: &flight_tensor::Tensor, b: usize| t.as_slice()[b * classes..(b + 1) * classes].to_vec();
    assert!(
        row(&out, 1).iter().all(|v| v.is_nan()),
        "{:?}",
        row(&out, 1)
    );
    for b in [0, 2] {
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(row(&out, b)),
            bits(row(&clean, b)),
            "batchmate {b} unaffected"
        );
    }
}
