//! Parity suite for the execution engine.
//!
//! Every forward walks the compiled stages in one loop under an
//! observer (none, tracing, or profiling), and the engine quantizes
//! activations with one scale per image. So the observers must be
//! **bit-identical** — same logits, same `OpCounts` — for every batch
//! size and every compiled datapath (shift-add, fixed-point, float
//! fallback), folded or not; an image's logits must not depend on its
//! batchmates; and concurrent contexts over one shared [`CompiledNet`]
//! must agree. These tests use small hand-built untrained networks:
//! parity is a property of the execution engine, not of the weights,
//! and untrained nets keep the debug-mode test run fast.

use std::sync::Arc;

use flight_kernels::{CompiledNet, ExecCtx};
use flight_nn::layers::{BatchNorm2d, Flatten, GlobalAvgPool, LeakyRelu, MaxPool2d};
use flight_telemetry::{CollectingSink, StageSample, Telemetry};
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::layers::{ActQuant, QuantConv2d, QuantLinear};
use flightnn::net::QuantResidualBlock;
use flightnn::{QuantNet, QuantScheme};
use proptest::prelude::*;

const IMG_DIMS: [usize; 3] = [3, 6, 6];

/// conv → BN → LeakyReLU → maxpool → requant → conv → BN → LeakyReLU →
/// GAP → flatten → linear; covers every non-residual stage kind.
fn conv_net(scheme: &QuantScheme, seed: u64) -> QuantNet {
    let mut rng = TensorRng::seed(seed);
    let mut net = QuantNet::new();
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 3, 4, 3, 1, 1));
    net.push_plain(BatchNorm2d::new(4));
    net.push_plain(LeakyRelu::default());
    net.push_plain(MaxPool2d::new(2));
    net.push_plain(ActQuant::new(8));
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 4, 6, 3, 1, 1));
    net.push_plain(BatchNorm2d::new(6));
    net.push_plain(LeakyRelu::default());
    net.push_plain(GlobalAvgPool::new());
    net.push_plain(Flatten::new());
    net.push_linear(QuantLinear::new(&mut rng, scheme, 6, 4));
    net
}

/// conv → residual block (custom joining slope) → GAP → flatten → linear.
fn residual_net(scheme: &QuantScheme, seed: u64) -> QuantNet {
    let mut rng = TensorRng::seed(seed);
    let mut net = QuantNet::new();
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 3, 4, 3, 1, 1));
    let mut main = QuantNet::new();
    main.push_conv(QuantConv2d::new(&mut rng, scheme, 4, 4, 3, 1, 1));
    main.push_plain(BatchNorm2d::new(4));
    net.push_residual(QuantResidualBlock::from_parts_with_slope(main, None, 0.2));
    net.push_plain(GlobalAvgPool::new());
    net.push_plain(Flatten::new());
    net.push_linear(QuantLinear::new(&mut rng, scheme, 4, 4));
    net
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn input_batch(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed(seed);
    uniform(
        &mut rng,
        &[n, IMG_DIMS[0], IMG_DIMS[1], IMG_DIMS[2]],
        -1.0,
        1.0,
    )
}

#[test]
fn logits_are_invariant_under_batch_composition() {
    // Per-image activation scales make an image's logits independent of
    // its batchmates: forwarding a batch equals forwarding each image
    // alone. (This is the invariant dynamic batching relies on.)
    let mut net = conv_net(&QuantScheme::l2(), 7);
    let engine = CompiledNet::compile(&mut net, false).expect("compiles");
    let mut ctx = ExecCtx::new();
    let x = input_batch(5, 77);
    let (batched, _) = engine.forward(&x, &mut ctx);
    let classes = batched.dims()[1];
    for i in 0..5 {
        let img = Tensor::from_vec(
            x.outer(i).to_vec(),
            &[1, IMG_DIMS[0], IMG_DIMS[1], IMG_DIMS[2]],
        );
        let (solo, _) = engine.forward(&img, &mut ctx);
        assert_eq!(
            solo.as_slice(),
            &batched.as_slice()[i * classes..(i + 1) * classes],
            "image {i} depends on its batchmates"
        );
    }
}

#[test]
fn residual_slope_is_plumbed_through_compilation() {
    // Two identical nets except for the residual joining slope must
    // compile to engines that disagree — with the old hardcoded 0.01 the
    // slope would be silently ignored.
    let mut rng = TensorRng::seed(10);
    let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
    let scheme = QuantScheme::l1();

    let run = |slope: f32| {
        let mut rng = TensorRng::seed(21);
        let mut net = QuantNet::new();
        net.push_conv(QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1));
        let mut main = QuantNet::new();
        main.push_conv(QuantConv2d::new(&mut rng, &scheme, 4, 4, 3, 1, 1));
        net.push_residual(QuantResidualBlock::from_parts_with_slope(main, None, slope));
        let engine = CompiledNet::compile(&mut net, false).expect("compiles");
        engine.forward(&x, &mut ExecCtx::new()).0
    };

    let steep = run(0.5);
    let default = run(0.01);
    assert!(
        steep.as_slice() != default.as_slice(),
        "changing the residual slope must change the compiled block's output"
    );
}

#[test]
fn shared_compiled_net_serves_concurrent_contexts() {
    // The request-first split: one Arc<CompiledNet>, N threads each with
    // a private ExecCtx, all producing the reference logits bit-exactly.
    // A reused warm context must behave like a fresh one.
    let mut net = conv_net(&QuantScheme::l1(), 13);
    let shared = Arc::new(CompiledNet::compile(&mut net, false).expect("compiles"));
    let inputs: Vec<Tensor> = (0..6).map(|i| input_batch(2, 300 + i)).collect();
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| shared.forward(x, &mut ExecCtx::new()).0.as_slice().to_vec())
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let shared = shared.clone();
            let inputs = &inputs;
            let expected = &expected;
            scope.spawn(move || {
                let mut ctx = ExecCtx::new();
                // Walk the inputs twice: the second pass runs on warmed
                // scratch arenas and must not change a single bit.
                for pass in 0..2 {
                    for (x, want) in inputs.iter().zip(expected) {
                        let (logits, _) = shared.forward(x, &mut ctx);
                        assert_eq!(
                            logits.as_slice(),
                            &want[..],
                            "worker {worker} pass {pass} diverges"
                        );
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every observer of the one stage walk — the null observer of an
    /// untraced forward, the tracer of a forward on a live sink, and the
    /// profiler of `forward_profiled` — runs the same stages on the same
    /// numbers: logits bits and op counts agree exactly, on every
    /// datapath (shift-add, fixed point, float fallback, residual),
    /// folded or not, at batch sizes below, at and across lane blocks.
    #[test]
    fn every_stage_observer_sees_the_same_numbers(
        which in 0usize..4,
        fold in any::<bool>(),
        n in 1usize..=17,
    ) {
        let (mut net, label) = match which {
            0 => (conv_net(&QuantScheme::l2(), 42), "l2"),
            1 => (residual_net(&QuantScheme::l1(), 43), "residual"),
            2 => (conv_net(&QuantScheme::fp4w8a(), 44), "fp4w8a"),
            _ => (conv_net(&QuantScheme::full(), 45), "full"),
        };
        let engine = CompiledNet::compile(&mut net, fold).expect("compiles");
        let x = input_batch(n, 200 + n as u64);

        let (plain, plain_counts) = engine.forward(&x, &mut ExecCtx::new());
        let sink = Arc::new(CollectingSink::new());
        let mut traced_ctx = ExecCtx::with_telemetry(Telemetry::new(sink.clone()));
        let (traced, traced_counts) = engine.forward(&x, &mut traced_ctx);
        let mut sample = StageSample::new();
        let (profiled, profiled_counts) =
            engine.forward_profiled(&x, &mut ExecCtx::new(), &mut sample);

        prop_assert!(!sink.events().is_empty(), "{} traced forward emits", label);
        prop_assert_eq!(sample.stages(), engine.stages());
        prop_assert_eq!(bits(&plain), bits(&traced));
        prop_assert_eq!(bits(&plain), bits(&profiled));
        prop_assert_eq!(plain_counts, traced_counts);
        prop_assert_eq!(plain_counts, profiled_counts);
    }
}
