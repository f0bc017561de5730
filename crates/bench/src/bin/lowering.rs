//! Kernel-lowering exhibit: interpreted tap loops vs the lowered tap
//! programs (per-tap offsets into zero-padded planes) vs the
//! batch-major SIMD lanes on a CIFAR-scale shift-add layer and on
//! network 1's small 4×4 plane, where most positions touch padding,
//! plus the lowered cores behind a compiled two-conv engine. Set
//! FLIGHT_FIDELITY=smoke|bench|full and (optionally)
//! FLIGHT_TELEMETRY=stderr|jsonl:<path>. The manifest carries top-level
//! `parity`, `simd_parity`, `speedup`, `scalar_vs_simd_speedup`,
//! `small_plane_parity` and `small_plane_scalar_vs_simd` fields so CI
//! can gate on them: the parity fields are the bitwise logits-and-counts
//! agreement of every kernel pair measured here, `speedup` is the dispatched
//! kernel over naive (single thread), and the `scalar_vs_simd` ratios
//! are the SIMD lane path over the pinned per-image scalar path on the
//! same lowered program.

use std::time::Instant;

use flight_bench::suite::ModelRow;
use flight_bench::{BenchProfile, BenchRun};
use flight_data::Fidelity;
use flight_kernels::{
    active_path, shift_add_conv, shift_add_conv_reference, shift_add_conv_with_path, CompiledNet,
    ExecCtx, KernelPath, QuantActivations, ShiftKernel, LANES,
};
use flight_telemetry::json::JsonValue;
use flight_tensor::Tensor;
use flight_tensor::{uniform, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::convert::shift_plan;
use flightnn::layers::QuantConv2d;
use flightnn::{QuantNet, QuantScheme};

/// CIFAR-scale layer: 32 input planes at 32x32, 32 filters, 3x3, pad 1.
const CHANNELS: usize = 32;
const FILTERS: usize = 32;
const SIDE: usize = 32;

fn main() {
    let run = BenchRun::start("lowering");
    let profile = BenchProfile::from_env();
    let smoke = profile.fidelity == Fidelity::Smoke;
    // Smoke still fills one SIMD lane block, so the vectorized interior
    // is exercised (and gated) at every fidelity.
    let batch = if smoke { LANES } else { 16 };
    let reps = if smoke { 3 } else { 10 };
    println!(
        "Kernel lowering: {CHANNELS}ch {SIDE}x{SIDE} k3 L-2, batch {batch}, profile {:?}",
        profile.fidelity
    );

    // One real quantized layer, compiled to a tap program.
    let scheme = QuantScheme::l2();
    let mut rng = TensorRng::seed(profile.seed);
    let mut conv = QuantConv2d::new(&mut rng, &scheme, CHANNELS, FILTERS, 3, 1, 1);
    let plan = shift_plan(&mut conv);
    let kernel = ShiftKernel::compile(&plan, &[FILTERS, CHANNELS, 3, 3]);
    let x = uniform(&mut rng, &[batch, CHANNELS, SIDE, SIDE], -1.0, 1.0);
    let qa = QuantActivations::quantize(&x, 8);

    // Parity gate 1: the dispatched kernel (SIMD where the host has it)
    // vs the interpreted reference, bitwise, logits and op counts both.
    let (lo_out, lo_counts) = shift_add_conv(&qa, &kernel, 1, 1);
    let (re_out, re_counts) = shift_add_conv_reference(&qa, &kernel, 1, 1);
    let parity = lo_out.as_slice() == re_out.as_slice() && lo_counts == re_counts;

    // Parity gate 1b: every pinned dispatch path against the same
    // oracle — AVX2/portable lanes and the per-image scalar path must
    // all produce the reference bits.
    let simd = active_path();
    let simd_parity = [KernelPath::Portable, KernelPath::Scalar, simd]
        .into_iter()
        .all(|path| {
            let (out, counts) = shift_add_conv_with_path(&qa, &kernel, 1, 1, path);
            out.as_slice() == re_out.as_slice() && counts == re_counts
        });

    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        (reps * batch) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let naive_ips = time(&|| {
        let _ = shift_add_conv_reference(&qa, &kernel, 1, 1);
    });
    let scalar_ips = time(&|| {
        let _ = shift_add_conv_with_path(&qa, &kernel, 1, 1, KernelPath::Scalar);
    });
    let simd_ips = time(&|| {
        let _ = shift_add_conv_with_path(&qa, &kernel, 1, 1, simd);
    });
    let speedup = simd_ips / naive_ips.max(1e-9);
    let scalar_vs_simd = simd_ips / scalar_ips.max(1e-9);
    println!(
        "single thread: naive {naive_ips:.1} img/s | lowered scalar {scalar_ips:.1} img/s | \
         simd[{simd}] {simd_ips:.1} img/s | {speedup:.2}x over naive, \
         {scalar_vs_simd:.2}x over scalar"
    );

    // Small plane: network 1's 4x4, 16-channel layer (width 0.25), one
    // lane block. 12 of its 16 output positions read padding.
    let small = NetworkConfig::by_id(1)
        .conv_plan([3, 16, 16], 0.25)
        .into_iter()
        .find(|spec| spec.in_h == 4 && spec.in_channels == spec.out_channels)
        .expect("network 1 has a 4x4 channel-preserving conv layer");
    let mut srng = TensorRng::seed(profile.seed.wrapping_add(2));
    let mut small_conv = QuantConv2d::new(
        &mut srng,
        &QuantScheme::l1(),
        small.in_channels,
        small.out_channels,
        small.kernel,
        small.stride,
        small.padding,
    );
    let small_kernel = ShiftKernel::compile(
        &shift_plan(&mut small_conv),
        &[
            small.out_channels,
            small.in_channels,
            small.kernel,
            small.kernel,
        ],
    );
    let sx = uniform(
        &mut srng,
        &[LANES, small.in_channels, 4, small.in_w],
        -1.0,
        1.0,
    );
    let sqa = QuantActivations::quantize(&sx, 8);
    let (s, p) = (small.stride, small.padding);
    let (small_ref, small_ref_counts) = shift_add_conv_reference(&sqa, &small_kernel, s, p);
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let small_parity = [simd, KernelPath::Portable, KernelPath::Scalar]
        .into_iter()
        .all(|path| {
            let (out, counts) = shift_add_conv_with_path(&sqa, &small_kernel, s, p, path);
            bits(&out) == bits(&small_ref) && counts == small_ref_counts
        });
    let small_reps = reps * 50;
    let time_small = |path: KernelPath| {
        let start = Instant::now();
        for _ in 0..small_reps {
            let _ = shift_add_conv_with_path(&sqa, &small_kernel, s, p, path);
        }
        (small_reps * LANES) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let small_scalar_ips = time_small(KernelPath::Scalar);
    let small_simd_ips = time_small(simd);
    let small_ratio = small_simd_ips / small_scalar_ips.max(1e-9);
    println!(
        "small plane {}ch 4x{} k{} p{}, batch {LANES}: lowered scalar {small_scalar_ips:.1} img/s | \
         simd[{simd}] {small_simd_ips:.1} img/s | {small_ratio:.2}x over scalar | parity {small_parity}",
        small.out_channels, small.in_w, small.kernel, small.padding
    );

    // Engine pass: the same lowered cores behind a compiled network.
    let mut net = QuantNet::new();
    let mut nrng = TensorRng::seed(profile.seed.wrapping_add(1));
    net.push_conv(QuantConv2d::new(&mut nrng, &scheme, 3, 8, 3, 1, 1));
    net.push_conv(QuantConv2d::new(&mut nrng, &scheme, 8, 8, 3, 1, 1));
    let engine = CompiledNet::compile(&mut net, false).expect("net compiles");
    let mut ctx = ExecCtx::new();
    let nx = uniform(&mut nrng, &[batch, 3, SIDE, SIDE], -1.0, 1.0);
    let _ = engine.forward(&nx, &mut ctx); // sizes the scratch
    let start = Instant::now();
    for _ in 0..reps {
        let _ = engine.forward(&nx, &mut ctx);
    }
    let seq_ips = (reps * batch) as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!("engine: {seq_ips:.1} img/s");

    println!("parity: {parity} (paths {simd_parity})");

    let row = |label: &str, ips: f64, rel: f64| ModelRow {
        label: label.to_string(),
        accuracy: 0.0,
        storage_mb: 0.0,
        throughput: ips,
        speedup: rel,
        energy_uj: 0.0,
        mean_k: None,
    };
    let tables = [
        (
            "shift_conv".to_string(),
            vec![
                row("naive", naive_ips, 1.0),
                row(
                    "lowered scalar",
                    scalar_ips,
                    scalar_ips / naive_ips.max(1e-9),
                ),
                row(&format!("lowered simd [{simd}]"), simd_ips, speedup),
            ],
        ),
        (
            "small_plane".to_string(),
            vec![
                row("lowered scalar", small_scalar_ips, 1.0),
                row(
                    &format!("lowered simd [{simd}]"),
                    small_simd_ips,
                    small_ratio,
                ),
            ],
        ),
        (
            "engine".to_string(),
            vec![row("lowered sequential", seq_ips, 1.0)],
        ),
    ];
    run.finish_with(
        Some(&profile),
        &tables,
        &[
            ("parity", JsonValue::Bool(parity)),
            ("simd_parity", JsonValue::Bool(simd_parity)),
            ("speedup", JsonValue::Number(speedup)),
            ("scalar_vs_simd_speedup", JsonValue::Number(scalar_vs_simd)),
            ("small_plane_parity", JsonValue::Bool(small_parity)),
            ("small_plane_scalar_vs_simd", JsonValue::Number(small_ratio)),
        ],
    );
    assert!(parity, "lowered kernels diverged from the references");
    assert!(simd_parity, "a dispatch path diverged from the reference");
    assert!(
        small_parity,
        "a small-plane path diverged from the reference"
    );
}
