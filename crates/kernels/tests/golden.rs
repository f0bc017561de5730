//! Golden bit-identity fixture for the whole integer engine.
//!
//! Every case compiles one seeded network (Table 1 networks 1–4 at
//! reduced width, parameters and batch-norm statistics perturbed so
//! biases and affines are nontrivial), runs one seeded input batch
//! through [`CompiledNet::forward`], and compares an FNV-1a hash of the
//! logits' bits plus the exact [`OpCounts`] with the values recorded in
//! `golden/forward.txt`. The file was recorded once and pins the engine's
//! numbers: any change to lowering, dispatch, fusion or quantization
//! that moves a single logit bit or op count fails here, on every kernel
//! path (AVX2 when the host has it, portable lanes, scalar).
//!
//! Each case's third input holds an `inf` pixel in its last image, so
//! the refusal path (NaN logits for that image only) is pinned too;
//! NaNs are canonicalized before hashing.
//!
//! Re-record (only for an intended numeric change, stated as such):
//! `FLIGHT_GOLDEN_RECORD=1 cargo test -p flight-kernels --release --test golden`.

use std::fmt::Write as _;

use flight_kernels::{cpu_features, CompiledNet, ExecCtx, KernelPath, OpCounts};
use flight_nn::Layer;
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::{QuantNet, QuantScheme};

const FIXTURE: &str = include_str!("golden/forward.txt");
const FIXTURE_PATH: &str = "tests/golden/forward.txt";
const RECORD_ENV: &str = "FLIGHT_GOLDEN_RECORD";
const BATCHES: [usize; 4] = [1, 3, 8, 9];
const INPUTS: u64 = 3;
const CLASSES: usize = 10;

/// The schemes of the fixture, by the label its lines carry.
fn schemes() -> [(&'static str, QuantScheme); 4] {
    [
        ("l1", QuantScheme::l1()),
        ("l2", QuantScheme::l2()),
        ("fp4w8a", QuantScheme::fp4w8a()),
        ("full", QuantScheme::full()),
    ]
}

/// Image dims and width scale per network: small enough for a debug
/// run, wide enough that every lane block and border case is exercised.
fn shape(net: u8) -> ([usize; 3], f32) {
    match net {
        3 => ([3, 16, 16], 0.0625),
        4 => ([3, 12, 12], 0.25),
        _ => ([3, 16, 16], 0.25),
    }
}

/// A seeded network with every parameter nudged off its initializer and
/// batch-norm statistics drawn near their defaults (means in ±0.1,
/// variances in `[0.5, 1.5)`), so conv biases, affine scales and affine
/// biases all differ from 0 and 1 while activations stay input-driven.
fn network(net: u8, scheme: &QuantScheme) -> QuantNet {
    let (image, width) = shape(net);
    let mut rng = TensorRng::seed(0x601d + net as u64);
    let mut q = NetworkConfig::by_id(net).build(scheme, &mut rng, CLASSES, image, width);
    q.visit_params(&mut |p| {
        let noise = uniform(&mut rng, p.value.dims(), -0.05, 0.05);
        p.value = &p.value + &noise;
    });
    // Batch norms visit their running mean, then their running variance.
    let mut mean = true;
    q.visit_state(&mut |t| {
        let (lo, hi) = if mean { (-0.1, 0.1) } else { (0.5, 1.5) };
        *t = uniform(&mut rng, t.dims(), lo, hi);
        mean = !mean;
    });
    q
}

/// Seeded input `seed` of `n` images; input 2 puts `+inf` in one pixel
/// of the last image.
fn input(net: u8, n: usize, seed: u64) -> Tensor {
    let (image, _) = shape(net);
    let mut rng = TensorRng::seed(1000 * net as u64 + 10 * n as u64 + seed);
    let mut x = uniform(&mut rng, &[n, image[0], image[1], image[2]], -1.0, 1.0);
    if seed == 2 {
        let per = x.len() / n;
        x.as_mut_slice()[(n - 1) * per + 5] = f32::INFINITY;
    }
    x
}

/// FNV-1a over the dims and the logits' bits, NaNs canonicalized.
fn digest(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &d in t.dims() {
        eat(&(d as u64).to_le_bytes());
    }
    for &v in t.as_slice() {
        let bits = if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        };
        eat(&bits.to_le_bytes());
    }
    h
}

fn line(case: &str, logits: &Tensor, c: &OpCounts) -> String {
    format!(
        "{case} {:016x} {} {} {} {} {}",
        digest(logits),
        c.float_mults,
        c.float_adds,
        c.int_mults,
        c.int_adds,
        c.shifts
    )
}

fn paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Portable, KernelPath::Scalar];
    if cpu_features().avx2 {
        paths.insert(0, KernelPath::Avx2);
    }
    paths
}

#[test]
fn engine_logits_and_counts_match_the_golden_fixture() {
    let record = std::env::var(RECORD_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let mut recorded = String::from(
        "# net scheme fold batch input fnv1a(logits) float_mults float_adds int_mults int_adds shifts\n",
    );
    let mut row = 0;
    for net in 1..=4u8 {
        for (label, scheme) in schemes() {
            let mut q = network(net, &scheme);
            for fold in [false, true] {
                let compiled = CompiledNet::compile(&mut q, fold).expect("network compiles");
                let mut ctxs: Vec<(KernelPath, ExecCtx)> = paths()
                    .into_iter()
                    .map(|p| {
                        let mut ctx = ExecCtx::new();
                        ctx.set_kernel_path(p);
                        (p, ctx)
                    })
                    .collect();
                for n in BATCHES {
                    for seed in 0..INPUTS {
                        let case = format!("{net} {label} {} {n} {seed}", u8::from(fold));
                        let x = input(net, n, seed);
                        if record {
                            let (logits, counts) = compiled.forward(&x, &mut ctxs[0].1);
                            writeln!(recorded, "{}", line(&case, &logits, &counts)).unwrap();
                            continue;
                        }
                        let want = expected
                            .get(row)
                            .unwrap_or_else(|| panic!("fixture has no row for case {case}"));
                        for (path, ctx) in &mut ctxs {
                            let (logits, counts) = compiled.forward(&x, ctx);
                            assert_eq!(
                                line(&case, &logits, &counts),
                                *want,
                                "case {case} on the {path} path"
                            );
                        }
                        row += 1;
                    }
                }
            }
        }
    }
    if record {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_PATH);
        std::fs::write(&path, recorded).expect("fixture writes");
    } else {
        assert_eq!(row, expected.len(), "fixture has rows beyond the cases");
    }
}
