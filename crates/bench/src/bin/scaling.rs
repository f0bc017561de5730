//! Scaling exhibit: measured serving-capacity curves for the compiled
//! integer engine on network 1 (L-1).
//!
//! Sweeps worker count × batch size, measures QPS (images/s) and the
//! merged per-image latency distribution of every configuration, fits a
//! Universal Scalability Law curve (serial fraction σ + coherency
//! penalty κ) to throughput vs workers at the reference batch, and
//! writes everything into `BENCH_scaling.manifest.json` — the input of
//! `flightctl capacity`. Set FLIGHT_FIDELITY=smoke|bench|full and
//! (optionally) FLIGHT_TELEMETRY=stderr|jsonl:<path>.
//!
//! Workers scale the way the server does: N independent threads share
//! one `Arc<CompiledNet>`, each with its own `ExecCtx`, each running
//! whole batches. Every image of a batch completes when its batch does,
//! so each worker records the batch wall clock once per image into its
//! own [`Log2Histogram`] shard, and the shards merge into the
//! configuration's distribution (merge == whole, by construction).
//! Every worker's first forward is checked bit for bit against a
//! single-context reference before its timing counts.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use flight_bench::suite::ModelRow;
use flight_bench::usl::fit_usl;
use flight_bench::{BenchProfile, BenchRun};
use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_kernels::{CompiledNet, ExecCtx};
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::Log2Histogram;
use flight_tensor::{Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::QuantScheme;

/// Worker count every sweep includes, and the batch size the USL curve
/// is fitted at.
const REFERENCE_BATCH: usize = 32;

/// One measured sweep point.
struct ConfigPoint {
    workers: usize,
    batch: usize,
    qps: f64,
    e2e: Log2Histogram,
}

fn main() {
    let mut run = BenchRun::start("scaling");
    let profile = BenchProfile::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let (worker_counts, batches, reps) = sweep_plan(profile.fidelity, cores);
    let max_workers = *worker_counts.last().expect("nonempty sweep");
    run.set_workers(max_workers);
    println!(
        "Scaling sweep: network 1, L-1, workers {worker_counts:?} x batches {batches:?}, \
         {reps} reps, {cores} cores, profile {:?}",
        profile.fidelity
    );

    let cfg = NetworkConfig::by_id(1);
    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 5);
    let scheme = QuantScheme::l1();
    let mut rng = TensorRng::seed(profile.seed);
    let mut net = cfg.build(
        &scheme,
        &mut rng,
        data.classes(),
        data.image_dims(),
        profile.width_scale(cfg.width),
    );
    let engine = Arc::new(CompiledNet::compile(&mut net, true).expect("network 1 compiles"));

    let mut points: Vec<ConfigPoint> = Vec::new();
    for &batch in &batches {
        let input = data.train_batches(batch)[0].input.clone();
        let (reference, _) = engine.forward(&input, &mut ExecCtx::new());
        for &workers in &worker_counts {
            let point = measure(&engine, workers, batch, &input, &reference, reps);
            println!(
                "w{workers} b{batch}: {:.1} img/s | p50 {:.3} ms | p99 {:.3} ms",
                point.qps,
                point.e2e.percentile(0.50) * 1e3,
                point.e2e.percentile(0.99) * 1e3,
            );
            points.push(point);
        }
    }
    println!("parity OK at {max_workers} workers");

    // USL fit: throughput vs workers at the reference batch.
    let observations: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.batch == REFERENCE_BATCH)
        .map(|p| (p.workers as f64, p.qps))
        .collect();
    let fit = fit_usl(&observations).expect("sweep spans >= 2 worker counts");
    println!(
        "USL fit: lambda {:.1} img/s, sigma {:.4}, kappa {:.5}, R^2 {:.4}",
        fit.lambda, fit.sigma, fit.kappa, fit.r_squared
    );

    // Manifest: table rows (speedup relative to the single-worker
    // baseline at the same batch), flat dotted metrics for `flightctl
    // diff`, and the structured `scaling` block `flightctl capacity`
    // consumes.
    let rows: Vec<ModelRow> = points
        .iter()
        .map(|p| {
            let base = points
                .iter()
                .find(|q| q.batch == p.batch && q.workers == 1)
                .map_or(p.qps, |q| q.qps);
            ModelRow {
                label: format!("w{} b{}", p.workers, p.batch),
                accuracy: 0.0,
                storage_mb: 0.0,
                throughput: p.qps,
                speedup: p.qps / base.max(1e-9),
                energy_uj: 0.0,
                mean_k: None,
            }
        })
        .collect();

    let mut extras: Vec<(String, JsonValue)> = Vec::new();
    for p in &points {
        let base = format!("scaling.w{}.b{}", p.workers, p.batch);
        extras.push((format!("{base}.qps"), JsonValue::from(p.qps)));
        for (tag, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            extras.push((
                format!("{base}.{tag}_ms"),
                JsonValue::from(p.e2e.percentile(q) * 1e3),
            ));
        }
    }
    extras.push((
        "scaling.fit.lambda".to_string(),
        JsonValue::from(fit.lambda),
    ));
    extras.push(("scaling.fit.sigma".to_string(), JsonValue::from(fit.sigma)));
    extras.push(("scaling.fit.kappa".to_string(), JsonValue::from(fit.kappa)));
    extras.push((
        "scaling.fit.r_squared".to_string(),
        JsonValue::from(fit.r_squared),
    ));
    extras.push((
        "scaling".to_string(),
        scaling_block(&points, &fit, &data, reps),
    ));

    let extra_refs: Vec<(&str, JsonValue)> = extras
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    run.finish_with(
        Some(&profile),
        &[("scaling".to_string(), rows)],
        &extra_refs,
    );
}

/// The sweep grid: smoke keeps CI fast (two worker counts, one batch);
/// bench/full walk powers of two up to the core count and three batch
/// sizes.
fn sweep_plan(fidelity: Fidelity, cores: usize) -> (Vec<usize>, Vec<usize>, usize) {
    if fidelity == Fidelity::Smoke {
        return (vec![1, 2], vec![REFERENCE_BATCH], 3);
    }
    let mut workers = vec![1usize];
    let mut w = 2;
    while w <= cores.max(2) {
        workers.push(w);
        w *= 2;
    }
    (workers, vec![16, REFERENCE_BATCH, 64], 10)
}

/// Measures one `(workers, batch)` cell: `workers` threads, each with
/// its own context over the shared engine, run `reps` timed forwards of
/// `input` after one untimed forward that must reproduce `reference`
/// bit for bit. QPS counts every image every worker completed over the
/// wall clock from the common start; each worker's e2e shard records
/// its batch wall once per image.
fn measure(
    engine: &Arc<CompiledNet>,
    workers: usize,
    batch: usize,
    input: &Tensor,
    reference: &Tensor,
    reps: usize,
) -> ConfigPoint {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let expected = bits(reference);
    let start_line = Barrier::new(workers + 1);
    let (wall, shards) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let net = Arc::clone(engine);
                let (start_line, expected) = (&start_line, &expected);
                scope.spawn(move || {
                    let mut ctx = ExecCtx::new();
                    let (warm, _) = net.forward(input, &mut ctx);
                    assert_eq!(&bits(&warm), expected, "a worker's logits diverge");
                    start_line.wait();
                    let mut e2e = Log2Histogram::new();
                    for _ in 0..reps {
                        let rep_start = Instant::now();
                        let _ = net.forward(input, &mut ctx);
                        let rep_wall = rep_start.elapsed().as_secs_f64();
                        for _ in 0..batch {
                            e2e.record(rep_wall);
                        }
                    }
                    e2e
                })
            })
            .collect();
        start_line.wait();
        let start = Instant::now();
        let shards: Vec<Log2Histogram> = handles
            .into_iter()
            .map(|h| h.join().expect("scaling worker panicked"))
            .collect();
        (start.elapsed().as_secs_f64(), shards)
    });

    let mut e2e = Log2Histogram::new();
    for shard in &shards {
        e2e.merge(shard);
    }
    let images = workers * reps * batch;
    assert_eq!(
        e2e.total(),
        images as u64,
        "merged shards cover every image of every rep"
    );
    ConfigPoint {
        workers,
        batch,
        qps: images as f64 / wall.max(1e-9),
        e2e,
    }
}

/// The structured `scaling` manifest block: sweep geometry, the full
/// percentile table per configuration, and the USL fit.
fn scaling_block(
    points: &[ConfigPoint],
    fit: &flight_bench::UslFit,
    data: &SyntheticDataset,
    reps: usize,
) -> JsonValue {
    let [c, h, w] = data.image_dims();
    let configs: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            let ms = |q: f64| p.e2e.percentile(q) * 1e3;
            JsonObject::new()
                .field("workers", p.workers)
                .field("batch", p.batch)
                .field("qps", p.qps)
                .field("samples", p.e2e.total())
                .field(
                    "latency_ms",
                    JsonObject::new()
                        .field("min", p.e2e.min() * 1e3)
                        .field("p50", ms(0.50))
                        .field("p90", ms(0.90))
                        .field("p95", ms(0.95))
                        .field("p99", ms(0.99))
                        .field("p999", ms(0.999))
                        .field("max", p.e2e.max() * 1e3)
                        .build(),
                )
                .build()
        })
        .collect();
    JsonObject::new()
        .field("network", 1u64)
        .field("scheme", "l1")
        .field(
            "image_dims",
            vec![JsonValue::from(c), JsonValue::from(h), JsonValue::from(w)],
        )
        .field("reference_batch", REFERENCE_BATCH)
        .field("reps", reps)
        .field("configs", configs)
        .field(
            "fit",
            JsonObject::new()
                .field("lambda", fit.lambda)
                .field("sigma", fit.sigma)
                .field("kappa", fit.kappa)
                .field("r_squared", fit.r_squared)
                .field(
                    "peak_workers",
                    match fit.peak_workers() {
                        Some(p) => JsonValue::from(p),
                        None => JsonValue::Null,
                    },
                )
                .build(),
        )
        .build()
}
