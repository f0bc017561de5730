//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-paced|serve-saturate|engine|engine-fixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable block (host, sample counts, ratio bases,
//! notes, each metric with its unit), then as the last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. Exits 1 when an output disagrees with the oracle, 2 on
//! a usage or set-up error. See `perfbench/README.md` for what each
//! workload and metric means.

mod alloc;
mod engine;
mod gen;
mod host;
mod ledger;
mod report;
mod serve;
mod trace;

use report::Report;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["serve-paced", "serve-saturate", "engine", "engine-fixed"];

/// Printed with `--trace 0`, on every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_img_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`, on every workload; a layer the workload
/// does not exercise reads 0 and is named in the output.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &str)> = [
        ("client.latency_ms.p90", "ms"),
        ("client.latency_ms.p95", "ms"),
        ("client.latency_ms.p99", "ms"),
        ("wire.ms.p50", "ms"),
        ("wire.ms.p95", "ms"),
        ("wire.samples", "count"),
        ("gen.late_ms.p95", "ms"),
        ("server.queue_us.p50", "us"),
        ("server.queue_us.p95", "us"),
        ("server.batch_form_us.p50", "us"),
        ("server.batch_form_us.p95", "us"),
        ("server.compute_us.p50", "us"),
        ("server.compute_us.p95", "us"),
        ("server.total_us.p50", "us"),
        ("server.unattributed_us.p50", "us"),
        ("server.reply_write_us.p50", "us"),
        ("server.rejected", "count"),
        ("server.errors", "count"),
        ("batcher.mean_batch", "img/batch"),
        ("batcher.batches", "count"),
        ("batcher.coalesced_frac", "frac"),
        ("batcher.lane_eligible_frac", "frac"),
        ("protocol.parse_request_us.p50", "us"),
        ("protocol.request_bytes", "B"),
        ("swap.ms.mean", "ms"),
        ("swap.count", "count"),
        ("model.build_ms.p50", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in engine::STAGE_KINDS {
        m.push((format!("profile.{kind}.share"), "frac"));
    }
    m.push(("cpu.util".into(), "cpu-s/s"));
    for b in ["b1", "b8"] {
        m.push((format!("engine.forward_us.{b}.p50"), "us"));
        for kind in engine::STAGE_KINDS {
            m.push((format!("engine.stage.{kind}_us.{b}"), "us"));
        }
        m.push((format!("engine.unattributed_us.{b}"), "us"));
        m.push((format!("engine.allocs_per_forward.{b}"), "count"));
    }
    for (n, u) in [
        ("engine.b1_img_per_s", "1/s"),
        ("engine.b8_img_per_s", "1/s"),
        ("ops.shift_per_img", "count"),
        ("ops.add_per_img", "count"),
        ("ops.mult_per_img", "count"),
        ("engine.bytes_per_img", "B"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<(Report, String), String> {
    let mut report = Report::new(&args.workload, args.seed);
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve-paced" => serve::run(serve::Loop::Paced, seed, secs, trace, &mut report)?,
        "serve-saturate" => serve::run(serve::Loop::Saturate, seed, secs, trace, &mut report)?,
        "engine" => engine::run("l1", seed, secs, trace, &mut report)?,
        "engine-fixed" => engine::run("fp4w8a", seed, secs, trace, &mut report)?,
        _ => unreachable!("checked in parse_args"),
    }
    let host = host::host_block(seed);
    let line = if trace {
        let wanted = per_layer();
        let wanted: Vec<(&str, &str)> = wanted.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        report.finish(&wanted, true, &host)?
    } else {
        report.finish(&END_TO_END, false, &host)?
    };
    Ok((report, line))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, line)) => {
            println!("{line}");
            if report.mismatches > 0 {
                eprintln!(
                    "perfbench: {} outputs disagree with the oracle",
                    report.mismatches
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
