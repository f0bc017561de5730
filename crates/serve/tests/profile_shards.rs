//! The per-layer profiler's sharding must be *indistinguishable* from
//! a single global recorder — the same contract `tests/stats_shards.rs`
//! pins for [`ServeStats`](flight_serve::ServeStats). Merging the
//! per-worker [`StageProf`] shards at snapshot time has to be
//! bit-identical to having funneled every sampled forward through one
//! lock, for lifetime tallies and for every rolling window. And the
//! 1-in-N sampling decision must be a pure function of the request id,
//! so two servers under the same request stream profile the same
//! requests.
//!
//! The file also covers the end-to-end loop: a live server with
//! sampling at 1/1 answers the `profile` verb with every compiled
//! stage attributed, and the profile's rows — stages plus the
//! unattributed remainder — sum to the compute time they sample.

use std::sync::Arc;
use std::time::Instant;

use flight_kernels::ExecCtx;
use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::JsonValue;
use flight_telemetry::{sampled, StageProf, StageSample, MAX_STAGES, UNATTRIBUTED_KIND};
use flight_tensor::Tensor;

/// A profile snapshot's rows: the `stages` array.
fn rows(profile: &JsonValue) -> &[JsonValue] {
    profile
        .get("stages")
        .and_then(JsonValue::as_array)
        .expect("stages array")
}

/// A row's numeric field.
fn field(row: &JsonValue, key: &str) -> f64 {
    row.get(key).and_then(JsonValue::as_f64).unwrap()
}

/// A deterministic pseudo-load: sampled forward `i` as a filled
/// [`StageSample`] plus a synthetic clock spread over ~6 one-second
/// window buckets (mirroring the stats shard test).
fn event(i: u64) -> (StageSample, u64) {
    const KINDS: [&str; 4] = ["conv", "leaky_relu", "maxpool", "linear"];
    let mut sample = StageSample::new();
    sample.reset();
    sample.set_path(if i.is_multiple_of(5) {
        "portable"
    } else {
        "avx2"
    });
    sample.set_images(1 + i % 4);
    let stages = 3 + (i % 3) as usize;
    for s in 0..stages {
        sample.record_stage(
            KINDS[s % KINDS.len()],
            10_000 + (i * 97 + s as u64 * 31) % 900_000,
            1_000 + (i * 53 + s as u64 * 17) % 40_000,
        );
    }
    let now_us = 1_000_000 + (i % 6) * 1_000_000 + (i * 239) % 1_000_000;
    (sample, now_us)
}

#[test]
fn concurrent_sharded_recording_matches_a_single_lock_reference() {
    const SHARDS: usize = 4;
    const PER_SHARD: u64 = 400;

    let sharded = Arc::new(StageProf::new(SHARDS, 16));
    // Same shard count (the snapshot reports it), but every record
    // funnels serially through shard 0 — the single-lock reference.
    let reference = StageProf::new(SHARDS, 16);

    // Concurrent writers, one per shard — the deployment shape.
    let handles: Vec<_> = (0..SHARDS as u64)
        .map(|shard| {
            let sharded = Arc::clone(&sharded);
            std::thread::spawn(move || {
                for i in 0..PER_SHARD {
                    let (sample, now_us) = event(shard * PER_SHARD + i);
                    sharded.record_at(shard as usize, &sample, now_us);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }

    // The same events, serially, through one shard.
    for id in 0..SHARDS as u64 * PER_SHARD {
        let (sample, now_us) = event(id);
        reference.record_at(0, &sample, now_us);
    }

    // Lifetime tallies: bit-identical (StageTallies is PartialEq over
    // exact histogram buckets and path counts, not approximate
    // percentiles).
    assert_eq!(sharded.merged(), reference.merged());

    // Every reported window, probed at several clock positions, agrees
    // bucket-for-bucket too.
    for now_us in [1_500_000u64, 3_250_000, 6_900_000, 20_000_000] {
        for window in [1usize, 10, 60] {
            assert_eq!(
                sharded.merged_window_at(now_us, window),
                reference.merged_window_at(now_us, window),
                "window {window}s @ {now_us}us"
            );
        }
        assert_eq!(
            sharded.snapshot_json_at(now_us).render(),
            reference.snapshot_json_at(now_us).render(),
            "rendered snapshot @ {now_us}us"
        );
    }
}

#[test]
fn sampling_is_a_pure_function_of_the_request_id() {
    // 1-in-16: exactly the ids divisible by 16, decided identically by
    // the free function and by any StageProf configured the same way.
    let prof = StageProf::new(3, 16);
    for id in 0..200u64 {
        assert_eq!(sampled(id, 16), id % 16 == 0, "id {id}");
        assert_eq!(prof.sampled(id), sampled(id, 16), "id {id}");
    }
    // every=1 profiles everything; every=0 disables sampling entirely.
    assert!((0..50).all(|id| sampled(id, 1)));
    assert!((0..50).all(|id| !sampled(id, 0)));
    let off = StageProf::new(1, 0);
    assert!(!off.sampled(0), "id 0 is not sampled when disabled");
}

#[test]
fn live_server_attributes_every_compiled_stage_over_the_profile_verb() {
    let spec = ModelSpec::default();
    let expected_stages = spec.build().expect("spec builds").stages();
    assert!(expected_stages > 0 && expected_stages <= MAX_STAGES);

    let config = ServerConfig {
        workers: 2,
        profile_every: 1, // sample every request: the smoke needs determinism
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, spec.clone()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let image = vec![0.25f32; spec.input_len()];
    for _ in 0..8 {
        client.infer(&image).expect("infer ok");
    }

    let profile = client.profile().expect("profile verb answers");
    let forwards = profile
        .get("forwards")
        .and_then(JsonValue::as_f64)
        .expect("forwards field") as u64;
    assert!(forwards >= 1, "at least one profiled forward: {forwards}");
    assert_eq!(
        profile.get("sample_every").and_then(JsonValue::as_f64),
        Some(1.0)
    );

    let stages = rows(&profile);
    assert_eq!(
        stages.len(),
        expected_stages + 1,
        "every compiled stage appears in the profile, then the remainder"
    );
    let last = stages.last().unwrap();
    assert_eq!(
        last.get("kind").and_then(JsonValue::as_str),
        Some(UNATTRIBUTED_KIND)
    );
    assert_eq!(field(last, "index") as usize, expected_stages);
    assert_eq!(
        field(last, "samples") as u64,
        forwards,
        "every forward timed"
    );
    let shares: f64 = stages.iter().map(|s| field(s, "time_share")).sum();
    assert!((shares - 1.0).abs() < 1e-6, "time shares sum to {shares}");
    for stage in stages {
        let samples = stage.get("samples").and_then(JsonValue::as_f64).unwrap();
        assert!(samples >= 1.0, "stage has samples: {}", stage.render());
        let kind = stage.get("kind").and_then(JsonValue::as_str).unwrap();
        assert!(!kind.is_empty());
    }

    // The dispatch path of this host was recorded for every forward.
    let JsonValue::Object(paths) = profile.get("paths").expect("paths object") else {
        panic!("paths is an object");
    };
    let path_total: f64 = paths.iter().filter_map(|(_, v)| v.as_f64()).sum();
    assert_eq!(path_total as u64, forwards, "paths partition the forwards");

    server.stop();
}

#[test]
fn profile_rows_sum_to_the_sampled_compute_time() {
    // The server's recipe, with the compute wall in hand: time each
    // profiled forward around the call, hand the time to the sample,
    // record it. The rows must add up to exactly that time.
    let spec = ModelSpec::default();
    let net = spec.build().expect("spec builds");
    let [c, h, w] = spec.image_dims;
    let prof = StageProf::new(1, 1);
    let mut ctx = ExecCtx::new();
    let mut sample = StageSample::new();
    let mut compute_ns = 0u64;
    let batches = [1usize, 3, 8, 9];
    for n in batches {
        let x = Tensor::from_vec(vec![0.25; n * c * h * w], &[n, c, h, w]);
        let start = Instant::now();
        let _ = net.forward_profiled(&x, &mut ctx, &mut sample);
        let ns = start.elapsed().as_nanos() as u64;
        sample.set_compute_ns(ns);
        prof.record(0, &sample);
        compute_ns += ns;
    }

    let snapshot = prof.snapshot_json();
    let stages = rows(&snapshot);
    assert_eq!(stages.len(), net.stages() + 1);
    let last = stages.last().unwrap();
    assert_eq!(
        last.get("kind").and_then(JsonValue::as_str),
        Some(UNATTRIBUTED_KIND)
    );
    assert_eq!(field(last, "samples") as usize, batches.len());
    let rows_ns: u64 = stages
        .iter()
        .map(|s| (field(s, "wall_total_us") * 1e3).round() as u64)
        .sum();
    assert_eq!(rows_ns, compute_ns, "rows sum to the sampled compute time");
    let shares: f64 = stages.iter().map(|s| field(s, "time_share")).sum();
    assert!((shares - 1.0).abs() < 1e-9, "time shares sum to {shares}");
}
