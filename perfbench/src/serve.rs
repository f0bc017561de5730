//! The two serve workloads. Each starts an in-process [`Server`] (two
//! compute workers, every other `ServerConfig` field at its default)
//! and drives it over loopback TCP through the public [`ServeClient`],
//! one load thread per connection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flight_kernels::{CompiledNet, ExecCtx};
use flight_serve::protocol::{parse_request, Request};
use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_tensor::Tensor;

use crate::gen::{self, Stream};
use crate::host;
use crate::ledger::{unattributed, BatchLedger, Dist};
use crate::report::{ms, Report};
use crate::trace::SpanBuf;

/// Load threads, one connection each.
const CONNECTIONS: usize = 2;
/// Server compute workers.
const WORKERS: usize = 2;
/// Open-loop arrival rate of `serve-paced`, requests per second.
const PACED_RATE: f64 = 8.0;
/// `serve-saturate`'s first connection hot-swaps the model after every
/// this many of its own requests.
const SWAP_EVERY: u64 = 100;
/// Set-ups per run; `setup_s` is their median, with ten samples beyond
/// it.
const SETUP_REPS: usize = 21;
/// Replayed `parse_request` calls per traced run (evenly strided over
/// the run's requests).
const PARSE_REPLAYS: usize = 2000;
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// `serve-paced`: seeded Poisson arrivals at [`PACED_RATE`].
    Paced,
    /// `serve-saturate`: each connection sends on reply, with swaps.
    Saturate,
}

/// Reply slots a closed-loop connection reserves per second of run, so
/// recording does not reallocate below 4,096 requests per second.
const RESERVE_PER_S: f64 = 4096.0;

/// One successful `infer` reply.
struct Reply {
    request_id: u64,
    version: u64,
    batch: usize,
    /// `timing_us` fields: queue, batch_form, compute, total.
    timing_us: [f64; 4],
    logits: Vec<f32>,
}

/// One timed request. Kept small: a closed loop at 1,000+ req/s keeps
/// tens of thousands of these, and they count in `peak_rss_mb`.
struct Obs {
    key: u64,
    /// From the due time (paced) or the send (saturate).
    latency_ms: f32,
    /// The serving model version and the digest of the logits, or why
    /// the request failed.
    outcome: Result<(u64, u64), Failure>,
}

/// The per-layer view of one successful request, kept by traced runs.
struct Detail {
    key: u64,
    request_id: u64,
    batch: usize,
    /// Send time minus due time (paced only).
    late_ms: f32,
    /// Client-timed `round_trip`.
    round_trip_ms: f32,
    timing_us: [f32; 4],
}

/// FNV-1a over the logits' bit patterns: replies are checked against
/// the oracle through this digest, so a run keeps 8 bytes per reply
/// instead of the logits, and any flipped bit still shows (a collision
/// has probability 2^-64).
fn digest(logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in logits.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Failure {
    Transport,
    Overloaded,
    ErrorReply,
}

struct SwapObs {
    elapsed: Duration,
    spec: ModelSpec,
    version: Option<u64>,
}

/// What one load thread brings back.
struct ConnRun {
    obs: Vec<Obs>,
    details: Vec<Detail>,
    swaps: Vec<SwapObs>,
    spans: SpanBuf,
    finished: Instant,
}

fn infer_request(image: &[f32]) -> JsonValue {
    JsonObject::new()
        .field("op", "infer")
        .field(
            "image",
            image
                .iter()
                .map(|&v| JsonValue::from(v))
                .collect::<Vec<_>>(),
        )
        .build()
}

/// Reads an `infer` reply, keeping the server's `timing_us.total` that
/// [`ServeClient::infer`] drops (the wire time is measured against it).
fn parse_reply(reply: &JsonValue) -> Result<Reply, Failure> {
    if !matches!(reply.get("ok"), Some(JsonValue::Bool(true))) {
        return Err(
            if reply.get("error").and_then(JsonValue::as_str) == Some("overloaded") {
                Failure::Overloaded
            } else {
                Failure::ErrorReply
            },
        );
    }
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).ok_or(Failure::ErrorReply);
    let timing = reply.get("timing_us");
    let t = |key: &str| num(timing.and_then(|t| t.get(key)));
    Ok(Reply {
        request_id: num(reply.get("request_id"))? as u64,
        version: num(reply.get("version"))? as u64,
        batch: num(reply.get("batch"))? as usize,
        timing_us: [t("queue")?, t("batch_form")?, t("compute")?, t("total")?],
        logits: reply
            .get("logits")
            .and_then(JsonValue::as_array)
            .ok_or(Failure::ErrorReply)?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or(Failure::ErrorReply)?,
    })
}

/// Sends one infer and times it; `due` is when the request should have
/// been sent (the send itself for a closed loop).
fn timed_infer(
    client: &mut ServeClient,
    request: &JsonValue,
    key: u64,
    due: Instant,
    run: &mut ConnRun,
) {
    let send = Instant::now();
    let reply = client.round_trip(request);
    let recv = Instant::now();
    let reply = reply
        .map_err(|_| Failure::Transport)
        .and_then(|r| parse_reply(&r));
    let request_id = reply.as_ref().map_or(0, |r| r.request_id);
    if run
        .spans
        .record(0, "ServeClient::infer", 0, (send, recv), request_id)
        != 0
    {
        if let Ok(r) = &reply {
            run.details.push(Detail {
                key,
                request_id,
                batch: r.batch,
                late_ms: ms(send.saturating_duration_since(due)) as f32,
                round_trip_ms: ms(recv - send) as f32,
                timing_us: r.timing_us.map(|t| t as f32),
            });
        }
    }
    run.obs.push(Obs {
        key,
        latency_ms: ms(recv.saturating_duration_since(due)) as f32,
        outcome: reply.map(|r| (r.version, digest(&r.logits))),
    });
}

impl ConnRun {
    fn new(capacity: usize, trace: bool) -> ConnRun {
        ConnRun {
            obs: Vec::with_capacity(capacity),
            details: Vec::new(),
            swaps: Vec::new(),
            spans: SpanBuf::new(trace),
            finished: Instant::now(),
        }
    }
}

/// One open-loop sender. Both connections take the next due request
/// from a shared counter, so a request waits only when every
/// connection is busy, and that wait counts in its latency.
fn paced_conn(
    client: &mut ServeClient,
    next: &AtomicUsize,
    seed: u64,
    schedule: &[f64],
    t0: Instant,
    len: usize,
    trace: bool,
) -> ConnRun {
    let mut run = ConnRun::new(schedule.len(), trace);
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&offset) = schedule.get(i) else {
            break;
        };
        let key = i as u64;
        let request = infer_request(&gen::image(seed, Stream::Image, key, len));
        let due = t0 + Duration::from_secs_f64(offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        timed_infer(client, &request, key, due, &mut run);
    }
    run.finished = Instant::now();
    run
}

fn saturate_conn(
    client: &mut ServeClient,
    conn: usize,
    seed: u64,
    deadline: Instant,
    len: usize,
    trace: bool,
) -> ConnRun {
    let seconds = deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64();
    let mut run = ConnRun::new((seconds * RESERVE_PER_S) as usize, trace);
    let mut index = 0u64;
    while Instant::now() < deadline {
        if conn == 0 && index > 0 && index.is_multiple_of(SWAP_EVERY) {
            let spec = ModelSpec {
                seed: gen::swap_seed(seed, run.swaps.len() as u64),
                ..ModelSpec::default()
            };
            let start = Instant::now();
            let version = client.swap(&spec).ok();
            let end = Instant::now();
            run.spans.record(0, "ServeClient::swap", 0, (start, end), 0);
            run.swaps.push(SwapObs {
                elapsed: end - start,
                spec,
                version,
            });
        }
        let key = gen::request_key(conn, index);
        let request = infer_request(&gen::image(seed, Stream::Image, key, len));
        timed_infer(client, &request, key, Instant::now(), &mut run);
        index += 1;
    }
    run.finished = Instant::now();
    run
}

/// The bench's own reference answers: each published model built
/// in-process and run at batch 1.
struct Oracle {
    nets: HashMap<u64, CompiledNet>,
    ctx: ExecCtx,
}

impl Oracle {
    fn new(boot: &ModelSpec) -> Result<Oracle, String> {
        Ok(Oracle {
            nets: HashMap::from([(1, boot.build()?)]),
            ctx: ExecCtx::new(),
        })
    }

    fn publish(&mut self, version: u64, spec: &ModelSpec) -> Result<(), String> {
        self.nets.insert(version, spec.build()?);
        Ok(())
    }

    /// True when the reply's logits digest equals that of the in-process
    /// forward of `image` on the model the reply's `version` names.
    fn agrees(&mut self, image: Vec<f32>, version: u64, logits_digest: u64) -> bool {
        let Some(net) = self.nets.get(&version) else {
            return false;
        };
        let [c, h, w] = ModelSpec::default().image_dims;
        let (out, _) = net.forward(&Tensor::from_vec(image, &[1, c, h, w]), &mut self.ctx);
        digest(out.as_slice()) == logits_digest
    }
}

/// One set-up: server start (boot model build included), both
/// connections, and one checked warm-up request on each.
fn set_up(
    seed: u64,
    rep: usize,
    oracle: &mut Oracle,
    report: &mut Report,
) -> Result<(Server, Vec<ServeClient>, Duration), String> {
    let len = ModelSpec::default().input_len();
    let images: Vec<Vec<f32>> = (0..CONNECTIONS)
        .map(|c| gen::image(seed, Stream::Warmup, gen::request_key(c, rep as u64), len))
        .collect();
    let requests: Vec<JsonValue> = images.iter().map(|im| infer_request(im)).collect();
    let start = Instant::now();
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::start(config, ModelSpec::default())?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::with_capacity(CONNECTIONS);
    let mut replies = Vec::with_capacity(CONNECTIONS);
    for request in &requests {
        let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
        replies.push(client.round_trip(request));
        clients.push(client);
    }
    let elapsed = start.elapsed();
    for (image, reply) in images.into_iter().zip(replies) {
        report.attempted += 1;
        let ok = match reply.map(|r| parse_reply(&r)) {
            Ok(Ok(r)) => oracle.agrees(image, r.version, digest(&r.logits)),
            _ => false,
        };
        if !ok {
            report.fail_mismatch();
        }
    }
    Ok((server, clients, elapsed))
}

/// Runs `serve-paced` or `serve-saturate` for `seconds` and fills
/// `report` (per-layer metrics only when `trace`).
pub fn run(
    mode: Loop,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let boot = ModelSpec::default();
    let len = boot.input_len();
    let mut oracle = Oracle::new(&boot)?;
    let epoch = Instant::now();
    let mut all_spans = SpanBuf::new(trace);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (mut server, clients, elapsed) = set_up(seed, rep, &mut oracle, report)?;
        setups.push(elapsed.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(clients);
            server.stop();
        } else {
            live = Some((server, clients));
        }
    }
    let (mut server, mut clients) = live.expect("SETUP_REPS > 0");
    report.e2e_setup(&setups)?;

    if trace {
        crate::engine::time_model_builds(&boot, &mut all_spans, report)?;
    }

    // Timed window.
    let schedule = match mode {
        Loop::Paced => {
            gen::poisson_schedule(seed, PACED_RATE, (PACED_RATE * seconds).round() as usize)
        }
        Loop::Saturate => Vec::new(),
    };
    let next = AtomicUsize::new(0);
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (schedule, next) = (&schedule, &next);
                s.spawn(move || {
                    if let Some(wait) = t0.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    match mode {
                        Loop::Paced => paced_conn(client, next, seed, schedule, t0, len, trace),
                        Loop::Saturate => saturate_conn(client, conn, seed, deadline, len, trace),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = runs.iter().map(|r| r.finished).max().unwrap_or(t0);
    let wall = end.saturating_duration_since(t0).as_secs_f64();
    let cpu_util = cpu0.zip(host::cpu_seconds()).map(|(a, b)| (b - a) / wall);

    // After the window: server-side views, then the oracle.
    let start = Instant::now();
    let stats = clients[0].stats().map_err(|e| e.to_string())?;
    all_spans.record(0, "ServeClient::stats", 0, (start, Instant::now()), 0);
    let start = Instant::now();
    let profile = clients[0].profile().map_err(|e| e.to_string())?;
    all_spans.record(0, "ServeClient::profile", 0, (start, Instant::now()), 0);
    drop(clients);
    server.stop();

    for swap in runs.iter().flat_map(|r| &r.swaps) {
        report.attempted += 1;
        match swap.version {
            Some(v) => oracle.publish(v, &swap.spec)?,
            None => report.fail(),
        }
    }
    let mut failures: HashMap<Failure, u64> = HashMap::new();
    let mut latency_ms = Vec::new();
    for o in runs.iter().flat_map(|r| &r.obs) {
        report.attempted += 1;
        match o.outcome {
            Ok((version, logits)) => {
                let image = gen::image(seed, Stream::Image, o.key, len);
                if oracle.agrees(image, version, logits) {
                    latency_ms.push(f64::from(o.latency_ms));
                } else {
                    report.fail_mismatch();
                }
            }
            Err(f) => {
                report.fail();
                *failures.entry(f).or_default() += 1;
            }
        }
    }
    for (kind, n) in &failures {
        report.note(format!("{kind:?} failures: {n}"));
    }

    // End-to-end metrics.
    let ok = latency_ms.len();
    let in_requests: f64 = latency_ms.iter().sum();
    let from = match mode {
        Loop::Paced => "due time",
        Loop::Saturate => "send",
    };
    let latency = Dist::new(latency_ms);
    let p50 = latency
        .percentile(500)
        .ok_or_else(|| format!("latency p50 withheld: only {ok} checked replies"))?;
    report.e2e_latency(
        p50,
        &format!("p50 of {ok} checked replies, timed from {from}"),
    );
    report.e2e_throughput(
        ok as f64 / wall,
        &format!("{ok} checked replies over {wall:.3} s"),
    );
    report.e2e_rss()?;
    report.percentiles("client.latency_ms", &latency, &[900, 950, 990], "ms");

    if !trace {
        return Ok(());
    }

    // Per-layer ledger.
    let mut details = Vec::new();
    let mut swaps = Vec::new();
    for run in runs {
        details.extend(run.details);
        swaps.extend(run.swaps);
        all_spans.absorb(run.spans);
    }
    let dist = |f: &dyn Fn(&Detail) -> f64| Dist::new(details.iter().map(f).collect());
    let wire = dist(&|d| f64::from(d.round_trip_ms) - f64::from(d.timing_us[3]) / 1e3);
    report.percentiles("wire.ms", &wire, &[500, 950], "ms");
    report.layer("wire.samples", wire.len() as f64, "count");
    if mode == Loop::Paced {
        report.percentiles(
            "gen.late_ms",
            &dist(&|d| f64::from(d.late_ms)),
            &[950],
            "ms",
        );
    }
    for (i, name) in [
        "server.queue_us",
        "server.batch_form_us",
        "server.compute_us",
    ]
    .into_iter()
    .enumerate()
    {
        report.percentiles(
            name,
            &dist(&|d| f64::from(d.timing_us[i])),
            &[500, 950],
            "us",
        );
    }
    report.percentiles(
        "server.total_us",
        &dist(&|d| f64::from(d.timing_us[3])),
        &[500],
        "us",
    );
    let unexplained = dist(&|d| {
        let t = d.timing_us.map(f64::from);
        unattributed(t[3], &t[..3])
    });
    report.percentiles("server.unattributed_us", &unexplained, &[500], "us");

    let lifetime = |key: &str| stats.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let reply_write_ms = stats
        .get("latency_ms")
        .and_then(|l| l.get("reply_write"))
        .and_then(|p| p.get("p50"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    report.layer("server.reply_write_us.p50", reply_write_ms * 1e3, "us");
    report.note(format!(
        "server.reply_write_us.p50 is the server's own log2-histogram estimate over {} requests",
        lifetime("requests")
    ));
    report.layer("server.rejected", lifetime("rejected"), "count");
    report.layer("server.errors", lifetime("errors"), "count");

    let mut batches = BatchLedger::default();
    details.iter().for_each(|d| batches.record(d.batch));
    report.layer("batcher.mean_batch", batches.mean_batch(), "img/batch");
    report.layer("batcher.batches", batches.batches(), "count");
    report.layer("batcher.coalesced_frac", batches.coalesced_frac(), "frac");
    report.layer(
        "batcher.lane_eligible_frac",
        batches.lane_eligible_frac(),
        "frac",
    );
    report.note(format!(
        "batcher.coalesced_frac {:.4} of {:.0} batches; batcher.lane_eligible_frac {:.4} of {} images",
        batches.coalesced_frac(),
        batches.batches(),
        batches.lane_eligible_frac(),
        batches.images()
    ));

    replay_parse(&details, seed, len, &mut all_spans, report);

    if mode == Loop::Saturate {
        let swap_ms = Dist::new(swaps.iter().map(|s| ms(s.elapsed)).collect());
        if let Some(mean) = swap_ms.mean() {
            report.layer("swap.ms.mean", mean, "ms");
        }
        report.layer("swap.count", swap_ms.len() as f64, "count");
    }

    let shares = profile_shares(&profile);
    for kind in crate::engine::STAGE_KINDS {
        report.layer(
            &format!("profile.{kind}.share"),
            shares.get(kind).copied().unwrap_or(0.0),
            "frac",
        );
    }
    report.note(format!(
        "profile shares over {} sampled forwards",
        profile
            .get("forwards")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    ));
    if let Some(util) = cpu_util {
        report.layer("cpu.util", util, "cpu-s/s");
    }

    // A traced serve run differs from an untraced one only by the span
    // bookkeeping on the load threads.
    report.layer(
        "trace.overhead_pct",
        100.0 * ms(all_spans.overhead) / in_requests,
        "%",
    );
    report.spans(&mut all_spans, epoch);
    Ok(())
}

/// Times `parse_request` on this run's own request payloads (an even
/// stride of at most [`PARSE_REPLAYS`]) and checks it reads back the
/// image that was sent.
fn replay_parse(
    details: &[Detail],
    seed: u64,
    len: usize,
    spans: &mut SpanBuf,
    report: &mut Report,
) {
    let stride = details.len().div_ceil(PARSE_REPLAYS).max(1);
    let mut parse_us = Vec::new();
    let mut bytes = Vec::new();
    let parent = spans.open();
    let replay_start = Instant::now();
    for d in details.iter().step_by(stride) {
        let image = gen::image(seed, Stream::Image, d.key, len);
        let payload = infer_request(&image).render().into_bytes();
        let start = Instant::now();
        let parsed = parse_request(&payload);
        let end = Instant::now();
        spans.record(
            0,
            "protocol::parse_request",
            parent,
            (start, end),
            d.request_id,
        );
        if parsed != Ok(Request::Infer { image }) {
            report.fail_mismatch();
        }
        parse_us.push((end - start).as_secs_f64() * 1e6);
        bytes.push(payload.len() as f64);
    }
    spans.record(
        parent,
        "protocol.replay",
        0,
        (replay_start, Instant::now()),
        0,
    );
    let parse = Dist::new(parse_us);
    report.percentiles("protocol.parse_request_us", &parse, &[500], "us");
    report.layer(
        "protocol.request_bytes",
        Dist::new(bytes).mean().unwrap_or(0.0),
        "B",
    );
}

/// Lifetime time share per stage kind from the `profile` verb.
fn profile_shares(profile: &JsonValue) -> HashMap<String, f64> {
    let mut shares = HashMap::new();
    for stage in profile
        .get("stages")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        if let (Some(kind), Some(share)) = (
            stage.get("kind").and_then(JsonValue::as_str),
            stage.get("time_share").and_then(JsonValue::as_f64),
        ) {
            *shares.entry(kind.to_string()).or_default() += share;
        }
    }
    shares
}
