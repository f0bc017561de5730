//! Live per-layer profile dashboard: `flightctl profile <addr>`.
//!
//! Polls a running flight-serve server's `profile` verb — the
//! [`StageProf`](flight_telemetry::StageProf) snapshot the server
//! builds from 1-in-N sampled forwards — and renders it as a top-layers
//! table: every compiled stage with its share of forward wall time,
//! p50/p99 stage latency, ops/sec, sample count, and — for integer
//! conv/linear stages — how many images ran on SIMD lane blocks vs the
//! per-image scalar loop, sorted hottest first. The `unattributed` row
//! is the compute time no stage timer covered, so the shares add up to
//! the sampled compute time. The header names the
//! kernel path the profiled forwards actually ran (avx2 / portable /
//! scalar; a forward whose batch fills no lane block counts as scalar),
//! so a deploy to the wrong microarchitecture, or traffic too thin to
//! batch, is visible at a glance.
//!
//! `--window` picks which tallies the table reads: a rolling window
//! (`1s`, `10s`, `60s`) or `life` for since-start totals. Follow and
//! once modes come from the shared tick loop ([`run_ticks`]) — this is
//! `top` pointed at the layer axis instead of the request axis.
//!
//! For flamegraphs, capture a snapshot (`flightq profile > prof.json`)
//! and feed it to `flightctl export --format folded`.

use std::io::Write;

use flight_telemetry::json::JsonValue;

use crate::tick::{run_ticks, TickOptions, TickStep};
use crate::top::{fmt_ms, num, round_trip};

/// Follow mode gives up after this many consecutive failed polls.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// The tallies a profile snapshot carries, by label. `life` is the
/// inline lifetime block; the rest live under `windows`.
pub const PROFILE_WINDOW_LABELS: [&str; 4] = ["life", "1s", "10s", "60s"];

/// What `profile` watches.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// The shared follow/once + interval + idle-exit knobs.
    pub tick: TickOptions,
    /// Which tallies the table reads — one of
    /// [`PROFILE_WINDOW_LABELS`].
    pub window: String,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            tick: TickOptions::default(),
            window: "10s".to_string(),
        }
    }
}

/// The last profile snapshot plus poll bookkeeping.
#[derive(Debug)]
pub struct ProfileState {
    /// Successful polls so far.
    pub polls: u64,
    /// Consecutive failed polls (resets on success).
    pub consecutive_failures: u32,
    /// Last poll's error, if it failed.
    pub last_error: Option<String>,
    /// Serving model version from the last successful poll.
    pub version: u64,
    /// The last `profile` payload (the snapshot object itself).
    pub profile: JsonValue,
}

impl Default for ProfileState {
    fn default() -> Self {
        ProfileState {
            polls: 0,
            consecutive_failures: 0,
            last_error: None,
            version: 0,
            profile: JsonValue::Null,
        }
    }
}

impl ProfileState {
    /// Folds one poll of the server's `profile` verb into the state.
    /// On failure the old snapshot sticks around (stale but labelled)
    /// and the failure streak grows.
    pub fn observe_poll(&mut self, polled: Result<JsonValue, String>) {
        match polled {
            Ok(reply) => {
                self.polls += 1;
                self.consecutive_failures = 0;
                self.last_error = None;
                self.version = num(reply.get("version")) as u64;
                self.profile = reply.get("profile").cloned().unwrap_or(JsonValue::Null);
            }
            Err(e) => {
                self.consecutive_failures += 1;
                self.last_error = Some(e);
            }
        }
    }

    /// True when the dashboard never managed a single successful poll.
    pub fn never_connected(&self) -> bool {
        self.polls == 0
    }
}

/// The tallies block the chosen window selects: the snapshot root for
/// `life` (lifetime fields are inlined there), else
/// `windows.<label>`.
fn tallies<'a>(profile: &'a JsonValue, window: &str) -> Option<&'a JsonValue> {
    if window == "life" {
        return Some(profile);
    }
    profile.get("windows").and_then(|w| w.get(window))
}

/// Formats the `paths` object (dispatch path → profiled-forward count)
/// as e.g. `avx2 (48)` — dominant first, any minority paths after.
fn paths_line(tallies: &JsonValue) -> String {
    let Some(JsonValue::Object(pairs)) = tallies.get("paths") else {
        return "none".to_string();
    };
    if pairs.is_empty() {
        return "none".to_string();
    }
    let mut sorted: Vec<(&str, u64)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), num(Some(v)) as u64))
        .collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    sorted
        .iter()
        .map(|(path, n)| format!("{path} ({n})"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the dashboard body (no cursor control — the tick loop adds
/// that in follow mode).
pub fn render(addr: &str, state: &ProfileState, opts: &ProfileOptions) -> String {
    let mut out = String::new();
    let every = num(state.profile.get("sample_every")) as u64;
    out.push_str(&format!(
        "profile: {addr}  model v{}  sampling 1/{every}  window {}  polls {}\n",
        state.version, opts.window, state.polls
    ));
    if let Some(e) = &state.last_error {
        out.push_str(&format!(
            "poll failed ({} in a row): {e}\n",
            state.consecutive_failures
        ));
        if state.never_connected() {
            return out;
        }
        out.push_str("showing last good snapshot:\n");
    }
    if every == 0 {
        out.push_str("profiling disabled on this server (--profile-every 0)\n");
        return out;
    }

    let Some(tallies) = tallies(&state.profile, &opts.window) else {
        out.push_str(&format!("no `{}` tallies in the snapshot\n", opts.window));
        return out;
    };
    let forwards = num(tallies.get("forwards")) as u64;
    out.push_str(&format!(
        "{} profiled forwards ({} images, {} truncated)  dispatch: {}\n",
        forwards,
        num(tallies.get("images")) as u64,
        num(tallies.get("truncated")) as u64,
        paths_line(tallies),
    ));
    if forwards == 0 {
        out.push_str("no sampled forwards in this window yet\n");
        return out;
    }

    let mut stages: Vec<&JsonValue> = tallies
        .get("stages")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .filter(|s| num(s.get("samples")) > 0.0)
                .collect()
        })
        .unwrap_or_default();
    stages.sort_by(|a, b| {
        num(b.get("time_share"))
            .partial_cmp(&num(a.get("time_share")))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out.push_str(
        "  stage                  share    p50 ms    p99 ms       ops/s  samples  lane/scalar img\n",
    );
    for stage in stages {
        let wall = stage.get("wall_ms");
        let (lane, scalar) = (
            num(stage.get("lane_images")) as u64,
            num(stage.get("scalar_images")) as u64,
        );
        let engaged = if lane + scalar == 0 {
            "-".to_string()
        } else {
            format!("{lane}/{scalar}")
        };
        out.push_str(&format!(
            "  {:<20} {:>6.1}%  {:>8}  {:>8}  {:>10.3e}  {:>7}  {:>15}\n",
            format!(
                "stage.{}.{}",
                num(stage.get("index")) as u64,
                stage
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("stage"),
            ),
            num(stage.get("time_share")) * 100.0,
            fmt_ms(num(wall.and_then(|w| w.get("p50")))),
            fmt_ms(num(wall.and_then(|w| w.get("p99")))),
            num(stage.get("ops_per_sec")),
            num(stage.get("samples")) as u64,
            engaged,
        ));
    }
    out
}

/// Polls `addr` per `opts`, writing profile frames to `out`, and
/// returns the final state — `flightctl` exits nonzero when the server
/// was never reachable.
///
/// In follow mode the loop stops on idle-exit or after
/// [`MAX_CONSECUTIVE_FAILURES`] straight failed polls.
///
/// # Errors
///
/// Propagates I/O errors writing frames. Server unreachability is not
/// an `Err` — it is rendered, counted, and reflected in the returned
/// state.
pub fn profile(
    addr: &str,
    opts: &ProfileOptions,
    out: &mut impl Write,
) -> std::io::Result<ProfileState> {
    let mut state = ProfileState::default();
    run_ticks(&opts.tick, out, || {
        let polled = round_trip(addr, "profile");
        let progressed = polled.is_ok();
        state.observe_poll(polled);
        Ok(TickStep {
            body: render(addr, &state, opts),
            progressed,
            stop: state.consecutive_failures >= MAX_CONSECUTIVE_FAILURES,
        })
    })?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_telemetry::json::JsonObject;

    /// A plausible `profile` reply: two stages lifetime, one hot in
    /// the 10s window, dispatch split avx2-dominant; the conv stage ran
    /// most images on lanes, the linear stage reports no kernel split.
    fn profile_reply() -> JsonValue {
        let stage = |index: u64, kind: &str, share: f64, samples: u64| {
            let (lane, scalar) = if kind == "conv" {
                (samples * 2, samples)
            } else {
                (0, 0)
            };
            JsonObject::new()
                .field("index", index)
                .field("kind", kind)
                .field("samples", samples)
                .field("time_share", share)
                .field("wall_total_us", share * 4000.0)
                .field(
                    "wall_ms",
                    JsonObject::new()
                        .field("p50", 0.5)
                        .field("p99", 1.2)
                        .build(),
                )
                .field("ops", 60_000u64)
                .field("ops_per_sec", 2.5e8)
                .field("lane_images", lane)
                .field("scalar_images", scalar)
                .build()
        };
        let tallies = |f: u64, conv_share: f64| {
            JsonObject::new()
                .field("forwards", f)
                .field("images", f * 3)
                .field("truncated", 0u64)
                .field(
                    "paths",
                    JsonObject::new()
                        .field("avx2", f.saturating_sub(1))
                        .field("portable", u64::from(f > 0))
                        .build(),
                )
                .field(
                    "stages",
                    vec![
                        stage(0, "conv", conv_share, f),
                        stage(1, "linear", 0.95 - conv_share, f),
                        stage(2, "unattributed", 0.05, f),
                    ],
                )
                .build()
        };
        let JsonValue::Object(lifetime) = tallies(24, 0.8) else {
            unreachable!()
        };
        let mut root = vec![
            ("sample_every".to_string(), JsonValue::from(16u64)),
            ("shards".to_string(), JsonValue::from(2u64)),
        ];
        root.extend(lifetime);
        root.push((
            "windows".to_string(),
            JsonObject::new()
                .field("1s", tallies(0, 0.5))
                .field("10s", tallies(6, 0.6))
                .field("60s", tallies(24, 0.8))
                .build(),
        ));
        JsonObject::new()
            .field("ok", true)
            .field("version", 2u64)
            .field("profile", JsonValue::Object(root))
            .build()
    }

    #[test]
    fn polls_fold_and_render_the_top_layers_table() {
        let opts = ProfileOptions::default();
        let mut state = ProfileState::default();
        state.observe_poll(Ok(profile_reply()));
        assert_eq!(state.polls, 1);
        assert_eq!(state.version, 2);

        let text = render("127.0.0.1:9", &state, &opts);
        assert!(text.contains("model v2"), "{text}");
        assert!(text.contains("sampling 1/16"), "{text}");
        assert!(text.contains("6 profiled forwards"), "10s window: {text}");
        assert!(text.contains("avx2 (5), portable (1)"), "{text}");
        assert!(text.contains("stage.0.conv"), "{text}");
        assert!(text.contains("stage.1.linear"), "{text}");
        let conv = text.find("stage.0.conv").unwrap();
        let linear = text.find("stage.1.linear").unwrap();
        assert!(conv < linear, "hottest stage sorts first: {text}");
        assert!(text.contains("lane/scalar img"), "{text}");
        let row = |name: &str| text.lines().find(|l| l.contains(name)).unwrap();
        assert!(row("stage.0.conv").ends_with(" 12/6"), "{text}");
        assert!(row("stage.1.linear").ends_with(" -"), "{text}");
        assert!(row("stage.2.unattributed").contains("5.0%"), "{text}");
        assert!(row("stage.2.unattributed").ends_with(" -"), "{text}");
        assert!(!text.contains('\x1b'), "plain render has no ANSI escapes");
    }

    #[test]
    fn life_window_reads_the_inline_lifetime_tallies() {
        let opts = ProfileOptions {
            window: "life".to_string(),
            ..ProfileOptions::default()
        };
        let mut state = ProfileState::default();
        state.observe_poll(Ok(profile_reply()));
        let text = render("x", &state, &opts);
        assert!(text.contains("24 profiled forwards"), "{text}");
        assert!(text.contains("(72 images"), "{text}");
    }

    #[test]
    fn empty_window_says_so_instead_of_a_zero_table() {
        let opts = ProfileOptions {
            window: "1s".to_string(),
            ..ProfileOptions::default()
        };
        let mut state = ProfileState::default();
        state.observe_poll(Ok(profile_reply()));
        let text = render("x", &state, &opts);
        assert!(text.contains("no sampled forwards"), "{text}");
        assert!(!text.contains("stage.0"), "{text}");
    }

    #[test]
    fn failed_polls_keep_the_last_snapshot_and_count_the_streak() {
        let opts = ProfileOptions::default();
        let mut state = ProfileState::default();
        state.observe_poll(Ok(profile_reply()));
        state.observe_poll(Err("connect refused".to_string()));
        state.observe_poll(Err("connect refused".to_string()));
        assert_eq!(state.polls, 1);
        assert_eq!(state.consecutive_failures, 2);
        let text = render("x", &state, &opts);
        assert!(text.contains("poll failed (2 in a row)"), "{text}");
        assert!(
            text.contains("stage.0.conv"),
            "stale table still shown: {text}"
        );
    }

    #[test]
    fn disabled_profiler_renders_a_notice() {
        let opts = ProfileOptions::default();
        let mut state = ProfileState::default();
        state.observe_poll(Ok(JsonObject::new()
            .field("ok", true)
            .field("version", 1u64)
            .field(
                "profile",
                JsonObject::new().field("sample_every", 0u64).build(),
            )
            .build()));
        let text = render("x", &state, &opts);
        assert!(text.contains("profiling disabled"), "{text}");
    }
}
