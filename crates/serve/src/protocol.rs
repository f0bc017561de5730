//! The wire protocol: length-framed JSON over TCP.
//!
//! Every message — request or response — is one frame: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! JSON. Framing keeps the parser trivial (no streaming JSON, no
//! delimiter escaping) and makes partial reads detectable: a connection
//! that dies mid-frame is an error, a connection that closes between
//! frames is a clean EOF.
//!
//! Requests are an object with an `op` discriminator:
//!
//! ```json
//! {"op":"infer","image":[0.1,0.2, …]}
//! {"op":"swap","network":1,"scheme":"l1","seed":7}
//! {"op":"stats"}
//! {"op":"exemplars"}
//! {"op":"profile"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures add `"error"` with a
//! human-readable message. `infer` responses carry the server-assigned
//! `request_id`, the logits, the serving model's version, the batch the
//! request was coalesced into, and the per-phase timing breakdown
//! (`queue` / `batch_form` / `compute` / `total`, microseconds — the
//! fourth phase, `reply_write`, is only observable server-side and
//! appears in `stats` and `exemplars`). `exemplars` responses carry the
//! slowest-request timelines currently held by the server's exemplar
//! ring (see [`crate::exemplar`]).

use std::io::{Read, Write};

use flight_telemetry::json::JsonValue;

use crate::model::ModelSpec;

/// Upper bound on one frame's payload, bytes. Large enough for any
/// realistic image or logits array, small enough that a corrupt length
/// prefix cannot trigger a gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF inside a frame is an error.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames above [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one image through the engine.
    Infer {
        /// Flattened `[c, h, w]` floats; length must match the serving
        /// model's input.
        image: Vec<f32>,
    },
    /// Rebuild and atomically publish a new model.
    Swap {
        /// What to build; omitted fields keep the server's defaults.
        spec: ModelSpec,
    },
    /// Per-phase latency histograms and counters.
    Stats,
    /// The slowest-request exemplar timelines.
    Exemplars,
    /// The sampled per-layer profile (see
    /// [`StageProf`](flight_telemetry::StageProf)).
    Profile,
    /// Liveness + current model version.
    Ping,
    /// Stop the server.
    Shutdown,
}

/// Parses one request payload.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a missing/unknown `op`,
/// or a malformed `image`/spec.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let root = JsonValue::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let op = root
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "request lacks an `op` string".to_string())?;
    match op {
        "infer" => {
            let arr = root
                .get("image")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "infer needs an `image` number array".to_string())?;
            let mut image = Vec::with_capacity(arr.len());
            for (i, v) in arr.iter().enumerate() {
                let x = v
                    .as_f64()
                    .ok_or_else(|| "`image` entries must be numbers".to_string())?
                    as f32;
                // A JSON number beyond f32's range (e.g. 1e39) parses
                // as an f64 but rounds to ±inf here.
                if !x.is_finite() {
                    return Err(format!("`image[{i}]` is not a finite f32"));
                }
                image.push(x);
            }
            Ok(Request::Infer { image })
        }
        "swap" => Ok(Request::Swap {
            spec: ModelSpec::from_json(&root)?,
        }),
        "stats" => Ok(Request::Stats),
        "exemplars" => Ok(Request::Exemplars),
        "profile" => Ok(Request::Profile),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders an error response.
pub fn error_response(message: &str) -> String {
    JsonValue::Object(vec![
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::String(message.into())),
    ])
    .render()
}

/// Renders the overload rejection (bounded queue full). `retry: true`
/// tells well-behaved clients this is backpressure, not a bug.
pub fn overloaded_response() -> String {
    JsonValue::Object(vec![
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::String("overloaded".into())),
        ("retry".into(), JsonValue::Bool(true)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"xy").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"xy"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        // Truncated mid-frame: error, not silent truncation.
        let mut truncated = std::io::Cursor::new(buf[..buf.len() - 1].to_vec());
        read_frame(&mut truncated).unwrap();
        assert!(read_frame(&mut truncated).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
        let mut huge = Vec::from(u32::MAX.to_le_bytes());
        huge.extend_from_slice(b"xx");
        assert!(read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn requests_parse_by_op() {
        assert_eq!(parse_request(b"{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"op\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(b"{\"op\":\"exemplars\"}").unwrap(),
            Request::Exemplars
        );
        assert_eq!(
            parse_request(b"{\"op\":\"profile\"}").unwrap(),
            Request::Profile
        );
        assert_eq!(
            parse_request(b"{\"op\":\"infer\",\"image\":[1,0.5]}").unwrap(),
            Request::Infer {
                image: vec![1.0, 0.5]
            }
        );
        let Request::Swap { spec } =
            parse_request(b"{\"op\":\"swap\",\"seed\":9,\"scheme\":\"l2\"}").unwrap()
        else {
            panic!("swap expected")
        };
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.scheme, "l2");

        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"op\":\"warp\"}",
            b"{\"op\":\"infer\"}",
            b"{\"op\":\"infer\",\"image\":[\"x\"]}",
            b"{\"op\":\"infer\",\"image\":[0.5,1e39]}",
            b"{\"op\":\"infer\",\"image\":[-1e39]}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }
}
