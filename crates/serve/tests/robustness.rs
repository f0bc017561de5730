//! Hostile payloads against a live server: each must get an error reply
//! on its own connection, and the connection (and server) must keep
//! answering afterwards.

use std::net::TcpStream;

use flight_serve::protocol::{read_frame, write_frame};
use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::JsonValue;

fn small_spec() -> ModelSpec {
    ModelSpec {
        width: 0.1,
        image_dims: [3, 8, 8],
        ..ModelSpec::default()
    }
}

fn start() -> Server {
    Server::start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        small_spec(),
    )
    .expect("server starts")
}

/// Sends one raw payload and parses the reply frame.
fn raw_round_trip(stream: &mut TcpStream, payload: &[u8]) -> JsonValue {
    write_frame(stream, payload).expect("send");
    let reply = read_frame(stream)
        .expect("recv")
        .expect("server keeps the connection open");
    JsonValue::parse(std::str::from_utf8(&reply).expect("UTF-8 reply")).expect("JSON reply")
}

fn ok(reply: &JsonValue) -> bool {
    matches!(reply.get("ok"), Some(JsonValue::Bool(true)))
}

/// An infer payload for the small spec with `poison` spliced in as the
/// text of element 7.
fn infer_payload(poison: &str) -> String {
    let values: Vec<String> = (0..small_spec().input_len())
        .map(|i| {
            if i == 7 {
                poison.to_string()
            } else {
                format!("{}", (i % 5) as f32 * 0.25 - 0.5)
            }
        })
        .collect();
    format!(r#"{{"op":"infer","image":[{}]}}"#, values.join(","))
}

#[test]
fn an_image_beyond_f32_range_is_refused_and_the_connection_survives() {
    let mut server = start();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let reply = raw_round_trip(&mut stream, infer_payload("1e39").as_bytes());
    assert!(!ok(&reply), "1e39 must not be served: {}", reply.render());
    let error = reply.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("`image[7]` is not a finite f32"), "{error}");

    let reply = raw_round_trip(&mut stream, infer_payload("0.75").as_bytes());
    assert!(ok(&reply), "next request succeeds: {}", reply.render());
    let logits = reply
        .get("logits")
        .and_then(JsonValue::as_array)
        .expect("logits");
    assert_eq!(logits.len(), small_spec().classes);
    assert!(logits
        .iter()
        .all(|l| l.as_f64().is_some_and(f64::is_finite)));
    server.stop();
}

#[test]
fn a_finite_image_that_overflows_inside_the_engine_is_refused() {
    // 3e38 is a finite f32, so it passes the protocol check, but the
    // first conv's rescale overflows f32 and the engine poisons the
    // image; the server must say so instead of replying `ok: true`.
    let mut server = start();
    let mut client = ServeClient::connect(&server.local_addr().to_string()).expect("connect");
    let mut image = vec![0.25f32; small_spec().input_len()];
    image.iter_mut().step_by(2).for_each(|v| *v = 3e38);
    let err = client
        .infer(&image)
        .expect_err("an overflowing image must not be served");
    assert!(err.message.contains("non-finite"), "{}", err.message);
    assert!(client.ping().is_ok(), "server still answers");
    server.stop();
}

#[test]
fn a_400_kb_frame_of_brackets_gets_an_error_and_the_server_still_answers_ping() {
    let mut server = start();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let reply = raw_round_trip(&mut stream, "[".repeat(400 * 1024).as_bytes());
    assert!(!ok(&reply), "{}", reply.render());
    let error = reply.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("nesting"), "{error}");

    let reply = raw_round_trip(&mut stream, br#"{"op":"ping"}"#);
    assert!(
        ok(&reply),
        "same connection answers ping: {}",
        reply.render()
    );
    let mut fresh = ServeClient::connect(&server.local_addr().to_string()).expect("connect");
    assert!(fresh.ping().is_ok(), "and so does a new one");
    server.stop();
}

#[test]
fn a_batch_1_request_profiles_as_the_scalar_path_it_ran() {
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            max_batch: 1,
            profile_every: 1,
            ..ServerConfig::default()
        },
        small_spec(),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(&server.local_addr().to_string()).expect("connect");
    client
        .infer(&vec![0.5; small_spec().input_len()])
        .expect("infer");
    let profile = &client.profile().expect("profile");

    let JsonValue::Object(paths) = profile.get("paths").expect("paths") else {
        panic!("paths is an object");
    };
    assert_eq!(paths.len(), 1, "{}", profile.render());
    assert_eq!(paths[0].0, "scalar", "one image fills no lane block");
    let stages = profile.get("stages").and_then(JsonValue::as_array).unwrap();
    let field = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_f64).unwrap();
    let kernel_stages: Vec<&JsonValue> = stages
        .iter()
        .filter(|s| {
            matches!(
                s.get("kind").and_then(JsonValue::as_str),
                Some("conv" | "linear")
            )
        })
        .collect();
    assert!(!kernel_stages.is_empty());
    for s in kernel_stages {
        assert_eq!(
            (field(s, "lane_images"), field(s, "scalar_images")),
            (0.0, 1.0),
            "{}",
            s.render()
        );
    }
    server.stop();
}
