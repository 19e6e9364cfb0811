//! Integration tests for `dftp serve`: an in-process [`Server`] driven by
//! a hand-rolled `TcpStream` client — submission, status, streaming,
//! cache hits on resubmission, cooperative cancel, deadlines — plus
//! property tests hammering the HTTP request-head parser.
//!
//! The load-bearing claim: the chunked JSONL a stream replies with is
//! byte-identical (modulo `wall_time_s`) to what `dftp sweep --format
//! jsonl` prints for the same plan.

use freezetag::exp::serve::{parse_request_head, ServeConfig, Server};
use freezetag::exp::EngineConfig;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn spawn_server() -> Server {
    Server::spawn(ServeConfig {
        engine: EngineConfig {
            threads: 2,
            cache_capacity: 256,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

/// One full HTTP exchange: write the request, read to EOF (the server
/// closes every connection), split into (status line, headers, body).
fn http(addr: SocketAddr, request: &str) -> (String, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    let head_end = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("reply has a blank line")
        + 4;
    let head = String::from_utf8_lossy(&reply[..head_end]).into_owned();
    let (status, headers) = head.split_once("\r\n").expect("status line");
    (
        status.to_string(),
        headers.to_string(),
        reply[head_end..].to_vec(),
    )
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let (status, _, body) = http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    let (status, _, reply) = http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    (status, String::from_utf8_lossy(&reply).into_owned())
}

/// Decodes a chunked transfer-encoded body into its payload bytes.
fn dechunk(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size_text = std::str::from_utf8(&body[..line_end]).expect("chunk size utf-8");
        let size = usize::from_str_radix(size_text.trim(), 16).expect("chunk size hex");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        assert_eq!(&body[size..size + 2], b"\r\n", "chunk terminator");
        body = &body[size + 2..];
    }
}

fn submit(addr: SocketAddr, params: &str) -> u64 {
    let (status, body) = post(addr, "/plans", params);
    assert!(status.contains("202"), "{status}: {body}");
    let id_text = body
        .strip_prefix("{\"id\":")
        .and_then(|r| r.split(',').next())
        .expect("id field");
    id_text.parse().expect("numeric id")
}

fn field_u64(status_json: &str, key: &str) -> u64 {
    let marker = format!("\"{key}\":");
    let rest = &status_json[status_json.find(&marker).expect(key) + marker.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect(key)
}

fn wait_terminal(addr: SocketAddr, id: u64, budget: Duration) -> String {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, &format!("/plans/{id}"));
        assert!(status.contains("200"), "{status}: {body}");
        if ["\"done\"", "\"cancelled\"", "\"failed\""]
            .iter()
            .any(|p| body.contains(p))
        {
            return body;
        }
        assert!(
            start.elapsed() < budget,
            "plan {id} not terminal within {budget:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn strip_wall(text: &str) -> String {
    text.lines()
        .map(|l| match l.find(",\"wall_time_s\":") {
            Some(i) => format!("{}}}", &l[..i]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const PLAN: &str =
    "scenarios=disk:n=15:radius=5,ring:n=12:radius=6&algs=grid,wave&seeds=2&plan-seed=5";

#[test]
fn streamed_jsonl_matches_the_cli_sweep_bytes() {
    let server = spawn_server();
    let id = submit(server.addr(), PLAN);
    let (status, _, body) = http(
        server.addr(),
        &format!("GET /plans/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert!(status.contains("200"), "{status}");
    let streamed = String::from_utf8(dechunk(&body)).expect("jsonl utf-8");

    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_dftp"))
        .args([
            "sweep",
            "--scenarios",
            "disk:n=15:radius=5,ring:n=12:radius=6",
            "--algs",
            "grid,wave",
            "--seeds",
            "2",
            "--plan-seed",
            "5",
            "--format",
            "jsonl",
        ])
        .output()
        .expect("spawn dftp");
    assert!(cli.status.success());
    let cli_text = String::from_utf8_lossy(&cli.stdout);
    assert_eq!(
        strip_wall(&streamed),
        strip_wall(&cli_text),
        "serve must stream the exact bytes dftp sweep prints"
    );
}

#[test]
fn resubmission_is_served_from_the_cache_with_identical_bytes() {
    let server = spawn_server();
    let addr = server.addr();
    let stream_of = |id: u64| {
        let (_, _, body) = http(
            addr,
            &format!("GET /plans/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        String::from_utf8(dechunk(&body)).expect("jsonl utf-8")
    };
    let first = submit(addr, PLAN);
    let first_text = stream_of(first);
    let first_status = wait_terminal(addr, first, Duration::from_secs(30));
    assert_eq!(field_u64(&first_status, "cache_hits"), 0);
    assert_eq!(field_u64(&first_status, "cache_misses"), 8);

    let second = submit(addr, PLAN);
    let second_text = stream_of(second);
    let second_status = wait_terminal(addr, second, Duration::from_secs(30));
    assert_eq!(
        field_u64(&second_status, "cache_hits"),
        8,
        "repeat submission must be answered from the cache: {second_status}"
    );
    assert_eq!(field_u64(&second_status, "cache_misses"), 0);
    // Cache hits keep the original wall_time_s, so the full bytes —
    // including that field — only match after stripping it.
    assert_eq!(strip_wall(&first_text), strip_wall(&second_text));

    let (_, health) = get(addr, "/health");
    assert!(health.contains("\"cache_hits\":8"), "{health}");
    assert!(health.contains("\"cache_misses\":8"), "{health}");
}

#[test]
fn cancelled_plan_terminates_promptly() {
    let server = spawn_server();
    let addr = server.addr();
    // A plan long enough that cancellation lands mid-execution.
    let id = submit(
        addr,
        "scenarios=uniform_1m:n=60000:radius=160&algs=grid&seeds=6&profile=stats",
    );
    // Let execution start, then cancel and demand a prompt stop.
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = post(addr, &format!("/plans/{id}/cancel"), "");
    assert!(status.contains("200"), "{status}: {body}");
    let cancelled_at = Instant::now();
    let final_status = wait_terminal(addr, id, Duration::from_secs(5));
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(1),
        "cancel took {:?}",
        cancelled_at.elapsed()
    );
    assert!(
        final_status.contains("\"cancelled\"") || final_status.contains("\"done\""),
        "unexpected terminal state: {final_status}"
    );
}

#[test]
fn deadline_cancels_a_plan_that_runs_long() {
    let server = spawn_server();
    let addr = server.addr();
    let id = submit(
        addr,
        "scenarios=uniform_1m:n=60000:radius=160&algs=grid&seeds=6&profile=stats&deadline-s=0.05",
    );
    let body = wait_terminal(addr, id, Duration::from_secs(10));
    assert!(body.contains("\"cancelled\""), "{body}");
    let emitted = field_u64(&body, "emitted");
    assert!(emitted < 6, "deadline did not bite: {body}");
}

#[test]
fn bad_plans_and_unknown_routes_are_clean_errors() {
    let server = spawn_server();
    let addr = server.addr();
    let (status, body) = post(addr, "/plans", "algs=grid");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("scenarios"), "{body}");
    let (status, _) = post(addr, "/plans", "scenarios=disk&bogus=1");
    assert!(status.contains("400"), "{status}");
    // A control character from the client reaches the error message; it
    // must come back as a JSON escape, not Rust's `\u{1}` Debug form.
    let (status, body) = post(addr, "/plans", "%01=1");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("\\u0001"), "{body}");
    assert!(!body.contains("\\u{"), "{body}");
    // A length past the registry ceiling would never finish generating
    // its instance; it is a plan error, not a job that cannot be stopped.
    let (status, body) = post(
        addr,
        "/plans",
        "scenarios=disk:n=5:radius=1e308&algs=central:quadtree&seeds=1",
    );
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("'radius'"), "{body}");
    let (status, _) = get(addr, "/plans/999");
    assert!(status.contains("404"), "{status}");
    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _, body) = http(addr, "BROKEN\r\n\r\n");
    assert!(status.contains("400"), "{status}");
    assert!(!body.is_empty());
}

#[test]
fn query_string_submission_works_like_a_body() {
    let server = spawn_server();
    let addr = server.addr();
    let (status, body) = post(
        addr,
        "/plans?scenarios=disk%3An%3D10%3Aradius%3D4&algs=grid&seeds=1",
        "",
    );
    assert!(status.contains("202"), "{status}: {body}");
    assert!(body.contains("\"total\":1"), "{body}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The head parser must never panic, whatever bytes arrive on the
    /// socket — every malformed input is a clean `Err`.
    #[test]
    fn request_head_parser_never_panics(
        // The vendored proptest stand-in has no u8 range strategy; draw
        // u32 and narrow.
        codes in prop::collection::vec(0u32..256, 0..200),
    ) {
        let bytes: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request_head(&text);
    }

    /// Well-formed heads round-trip: method, path, query and
    /// Content-Length all survive parsing, under either line-ending
    /// convention and any header-name case.
    #[test]
    fn request_head_parser_round_trips_valid_requests(
        method_idx in 0usize..3,
        path_codes in prop::collection::vec(97u32..123, 1..12),
        query_codes in prop::collection::vec(97u32..123, 0..8),
        content_length in 0usize..4096,
        crlf in 0usize..2,
        upper in 0usize..2,
    ) {
        let method = ["GET", "POST", "DELETE"][method_idx];
        let to_ascii = |codes: &[u32]| -> String {
            codes.iter().map(|&c| c as u8 as char).collect()
        };
        let path = format!("/{}", to_ascii(&path_codes));
        let query = to_ascii(&query_codes);
        let target = if query.is_empty() {
            path.clone()
        } else {
            format!("{path}?{query}")
        };
        let eol = if crlf == 1 { "\r\n" } else { "\n" };
        let header_name = if upper == 1 { "CONTENT-LENGTH" } else { "content-length" };
        let head = format!(
            "{method} {target} HTTP/1.1{eol}Host: t{eol}{header_name}: {content_length}{eol}"
        );
        let parsed = parse_request_head(&head).expect("valid head parses");
        prop_assert_eq!(parsed.method, method);
        prop_assert_eq!(parsed.path, path);
        prop_assert_eq!(parsed.query, query);
        prop_assert_eq!(parsed.content_length, content_length);
    }
}
