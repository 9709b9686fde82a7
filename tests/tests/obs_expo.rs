//! Exposition-format tests for `cdba-obs`: hostile metric and label
//! names must render to valid Prometheus text that re-parses without
//! panics or duplicate series (property test), a populated registry must
//! render byte-for-byte to the committed golden file, and a gateway
//! started with a metrics listener must serve the registry over plain
//! HTTP end to end.

use cdba_bench::replay::{run_replay, ReplaySpec};
use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, ServiceConfig};
use cdba_gateway::client::Client;
use cdba_gateway::{GatewayConfig, GatewayServer};
use cdba_obs::Registry;
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;

fn metric_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_name_ok(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with("__")
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A minimal Prometheus text-format 0.0.4 checker: validates every line,
/// requires `# HELP`/`# TYPE` before a family's first sample, and
/// returns the parsed `(series_name, label_text)` sample keys so callers
/// can assert uniqueness. Panics (failing the test) on any violation.
fn check_exposition(text: &str) -> Vec<(String, String)> {
    let mut samples = Vec::new();
    let mut typed: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword in {line:?}"
            );
            assert!(metric_name_ok(name), "bad family name in {line:?}");
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or_default();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE {kind:?} in {line:?}"
                );
                typed.insert(name.to_string());
            } else if keyword == "HELP" {
                let help = parts.next().unwrap_or_default();
                assert!(
                    !help.contains('\n'),
                    "unescaped newline in HELP of {line:?}"
                );
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "unparseable value {value:?} in {line:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest.strip_suffix('}').expect("label block closes");
                // Label text: name="value",... — validate names and the
                // escaping of values (only \\ \" \n escapes; no raw ").
                let mut remainder = labels;
                while !remainder.is_empty() {
                    let (lname, rest) = remainder.split_once("=\"").expect("label has =\"");
                    assert!(label_name_ok(lname), "bad label name {lname:?} in {line:?}");
                    let mut end = None;
                    let mut escaped = false;
                    for (i, c) in rest.char_indices() {
                        if escaped {
                            assert!(
                                c == '\\' || c == '"' || c == 'n',
                                "bad escape \\{c} in {line:?}"
                            );
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else if c == '"' {
                            end = Some(i);
                            break;
                        } else {
                            assert!(c != '\n', "raw newline inside label value in {line:?}");
                        }
                    }
                    let end = end.expect("label value closes");
                    remainder = rest[end + 1..]
                        .strip_prefix(',')
                        .unwrap_or(&rest[end + 1..]);
                }
                (name, labels)
            }
            None => (series, ""),
        };
        assert!(metric_name_ok(name), "bad series name {name:?} in {line:?}");
        // Histogram child series carry the family's TYPE.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        assert!(
            typed.contains(family),
            "sample {name:?} has no preceding # TYPE"
        );
        samples.push((name.to_string(), labels.to_string()));
    }
    samples
}

/// The alphabet hostile strings draw from: every class the exposition
/// format must sanitize or escape — quotes, backslashes, newlines,
/// braces, spaces, reserved `__`, non-ASCII — plus ordinary characters.
const HOSTILE: &[char] = &[
    'a', 'Z', '9', '_', ':', '-', '.', ' ', '"', '\\', '\n', '\t', '{', '}', '=', ',', '#', 'µ',
    'π', '\u{7f}',
];

/// A string of up to `max` characters drawn from [`HOSTILE`].
fn hostile_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..HOSTILE.len(), 0..max.max(1))
        .prop_map(|picks| picks.into_iter().map(|i| HOSTILE[i]).collect())
}

/// A lowercase identifier of 1..=max characters.
fn ident(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..27, 1..max.max(2)).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| {
                if i == 26 {
                    '_'
                } else {
                    (b'a' + i as u8) as char
                }
            })
            .collect()
    })
}

proptest! {
    /// Arbitrary (including hostile) names, help text, and label pairs:
    /// registration must not panic, the rendered exposition must
    /// validate, and no two samples may share a series key.
    #[test]
    fn hostile_names_render_valid_and_unique(
        names in proptest::collection::vec(hostile_string(24), 1..6),
        help in hostile_string(40),
        label_names in proptest::collection::vec(hostile_string(12), 0..3),
        label_value in hostile_string(16),
        bounds in proptest::collection::vec(-1e6..1e6f64, 0..5),
    ) {
        let registry = Registry::new();
        for (i, name) in names.iter().enumerate() {
            let labels: Vec<(&str, &str)> = label_names
                .iter()
                .map(|l| (l.as_str(), label_value.as_str()))
                .collect();
            match i % 3 {
                0 => { registry.counter_with(name, &help, &labels).inc(); }
                1 => { registry.gauge_with(name, &help, &labels).set(i as f64); }
                _ => { registry.histogram_with(name, &help, &bounds, &labels).observe(1.0); }
            }
        }
        let text = registry.render();
        let samples = check_exposition(&text);
        let unique: HashSet<_> = samples.iter().collect();
        prop_assert!(unique.len() == samples.len(), "duplicate series in:\n{}", text);
    }

    /// Re-registering the same (name, labels) returns the same cell, so
    /// increments from both handles land on one series.
    #[test]
    fn reregistration_is_idempotent(name in ident(16)) {
        let registry = Registry::new();
        let a = registry.counter_with(&name, "h", &[("shard", "0")]);
        let b = registry.counter_with(&name, "h", &[("shard", "0")]);
        a.inc();
        b.add(2);
        prop_assert_eq!(a.get(), 3);
        let samples = check_exposition(&registry.render());
        prop_assert_eq!(samples.len(), 1);
    }
}

/// Builds the registry whose rendering is pinned by the golden file: one
/// of everything the system registers — plain and labelled counters, a
/// gauge, a histogram with out-of-order bounds, and names/labels/help
/// needing sanitization and escaping.
fn golden_registry() -> Registry {
    let registry = Registry::new();
    registry
        .counter("cdba_ctrl_ticks_total", "Ticks executed")
        .add(42);
    for shard in 0..2 {
        registry
            .counter_with(
                "cdba_ctrl_shard_restarts_total",
                "Shard-worker restarts",
                &[("shard", &shard.to_string())],
            )
            .add(shard + 1);
    }
    registry
        .counter(
            "cdba_ctrl_checkpoint_encoded_sessions_total",
            "Session rows carried by accepted checkpoint frames",
        )
        .add(1000);
    registry
        .gauge_with(
            "cdba_ctrl_checkpoint_retained_bytes",
            "Bytes of the one checkpoint frame the driver retains for recovery",
            &[("shard", "0")],
        )
        .set(422_000.0);
    registry
        .gauge(
            "cdba_ctrl_parked_workers",
            "Superseded shard workers that had not exited when they were \
             retired (hung); each cost its restart a second column set",
        )
        .set(1.0);
    let restore = registry.histogram(
        "cdba_ctrl_restore_seconds",
        "Wall-clock seconds the driver spent restarting a shard: reclaiming \
         the retired worker's state, applying the checkpoint frame, \
         replaying the journal",
        &[0.001, 0.01, 0.1, 1.0, 10.0],
    );
    restore.observe(0.0004); // journal-only restore
    restore.observe(0.23); // reclaim + frame apply + journal replay
    registry
        .gauge(
            "cdba_ctrl_signalling_cost",
            "Cost under the \\ pricing\nline two",
        )
        .set(19.5);
    registry
        .gauge(
            "cdba_ctrl_stages_completed_total",
            "Stages completed, each certifying one offline change",
        )
        .set(7.0);
    let h = registry.histogram(
        "cdba_gateway_request_latency_us",
        "Request latency",
        &[100.0, 50.0, 1000.0], // 50.0 is out of order and dropped
    );
    h.observe(30.0);
    h.observe(250.0);
    h.observe(5000.0);
    registry
        .counter_with(
            "bad name!",
            "hostile registration",
            &[("__reserved", "quote\" slash\\ newline\n")],
        )
        .inc();
    registry
}

#[test]
fn golden_exposition_is_stable() {
    let rendered = golden_registry().render();
    let golden = include_str!("golden/obs_metrics.golden");
    assert!(
        rendered == golden,
        "rendered exposition drifted from tests/tests/golden/obs_metrics.golden;\n\
         rendered:\n{rendered}"
    );
    check_exposition(&rendered);
}

/// End-to-end: a gateway started with a metrics listener serves valid
/// Prometheus text covering ctrl and gateway series, and JSON-lines
/// trace events, over plain HTTP — while the replay's snapshot stays
/// bitwise equal to a run without metrics (asserted in
/// `gateway_server.rs`; here we assert the scrape itself).
#[test]
fn gateway_metrics_endpoint_serves_ctrl_and_gateway_series() {
    let spec = ReplaySpec {
        sessions: 8,
        ticks: 120,
        churn_every: 40,
        ..ReplaySpec::default()
    };
    let cfg = spec
        .service_builder(spec.default_budget())
        .shards(2)
        .build()
        .expect("valid config");
    let gateway_cfg = GatewayConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(cfg, gateway_cfg).expect("gateway starts");
    let metrics_addr = server.metrics_addr().expect("metrics listener is up");

    let mut client = Client::connect(server.local_addr()).expect("client connects");
    run_replay(&mut client, &spec).expect("wire replay");
    let snapshot = client.snapshot_bin().expect("wire snapshot");

    let body = http_get(&metrics_addr.to_string(), "/metrics");
    let samples = check_exposition(&body);
    for series in [
        "cdba_ctrl_ticks_total",
        "cdba_ctrl_live_sessions",
        "cdba_ctrl_signalling_cost",
        "cdba_ctrl_stages_completed_total",
        "cdba_gateway_frames_total",
        "cdba_gateway_request_latency_us_count",
    ] {
        assert!(
            samples.iter().any(|(name, _)| name == series),
            "scrape is missing {series}; got:\n{body}"
        );
    }
    // The scraped tick counter agrees with the snapshot the wire reports.
    let ticks_line = body
        .lines()
        .find(|l| l.starts_with("cdba_ctrl_ticks_total "))
        .expect("ticks sample");
    let scraped: f64 = ticks_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert_eq!(scraped as u64, snapshot.service.ticks);

    let trace = http_get(&metrics_addr.to_string(), "/trace");
    assert!(
        trace.lines().any(|l| l.contains("\"kind\":\"admit\"")),
        "trace drain has no admit events:\n{trace}"
    );

    client.goodbye().expect("clean goodbye");
    server.shutdown().expect("graceful shutdown");
}

/// `cdba_ctrl_shard_lag_events` is read at scrape, from the worker's own
/// watermark: while a worker sits in a tolerated delay (half a second, so
/// that a busy host still scrapes inside it) the joins behind it neither
/// block nor go unnoticed, and any sync point brings the gauge back to 0.
#[test]
fn shard_lag_shows_a_burst_behind_a_slow_worker_and_clears_at_a_sync_point() {
    let registry = Registry::new();
    let lag = || -> f64 {
        let text = registry.render();
        check_exposition(&text);
        let line = text
            .lines()
            .find(|l| l.starts_with("cdba_ctrl_shard_lag_events{shard=\"0\"} "))
            .expect("the lag gauge is exported");
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let cfg = ServiceConfig::builder(4096.0)
        .session_b_max(16.0)
        .offline_delay(4)
        .window(8)
        .exec(ExecMode::Threaded)
        .checkpoint_every(8)
        .fault(FaultPlan::hang(0, 0, 500))
        .build()
        .expect("valid config");
    let mut plane = ControlPlane::new(cfg);
    plane.attach_metrics(&registry);
    assert_eq!(lag(), 0.0, "nothing dispatched yet");
    let first = plane.admit("acme").expect("admit");
    // The worker stalls in front of this tick, with 100 joins behind it in
    // the open tail: a busy worker is sent nothing until a block gathers.
    plane.tick(&[(first, 1.0)]).expect("tick");
    for _ in 0..100 {
        plane.admit("acme").expect("admit");
    }
    let behind = lag();
    assert!(
        (101.0..=102.0).contains(&behind),
        "the tick and 100 joins are unapplied, read {behind}"
    );
    assert_eq!(plane.snapshot().expect("snapshot").sessions.len(), 101);
    assert_eq!(lag(), 0.0, "a reply means everything before it is applied");
    plane.shutdown();
}

/// One blocking HTTP/1.1 GET against the metrics listener; returns the
/// response body and asserts a 200 status.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "expected 200 for {path}, got: {head}"
    );
    body.to_string()
}
