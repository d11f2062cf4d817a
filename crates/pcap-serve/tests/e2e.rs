//! End-to-end tests for the pcap-serve daemon: real TCP on an ephemeral
//! port, multiple client threads, and the full request lifecycle —
//! coalescing, cache hits, byte-identical results vs an in-process
//! [`solve_sweep`], load shedding with retry hints, malformed/oversized
//! input handling, and graceful drain.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use pcap_core::{solve_sweep, DagSpec, Instance, SweepOptions, TaskFrontiers};
use pcap_machine::MachineSpec;
use pcap_serve::{
    field, render_results, resolve_graph, sweep_request_line, Client, Response, Server,
    ServerConfig,
};

fn bench_instance(seed: u64, caps: &[f64]) -> Instance {
    Instance {
        machine: MachineSpec::e5_2670(),
        dag: DagSpec::Bench { name: "comd".into(), ranks: 4, iterations: 2, seed },
        caps_w: caps.to_vec(),
    }
}

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server start");
    let addr = server.addr().to_string();
    (server, addr)
}

fn get(resp: &Response, key: &str) -> String {
    field(resp, key).unwrap_or_else(|| panic!("missing '{key}' in {resp:?}")).to_string()
}

#[test]
fn concurrent_duplicates_coalesce_to_one_solve_with_byte_identical_results() {
    let (server, addr) =
        start(ServerConfig { workers: 2, queue_cap: 16, ..ServerConfig::default() });
    let instance = bench_instance(7, &[20.0, 45.0, 70.0]);
    let request = sweep_request_line(&instance);

    // 8 clients fire the identical request through a barrier so they
    // overlap; single-flight must run exactly one solve.
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let barrier = Arc::clone(&barrier);
        let addr = addr.clone();
        let request = request.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client.request(&request).expect("sweep response")
        }));
    }
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut result_strings = Vec::new();
    let mut outcome_counts = std::collections::BTreeMap::new();
    for resp in &responses {
        assert_eq!(get(resp, "ok"), "true", "all duplicates must succeed: {resp:?}");
        result_strings.push(get(resp, "results"));
        *outcome_counts.entry(get(resp, "cached")).or_insert(0u32) += 1;
    }
    // Every response carries the same bytes.
    for r in &result_strings[1..] {
        assert_eq!(r, &result_strings[0], "coalesced responses must be byte-identical");
    }
    // Exactly one connection led the solve; the rest coalesced or (if they
    // arrived after publication) hit the cache.
    assert_eq!(outcome_counts.get("miss"), Some(&1), "outcomes: {outcome_counts:?}");
    assert_eq!(
        outcome_counts.values().sum::<u32>(),
        8,
        "unexpected outcome split: {outcome_counts:?}"
    );

    // A later identical request is a pure cache hit, still byte-identical.
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.request(&request).expect("cached sweep");
    assert_eq!(get(&resp, "cached"), "hit");
    assert_eq!(get(&resp, "results"), result_strings[0]);

    // The server's bytes equal an in-process solve of the same instance
    // with the same options — the determinism invariant, end to end.
    let graph = resolve_graph(&instance).expect("resolve");
    let frontiers = TaskFrontiers::build(&graph, &instance.machine);
    let opts = SweepOptions { workers: 1, ..SweepOptions::default() };
    let points = solve_sweep(&graph, &instance.machine, &frontiers, &instance.caps_w, &opts);
    assert_eq!(
        result_strings[0],
        render_results(&points),
        "server results must be byte-identical to in-process solve_sweep"
    );

    // Stats reflect the single solve and expose the required fields.
    let stats = client.stats().expect("stats");
    assert_eq!(get(&stats, "solves"), "1", "single-flight must have run one solve");
    assert_eq!(get(&stats, "cache_misses"), "1");
    let hits: u64 = get(&stats, "cache_hits").parse().unwrap();
    let coalesced: u64 = get(&stats, "coalesced").parse().unwrap();
    assert_eq!(hits + coalesced, 8, "7 duplicates + 1 follow-up hit");
    for key in [
        "queue_depth",
        "cache_entries",
        "cache_hit_rate",
        "lp_solves",
        "lp_certified",
        "lp_iterations",
        "p50_ms",
        "p99_ms",
        "shed",
        "uptime_s",
    ] {
        let value = get(&stats, key);
        assert!(value.parse::<f64>().is_ok(), "stats field {key}={value} not numeric");
    }
    let hit_rate: f64 = get(&stats, "cache_hit_rate").parse().unwrap();
    assert!(hit_rate > 0.8, "8/9 lookups were served without a solve, got {hit_rate}");

    server.stop();
}

#[test]
fn overload_sheds_with_retry_hint_and_recovers() {
    // One worker, queue of one: a burst of distinct instances must
    // overflow admission. The seeded `slow_solve` fault holds the worker
    // on the first job for a second, so the burst meets a busy worker and
    // a full queue however fast a solve is.
    let (server, addr) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        fault_plan: Some("seed=7;slow_solve=1/1000#1".into()),
        ..ServerConfig::default()
    });

    let n = 12;
    let barrier = Arc::new(Barrier::new(n));
    let mut handles = Vec::new();
    for i in 0..n {
        let barrier = Arc::clone(&barrier);
        let addr = addr.clone();
        handles.push(thread::spawn(move || {
            let instance = bench_instance(1000 + i as u64, &[40.0, 60.0]);
            let request = sweep_request_line(&instance);
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client.request(&request).expect("response")
        }));
    }
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut ok = 0;
    let mut shed = 0;
    for resp in &responses {
        if get(resp, "ok") == "true" {
            ok += 1;
        } else {
            assert_eq!(get(resp, "code"), "overloaded", "unexpected error: {resp:?}");
            let retry: u64 = get(resp, "retry_after_ms").parse().expect("retry_after_ms");
            assert!(retry > 0);
            shed += 1;
        }
    }
    assert_eq!(ok + shed, n);
    assert!(shed >= 1, "12 simultaneous distinct jobs into a 1-deep queue must shed");
    assert!(ok >= 2, "the running job and the queued job must both complete");

    // Shedding must not poison the cache: a shed instance solves fine once
    // the burst is over.
    let mut client = Client::connect(&addr).expect("connect");
    let instance = bench_instance(1000, &[40.0, 60.0]);
    let resp = client.request(&sweep_request_line(&instance)).expect("retry after shed");
    assert_eq!(get(&resp, "ok"), "true", "retried request must succeed: {resp:?}");

    let stats = client.stats().expect("stats");
    let stat_shed: u64 = get(&stats, "shed").parse().unwrap();
    assert!(stat_shed >= shed as u64);

    server.stop();
}

#[test]
fn malformed_and_oversized_requests_get_clean_errors_on_a_live_connection() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Garbage line → parse error, connection stays up.
    let resp = client.request("this is not json").expect("parse-error response");
    assert_eq!(get(&resp, "ok"), "false");
    assert_eq!(get(&resp, "code"), "parse");

    // Unknown op.
    let resp = client.request("{\"op\":\"warp\"}").expect("unknown-op response");
    assert_eq!(get(&resp, "code"), "parse");

    // Well-formed request, broken instance payload.
    let resp = client
        .request("{\"op\":\"sweep\",\"instance\":\"pcapc1;bogus\"}")
        .expect("bad-instance response");
    assert_eq!(get(&resp, "code"), "bad_instance");

    // Instance that decodes but names an unknown benchmark: rejected by
    // the worker, propagated through the single-flight machinery.
    let mut unknown = bench_instance(1, &[50.0]);
    if let DagSpec::Bench { name, .. } = &mut unknown.dag {
        *name = "nosuchbench".into();
    }
    let resp = client.request(&sweep_request_line(&unknown)).expect("unknown-bench response");
    assert_eq!(get(&resp, "code"), "bad_instance");
    assert!(get(&resp, "error").contains("unknown benchmark"));

    // Oversized line → too_large, and the connection is still usable.
    let huge = format!("{{\"op\":\"sweep\",\"instance\":\"{}\"}}", "x".repeat(128 * 1024));
    let resp = client.request(&huge).expect("too-large response");
    assert_eq!(get(&resp, "code"), "too_large");

    let resp = client.ping().expect("ping after errors");
    assert_eq!(get(&resp, "ok"), "true");

    let stats = client.stats().expect("stats");
    assert!(get(&stats, "parse_errors").parse::<u64>().unwrap() >= 2);
    assert!(get(&stats, "too_large").parse::<u64>().unwrap() >= 1);
    assert!(get(&stats, "bad_instance").parse::<u64>().unwrap() >= 2);

    server.stop();
}

#[test]
fn graceful_shutdown_drains_admitted_jobs_and_refuses_new_ones() {
    let (server, addr) =
        start(ServerConfig { workers: 1, queue_cap: 8, ..ServerConfig::default() });

    // Admit four distinct jobs; one worker means most sit in the queue.
    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for i in 0..4 {
        let barrier = Arc::clone(&barrier);
        let addr = addr.clone();
        handles.push(thread::spawn(move || {
            let instance = bench_instance(2000 + i as u64, &[35.0, 65.0]);
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client.request(&sweep_request_line(&instance)).expect("drained response")
        }));
    }
    // Give the burst time to be admitted before pulling the plug.
    thread::sleep(Duration::from_millis(300));
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.shutdown().expect("shutdown ack");
    assert_eq!(get(&resp, "ok"), "true");
    assert_eq!(get(&resp, "draining"), "true");

    // Every admitted job still gets a real answer — drain drops nothing.
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(get(&resp, "ok"), "true", "admitted job was dropped: {resp:?}");
        assert!(get(&resp, "results").contains('='));
    }

    server.wait();

    // The daemon is gone: new connections are refused.
    assert!(std::net::TcpStream::connect(&addr).is_err(), "listener must be closed after drain");
}

#[test]
fn sweeps_after_shutdown_are_refused_while_draining() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Warm one solve through, then trigger the drain from the server side.
    let instance = bench_instance(3000, &[55.0]);
    let resp = client.request(&sweep_request_line(&instance)).expect("pre-shutdown sweep");
    assert_eq!(get(&resp, "ok"), "true");

    server.shutdown();
    // The existing connection notices the flag on its next poll tick; a
    // sweep submitted in the window before the socket closes must be
    // refused, not silently queued. Both "refused" and "connection closed"
    // are acceptable once draining; what's not acceptable is a solve.
    // An Err means the connection was already torn down — equally a refusal.
    if let Ok(resp) = client.request(&sweep_request_line(&bench_instance(3001, &[55.0]))) {
        assert_eq!(get(&resp, "ok"), "false");
        assert_eq!(get(&resp, "code"), "shutting_down");
    }
    server.wait();
}
