//! The serve workload: an in-process `pcap_serve::Server` driven by a
//! closed loop of two client connections over a seeded request mix.
//!
//! A pass starts a fresh server (no store), sends one whole mix — each
//! connection sends its next request only after the reply to the previous
//! one — and stops the server. Every pass therefore sees the same cold
//! cache and empty worker pool. A run cycles through a few mixes drawn
//! from its seed, so its tail is not set by the few slowest requests of
//! one mix.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pcap_core::canon::fnv1a;
use pcap_core::{
    solve_sweep, CoreError, DagSpec, Instance, SweepOptions, SweepPoint, TaskFrontiers,
};
use pcap_machine::MachineSpec;
use pcap_serve::{
    field, render_results, resolve_graph, sweep_request_line, Client, Response, Server,
    ServerConfig,
};

use crate::report::{metric, Outcome, PassRecord, Run};
use crate::stats::{host_steal_s, median, percentile, SchedTimes};
use crate::trace::Tracer;

/// Client connections, and server workers: one each per core of the
/// two-core host the workload was sized on.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;

/// One scope shape: benchmark name, ranks, iterations.
pub type ScopeShape = (&'static str, u32, u32);

#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// One scope per entry; the run seed picks each one's DAG seed.
    pub scopes: Vec<ScopeShape>,
    /// Average watts per socket a request's caps are drawn from.
    pub per_socket_caps: Vec<f64>,
    /// Caps in a scope's first request.
    pub first_caps: usize,
    /// One new cap grid per entry on every scope, with that many caps.
    pub regrid_caps: Vec<usize>,
    /// Exact repeats of an earlier request in one pass's mix.
    pub repeats: usize,
    /// Latency samples a run collects at least, so its p99 has ten beyond.
    pub min_requests: usize,
    /// Passes a run makes at least, so `setup_s` is a median of many.
    pub min_passes: usize,
    /// Distinct mixes a run cycles through; it ends on a whole cycle.
    pub mixes: usize,
}

impl ServeSpec {
    /// Eight scopes, each asked once cold and three times on a new grid,
    /// plus one exact repeat per scope. This is a chosen coverage mix, not
    /// observed traffic: every kind of request occurs in every pass, and
    /// with a fifth of the requests hits, a fifth cold builds and three
    /// fifths re-grids, the median request is a re-grid (solver and pool
    /// work) and the tail is a cold build.
    pub fn mixed() -> ServeSpec {
        ServeSpec {
            scopes: vec![
                ("comd", 8, 2),
                ("comd", 8, 2),
                ("comd", 8, 2),
                ("comd", 8, 2),
                ("lulesh", 4, 2),
                ("lulesh", 4, 2),
                ("comd", 4, 2),
                ("comd", 4, 2),
            ],
            per_socket_caps: (0..16).map(|k| 25.0 + 5.0 * k as f64).collect(),
            first_caps: 4,
            regrid_caps: vec![2, 4, 6],
            repeats: 8,
            min_requests: 1000,
            min_passes: 12,
            mixes: 8,
        }
    }

    fn requests(&self) -> usize {
        self.scopes.len() * (1 + self.regrid_caps.len()) + self.repeats
    }
}

/// How a request relates to the ones before it in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First request for its scope: the server builds it cold.
    NewScope,
    /// A cap grid not asked before on a seen scope: a warm context solve.
    NewGrid,
    /// The same instance as an earlier request: a cache hit, or coalesced
    /// onto the solve of the original while that is in flight.
    Repeat,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub instance: Instance,
}

/// SplitMix64: a small, fixed generator, so a seed names the same mix on
/// every platform and toolchain.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The run's mixes, each from its own seed drawn from the run seed.
pub fn request_mixes(spec: &ServeSpec, seed: u64) -> Vec<Vec<Request>> {
    let mut rng = SplitMix(seed);
    (0..spec.mixes).map(|_| request_mix(spec, rng.next())).collect()
}

/// One pass's requests, in send order. What each scope is asked, and how
/// many caps each request has, is fixed by `spec`, so every seed costs the
/// server about the same; the seed picks the scopes' DAG seeds, the caps,
/// the order, and which earlier requests are repeated.
pub fn request_mix(spec: &ServeSpec, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix(seed);
    let scopes: Vec<DagSpec> = spec
        .scopes
        .iter()
        .map(|&(name, ranks, iterations)| DagSpec::Bench {
            name: name.into(),
            ranks,
            iterations,
            seed: rng.next(),
        })
        .collect();
    // Each scope's solves in its own order: the cold one first, then the
    // re-grids shuffled; the scopes' solves then interleave at random.
    let mut grids: Vec<Vec<usize>> = scopes
        .iter()
        .map(|_| {
            let mut regrids = spec.regrid_caps.clone();
            rng.shuffle(&mut regrids);
            regrids
        })
        .collect();
    let mut order: Vec<Option<usize>> = (0..scopes.len())
        .flat_map(|s| std::iter::repeat_n(Some(s), 1 + spec.regrid_caps.len()))
        .chain(std::iter::repeat_n(None, spec.repeats))
        .collect();
    rng.shuffle(&mut order);
    // The mix opens on a solve, so every repeat has something to repeat.
    let first = order.iter().position(Option::is_some).expect("at least one scope");
    order.swap(0, first);

    let mut out: Vec<Request> = Vec::with_capacity(spec.requests());
    let mut seen = vec![false; scopes.len()];
    for slot in order {
        let (kind, instance) = match slot {
            None => (Kind::Repeat, out[rng.below(out.len())].instance.clone()),
            Some(s) if !seen[s] => {
                seen[s] = true;
                (Kind::NewScope, instance(spec, &scopes[s], spec.first_caps, &mut rng))
            }
            Some(s) => {
                let caps = grids[s].pop().expect("one slot per re-grid");
                let candidate = loop {
                    let c = instance(spec, &scopes[s], caps, &mut rng);
                    if out.iter().all(|r| r.instance != c) {
                        break c;
                    }
                };
                (Kind::NewGrid, candidate)
            }
        };
        out.push(Request { kind, instance });
    }
    out
}

/// An instance of `dag` at a random ascending grid of `k` distinct caps.
fn instance(spec: &ServeSpec, dag: &DagSpec, k: usize, rng: &mut SplitMix) -> Instance {
    let DagSpec::Bench { ranks, .. } = dag else { unreachable!("serve scopes are benchmarks") };
    let mut pool: Vec<f64> = spec.per_socket_caps.clone();
    let mut picked = Vec::with_capacity(k);
    for _ in 0..k.min(pool.len()) {
        picked.push(pool.swap_remove(rng.below(pool.len())));
    }
    picked.sort_by(f64::total_cmp);
    Instance {
        machine: MachineSpec::e5_2670(),
        dag: dag.clone(),
        caps_w: picked.iter().map(|w| w * *ranks as f64).collect(),
    }
}

/// A reference sweep's `results`. A cap whose in-process solve fails with
/// anything but infeasibility leaves nothing to compare a reply against.
fn expected_results(points: &[SweepPoint]) -> Result<String, String> {
    for p in points {
        match &p.schedule {
            Err(CoreError::Infeasible) | Ok(_) => {}
            Err(e) => return Err(format!("in-process solve at {} W failed: {e}", p.cap_w)),
        }
    }
    Ok(render_results(points))
}

/// Expected `results` of every distinct request line, computed in-process
/// by a fresh single-threaded `solve_sweep`, as the server's own
/// end-to-end tests check it.
fn reference(mixes: &[Vec<Request>]) -> Result<HashMap<String, String>, String> {
    let mut expected = HashMap::new();
    for r in mixes.iter().flatten() {
        let line = sweep_request_line(&r.instance);
        if expected.contains_key(&line) {
            continue;
        }
        let graph = resolve_graph(&r.instance)?;
        let frontiers = TaskFrontiers::build(&graph, &r.instance.machine);
        let opts = SweepOptions { workers: 1, ..SweepOptions::default() };
        let points =
            solve_sweep(&graph, &r.instance.machine, &frontiers, &r.instance.caps_w, &opts);
        expected.insert(line, expected_results(&points)?);
    }
    Ok(expected)
}

/// One request as the client saw it.
#[derive(Debug)]
struct Sample {
    start: Instant,
    encoded: Instant,
    end: Instant,
    reply: Result<Response, String>,
    line: String,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Sends this connection's share of the mix, one request at a time. The
/// latency clock starts before the request line is encoded, so client-side
/// encoding is part of what a caller waits for.
fn closed_loop(client: &mut Client, mix: &[Request], conn: usize) -> (Vec<(usize, Sample)>, f64) {
    let cpu0 = thread_cpu_s();
    let mut samples = Vec::new();
    for (i, r) in mix.iter().enumerate().skip(conn).step_by(CONNECTIONS) {
        let start = Instant::now();
        let line = sweep_request_line(&r.instance);
        let encoded = Instant::now();
        let reply = client.request(&line).map_err(|e| e.to_string());
        let end = Instant::now();
        samples.push((i, Sample { start, encoded, end, reply, line }));
    }
    (samples, thread_cpu_s() - cpu0)
}

/// CPU seconds of the calling thread so far.
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse::<f64>().ok()))
        .map_or(0.0, |ns| ns * 1e-9)
}

fn stat(resp: &Response, key: &str) -> f64 {
    field(resp, key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// What one pass measured.
struct PassData {
    setup_s: f64,
    record: PassRecord,
    samples: Vec<(usize, Sample)>,
    before: Response,
    after: Response,
    start: Instant,
    end: Instant,
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// Starts a server, sends the mix through it, and stops it again whether
/// or not the mix went through.
fn pass(mix: &[Request], tracer: &mut Tracer) -> Result<PassData, String> {
    let cfg =
        ServerConfig { workers: WORKERS, store_path: None, fault_plan: None, ..Default::default() };
    let t0 = Instant::now();
    let server = Server::start(cfg).map_err(io("server start"))?;
    let data = drive(server.addr(), mix, t0);
    server.stop();
    let data = data?;
    tracer.record("serve.setup", t0, t0 + Duration::from_secs_f64(data.setup_s), tracer.current());
    let pass_span = tracer.record("serve.pass", data.start, data.end, tracer.current());
    for (_, s) in &data.samples {
        let request = tracer.record("serve.request", s.start, s.end, pass_span);
        tracer.record("canon.encode", s.start, s.encoded, request);
    }
    Ok(data)
}

/// The client side of a pass: first `ping` (the end of set-up), a `stats`
/// snapshot, the closed loop, and a second snapshot.
fn drive(addr: SocketAddr, mix: &[Request], t0: Instant) -> Result<PassData, String> {
    let mut first = Client::connect(addr).map_err(io("connect"))?;
    first.ping().map_err(io("ping"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut clients = vec![first];
    for _ in 1..CONNECTIONS {
        clients.push(Client::connect(addr).map_err(io("connect"))?);
    }
    let before = clients[0].stats().map_err(io("stats"))?;
    let sched0 = SchedTimes::process();
    let steal0 = host_steal_s();
    let start = Instant::now();
    let per_conn: Vec<(Vec<(usize, Sample)>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| s.spawn(move || closed_loop(client, mix, conn)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let end = Instant::now();
    // Client threads have exited; their CPU comes from their own counters.
    let mut sched = SchedTimes::process().since(sched0);
    let steal_s = (host_steal_s() - steal0).max(0.0);
    let after = clients[0].stats().map_err(io("stats"))?;

    let mut samples = Vec::with_capacity(mix.len());
    for (conn_samples, cpu_s) in per_conn {
        sched.cpu_s += cpu_s;
        samples.extend(conn_samples);
    }
    samples.sort_by_key(|(i, _)| *i);
    let wall_s = (end - start).as_secs_f64();
    let record = PassRecord { wall_s, cpu_s: sched.cpu_s, runqueue_wait_s: sched.wait_s, steal_s };
    Ok(PassData { setup_s, record, samples, before, after, start, end })
}

/// Why a reply fails the gate, if it does.
fn verdict(sample: &Sample, expected: &HashMap<String, String>) -> Option<String> {
    let resp = match &sample.reply {
        Ok(r) => r,
        Err(e) => return Some(format!("transport: {e}")),
    };
    if field(resp, "ok") != Some("true") {
        return Some(format!("not ok: {}", field(resp, "code").unwrap_or("?")));
    }
    if field(resp, "cached") == Some("degraded") || field(resp, "degraded") != Some("false") {
        return Some("degraded reply".into());
    }
    if field(resp, "solver_errors") != Some("0") {
        return Some(format!("solver errors: {}", field(resp, "solver_errors").unwrap_or("?")));
    }
    if field(resp, "results").is_some_and(|r| r.split(',').any(|p| p.ends_with("=err"))) {
        return Some("a cap failed in the solver".into());
    }
    match (field(resp, "results"), expected.get(&sample.line)) {
        (Some(got), Some(want)) if got == want => None,
        _ => Some("results differ from the in-process solve".into()),
    }
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mixes = request_mixes(spec, seed);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(traced);
    let expected = match reference(&mixes) {
        Ok(e) => e,
        Err(e) => {
            outcome.fail(format!("reference: {e}"));
            return Run {
                outcome,
                passes: Vec::new(),
                metrics: Vec::new(),
                latency_ms: Vec::new(),
                tracer,
            };
        }
    };

    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut latency = Vec::new();
    let (mut hit, mut miss, mut miss_wait) = (Vec::new(), Vec::new(), Vec::new());
    let mut encode = Vec::new();
    let mut counters: HashMap<&str, f64> = HashMap::new();
    let (mut server_p50, mut server_p99) = (Vec::new(), Vec::new());
    let mut digest_bytes = Vec::new();
    let start = Instant::now();
    while passes.len() < spec.min_passes
        || latency.len() < spec.min_requests
        || start.elapsed().as_secs_f64() < seconds
        || passes.len() % mixes.len() != 0
    {
        let mix = &mixes[passes.len() % mixes.len()];
        let data = match tracer.span("pass", |t| pass(mix, t)) {
            Ok(d) => d,
            Err(e) => {
                outcome.fail(e);
                break;
            }
        };
        setups.push(data.setup_s);
        passes.push(data.record);
        let mut failed = 0;
        for (i, s) in &data.samples {
            latency.push(s.latency_ms());
            encode.push((s.encoded - s.start).as_secs_f64());
            if let Some(why) = verdict(s, &expected) {
                failed += 1;
                outcome.note(format!("request {i}: {why}"));
                continue;
            }
            let resp = s.reply.as_ref().expect("verdict passed an Ok reply");
            match field(resp, "cached") {
                Some("hit") => hit.push(s.latency_ms()),
                Some("miss") => {
                    miss.push(s.latency_ms());
                    miss_wait.push(s.latency_ms() - stat(resp, "solve_ms"));
                }
                _ => {}
            }
            if passes.len() <= mixes.len() {
                digest_bytes.extend_from_slice(field(resp, "results").unwrap_or("").as_bytes());
                digest_bytes.push(b'\n');
            }
        }
        outcome.add(data.samples.len() as u64, failed);
        for key in [
            "cache_hits",
            "cache_misses",
            "coalesced",
            "solves",
            "shed",
            "degraded",
            "lp_iterations",
            "lp_factor_reuses",
            "lp_warm_rejected",
        ] {
            *counters.entry(key).or_default() += stat(&data.after, key) - stat(&data.before, key);
        }
        server_p50.push(stat(&data.after, "p50_ms"));
        server_p99.push(stat(&data.after, "p99_ms"));
    }
    if !digest_bytes.is_empty() {
        outcome.digest = Some(fnv1a(&digest_bytes));
    }

    let n = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let waits: Vec<f64> = passes.iter().map(|p| p.runqueue_wait_s).collect();
    let steals: Vec<f64> = passes.iter().map(|p| p.steal_s).collect();
    let per_pass = |key: &str| counters.get(key).copied().unwrap_or(0.0) / n.max(1) as f64;
    let lookups = per_pass("cache_hits") + per_pass("cache_misses") + per_pass("coalesced");
    let hit_rate = if lookups > 0.0 {
        (per_pass("cache_hits") + per_pass("coalesced")) / lookups
    } else {
        0.0
    };
    let metrics = vec![
        metric("setup_s", median(&setups), setups.len()),
        metric("pass_s", median(&walls), n),
        metric("pass_cpu_s", median(&cpus), n),
        metric("latency_p50_ms", percentile(&latency, 50.0), latency.len()),
        metric("latency_p99_ms", percentile(&latency, 99.0), latency.len()),
        metric("throughput_rps", latency.len() as f64 / walls.iter().sum::<f64>(), latency.len()),
        metric("canon.encode_s", median(&encode), encode.len()),
        metric("serve.cache_hit_rate", hit_rate, n),
        metric("serve.coalesced", per_pass("coalesced"), n),
        metric("serve.solves", per_pass("solves"), n),
        metric("serve.shed", per_pass("shed"), n),
        metric("serve.degraded", per_pass("degraded"), n),
        metric("serve.lp_iterations", per_pass("lp_iterations"), n),
        metric("serve.lp_factor_reuses", per_pass("lp_factor_reuses"), n),
        metric("serve.lp_warm_rejected", per_pass("lp_warm_rejected"), n),
        metric("serve.p50_ms", median(&server_p50), n),
        metric("serve.p99_ms", median(&server_p99), n),
        metric("serve.hit_p50_ms", median(&hit), hit.len()),
        metric("serve.miss_p50_ms", median(&miss), miss.len()),
        metric("serve.miss_wait_p50_ms", median(&miss_wait), miss_wait.len()),
        metric("trace.pass_s", median(&walls), n),
        metric("host.runqueue_wait_s", median(&waits), n),
        metric("host.steal_s", median(&steals), n),
        metric("error_rate", outcome.error_rate(), outcome.attempted as usize),
        metric("passes", n as f64, n),
    ];
    Run { outcome, passes, metrics, latency_ms: latency, tracer }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeSpec {
        ServeSpec {
            scopes: vec![("comd", 4, 2), ("lulesh", 2, 2)],
            per_socket_caps: vec![30.0, 50.0, 70.0, 90.0],
            first_caps: 2,
            regrid_caps: vec![3],
            repeats: 4,
            min_requests: 1,
            min_passes: 2,
            mixes: 2,
        }
    }

    #[test]
    fn a_seed_always_yields_the_same_mix() {
        let spec = ServeSpec::mixed();
        assert_eq!(request_mixes(&spec, 7), request_mixes(&spec, 7));
        assert_ne!(request_mixes(&spec, 7), request_mixes(&spec, 8));
        let mixes = request_mixes(&spec, 7);
        assert_eq!(mixes.len(), spec.mixes);
        assert_ne!(mixes[0], mixes[1], "the mixes of a run differ");
    }

    #[test]
    fn the_mix_has_the_promised_kinds() {
        let spec = ServeSpec::mixed();
        for seed in 0..20 {
            let mix = request_mix(&spec, seed);
            let count = |k: Kind| mix.iter().filter(|r| r.kind == k).count();
            assert_eq!(mix.len(), spec.requests());
            assert_eq!(mix[0].kind, Kind::NewScope);
            assert_eq!(count(Kind::NewScope), spec.scopes.len());
            assert_eq!(count(Kind::Repeat), spec.repeats);
            assert_eq!(count(Kind::NewGrid), spec.scopes.len() * spec.regrid_caps.len());
            for (i, r) in mix.iter().enumerate() {
                let earlier = &mix[..i];
                let scope_seen = earlier.iter().any(|e| e.instance.dag == r.instance.dag);
                let repeated = earlier.iter().any(|e| e.instance == r.instance);
                match r.kind {
                    Kind::NewScope => assert!(!scope_seen),
                    Kind::NewGrid => assert!(scope_seen && !repeated),
                    Kind::Repeat => assert!(repeated),
                }
                let caps = &r.instance.caps_w;
                if r.kind == Kind::NewScope {
                    assert_eq!(caps.len(), spec.first_caps);
                }
                assert!((2..=6).contains(&caps.len()));
                assert!(caps.windows(2).all(|w| w[0] < w[1]), "caps ascend");
            }
        }
    }

    #[test]
    fn solver_errors_fail_the_gate() {
        let line = "req".to_string();
        let now = Instant::now();
        let sample = |errors: &str, results: &str| Sample {
            start: now,
            encoded: now,
            end: now,
            reply: Ok([
                ("ok", "true"),
                ("cached", "miss"),
                ("degraded", "false"),
                ("solver_errors", errors),
                ("results", results),
            ]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()),
            line: line.clone(),
        };
        let good = "640=4010000000000000,960=inf";
        let expected = HashMap::from([(line.clone(), good.to_string())]);
        assert_eq!(verdict(&sample("0", good), &expected), None);
        assert!(verdict(&sample("1", good), &expected).is_some(), "a counted error fails");
        // An error the reference shares still fails, and never becomes a
        // reference to compare against.
        let erred = HashMap::from([(line.clone(), "640=err".to_string())]);
        assert!(verdict(&sample("0", "640=err"), &erred).is_some());
        let points = [
            SweepPoint { cap_w: 640.0, schedule: Err(CoreError::Infeasible) },
            SweepPoint { cap_w: 960.0, schedule: Err(CoreError::Verification("x".into())) },
        ];
        assert!(expected_results(&points[..1]).is_ok(), "infeasible is an answer");
        assert!(expected_results(&points).is_err(), "a solver failure is not");
    }

    #[test]
    fn smoke_run_passes_the_correctness_gate() {
        let run = run(&tiny(), 3, 0.0, true);
        assert_eq!(run.outcome.failed, 0, "{:?}", run.outcome.notes);
        assert_eq!(run.outcome.attempted, 2 * tiny().requests() as u64);
        assert!(run.outcome.digest.is_some());
        let again = super::run(&tiny(), 3, 0.0, false);
        assert_eq!(again.outcome.digest, run.outcome.digest);
        assert!(run.tracer.spans().iter().any(|s| s.name == "canon.encode"));
    }
}
