//! Shared measurement machinery for the figure/table binaries.

use pcap_apps::{AppParams, Benchmark};
use pcap_core::{
    solve_decomposed, solve_sweep_exact, FixedLpOptions, SweepMode, SweepOptions, TaskFrontiers,
};
use pcap_dag::{TaskGraph, VertexKind};
use pcap_lp::{LinearAlgebra, SolveStats};
use pcap_machine::MachineSpec;
use pcap_sched::{Conductor, ConductorOptions, ConfigOnly, StaticPolicy};
use pcap_sim::{Policy, SimOptions, Simulator};

/// A single experiment's fixed parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// MPI ranks (= sockets). The paper uses 32.
    pub ranks: u32,
    /// Warm-up iterations discarded from every measurement (paper: 3).
    pub warmup_iterations: u32,
    /// Measured iterations after warm-up.
    pub measured_iterations: u32,
    /// Workload seed.
    pub seed: u64,
    /// Simulator options for the runtime policies (overheads + noise).
    pub sim: SimOptions,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            ranks: 32,
            warmup_iterations: 3,
            measured_iterations: 12,
            seed: 0x5C15,
            sim: SimOptions::default(),
        }
    }
}

impl ExperimentConfig {
    /// Total iterations to generate.
    pub fn total_iterations(&self) -> u32 {
        self.warmup_iterations + self.measured_iterations
    }

    /// Generates the benchmark trace for this experiment.
    pub fn generate(&self, bench: Benchmark) -> TaskGraph {
        bench.generate(&AppParams {
            ranks: self.ranks,
            iterations: self.total_iterations(),
            seed: self.seed,
        })
    }
}

/// Measured times (seconds over the post-warm-up region) for each method at
/// one power cap. `None` = not schedulable at that cap (paper Figures 9/10:
/// "Some benchmarks were not able to be scheduled at the lowest ...
/// constraint").
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodTimes {
    pub lp: Option<f64>,
    pub static_: Option<f64>,
    pub conductor: Option<f64>,
    pub config_only: Option<f64>,
}

/// One row of a power sweep.
#[derive(Debug, Clone, Copy)]
pub struct CapRow {
    /// Average watts per processor socket.
    pub per_socket_w: f64,
    pub times: MethodTimes,
    /// Simplex telemetry aggregated over every LP window solved at this cap
    /// (zeroed when the cap is infeasible; check `lp_stats.solves > 0`
    /// before reporting).
    pub lp_stats: SolveStats,
}

/// Performance improvement of the bound over a method, in percent:
/// `(t_method / t_lp − 1) · 100` — "the LP yields up to 41.1% improvement
/// in power-constrained performance".
pub fn improvement_pct(t_method: f64, t_lp: f64) -> f64 {
    (t_method / t_lp - 1.0) * 100.0
}

/// True when the figure binary was asked to certify every LP solve:
/// `--certify` on the command line or `PCAP_CERTIFY=1` in the environment.
/// Certification re-verifies each solution against an independently
/// computed duality certificate and cold re-solves every warm-started sweep
/// point (see `pcap_lp::certificate`); it is always on in debug/test
/// builds, this flag extends it to release-mode experiment runs.
pub fn certify_requested() -> bool {
    std::env::args().any(|a| a == "--certify")
        || std::env::var("PCAP_CERTIFY").is_ok_and(|v| v == "1")
}

/// Linear-algebra engine for the harness's LP solves: `--lp-engine=dense`
/// on the command line or `PCAP_LP_ENGINE=dense` in the environment selects
/// the dense oracle engine (the CI sparse-vs-dense differential runs the
/// figure pipeline both ways); anything else gets the sparse default.
pub fn lp_engine_requested() -> LinearAlgebra {
    let dense = std::env::args().any(|a| a == "--lp-engine=dense")
        || std::env::var("PCAP_LP_ENGINE").is_ok_and(|v| v.eq_ignore_ascii_case("dense"));
    if dense {
        LinearAlgebra::Dense
    } else {
        LinearAlgebra::Sparse
    }
}

/// Sweep engine for the harness's LP solves: `--sweep-mode=percap` on the
/// command line or `PCAP_SWEEP_MODE=percap` in the environment selects one
/// warm-started solve per cap (the differential oracle for the ramp; the CI
/// ramp-vs-percap differential runs the figure pipeline both ways);
/// anything else gets the parametric-ramp default.
pub fn sweep_mode_requested() -> SweepMode {
    let percap = std::env::args().any(|a| a == "--sweep-mode=percap")
        || std::env::var("PCAP_SWEEP_MODE").is_ok_and(|v| v.eq_ignore_ascii_case("percap"));
    if percap {
        SweepMode::PerCap
    } else {
        SweepMode::Ramp
    }
}

/// Time elapsed between the end of warm-up (the `warmup`-th `MPI_Pcontrol`)
/// and `MPI_Finalize`, given realized vertex times.
pub fn measured_region(graph: &TaskGraph, vertex_times: &[f64], warmup: u32) -> f64 {
    let mut boundary = 0.0;
    if warmup > 0 {
        let mut seen = 0;
        for &v in graph.topo_order() {
            if graph.vertex(v).kind == VertexKind::Pcontrol {
                seen += 1;
                if seen == warmup {
                    boundary = vertex_times[v.index()];
                    break;
                }
            }
        }
    }
    vertex_times[graph.finalize_vertex().index()] - boundary
}

/// Computes the LP bound and simulates the runtime policies for one
/// benchmark at one job-level cap. Set `with_config_only` to also run the
/// selection-only ablation.
pub fn evaluate_at_cap(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    cfg: &ExperimentConfig,
    per_socket_w: f64,
    with_config_only: bool,
) -> MethodTimes {
    let job_cap = per_socket_w * cfg.ranks as f64;

    let mut lp_opts = FixedLpOptions::default();
    lp_opts.lp.linear_algebra = lp_engine_requested();
    let lp = solve_decomposed(graph, machine, frontiers, job_cap, &lp_opts)
        .ok()
        .map(|s| measured_region(graph, &s.vertex_times, cfg.warmup_iterations));

    let mut times = simulate_at_cap(graph, machine, frontiers, cfg, per_socket_w, with_config_only);
    times.lp = lp;
    times
}

/// Simulates the runtime policies (everything except the LP bound) for one
/// benchmark at one cap.
fn simulate_at_cap(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    cfg: &ExperimentConfig,
    per_socket_w: f64,
    with_config_only: bool,
) -> MethodTimes {
    let job_cap = per_socket_w * cfg.ranks as f64;
    let warm = cfg.warmup_iterations;

    let run = |policy: &mut dyn Policy| -> Option<f64> {
        Simulator::new(graph, machine, cfg.sim.clone())
            .run(policy)
            .ok()
            .map(|r| measured_region(graph, &r.vertex_times, warm))
    };

    let static_ = run(&mut StaticPolicy::uniform(job_cap, cfg.ranks, machine.max_threads));
    let conductor = run(&mut Conductor::new(
        job_cap,
        cfg.ranks,
        machine.max_threads,
        frontiers.clone(),
        ConductorOptions::default(),
    ));
    let config_only = if with_config_only {
        run(&mut ConfigOnly::new(job_cap, cfg.ranks, frontiers.clone(), machine.max_threads))
    } else {
        None
    };

    MethodTimes { lp: None, static_, conductor, config_only }
}

/// Sweeps a benchmark over per-socket caps.
///
/// The LP bound for the whole grid is computed by one
/// [`pcap_core::solve_sweep`] call — the event LPs are built once per window
/// and re-solved per cap with warm-started bases, parallel across cap chunks
/// — while the simulator policies (whose runs are independent per cap and
/// dominated by event processing, not LP solving) spread over a worker pool
/// as before. Each returned row carries the solver telemetry for its cap.
pub fn evaluate_benchmark(
    bench: Benchmark,
    machine: &MachineSpec,
    cfg: &ExperimentConfig,
    per_socket_caps: &[f64],
    with_config_only: bool,
) -> Vec<CapRow> {
    evaluate_benchmark_exact(bench, machine, cfg, per_socket_caps, with_config_only).0
}

/// [`evaluate_benchmark`], additionally returning the exact frontier
/// breakpoints (job-level W, ascending) the parametric ramp crossed while
/// sweeping the grid — empty under `--sweep-mode=percap`.
pub fn evaluate_benchmark_exact(
    bench: Benchmark,
    machine: &MachineSpec,
    cfg: &ExperimentConfig,
    per_socket_caps: &[f64],
    with_config_only: bool,
) -> (Vec<CapRow>, Vec<f64>) {
    let graph = cfg.generate(bench);
    let frontiers = TaskFrontiers::build(&graph, machine);

    let job_caps: Vec<f64> = per_socket_caps.iter().map(|&w| w * cfg.ranks as f64).collect();
    let mut sweep_opts = SweepOptions::default();
    sweep_opts.fixed.lp.linear_algebra = lp_engine_requested();
    sweep_opts.mode = sweep_mode_requested();
    if certify_requested() {
        sweep_opts.certify = true;
        sweep_opts.fixed.lp.certify = true;
    }
    let sweep = solve_sweep_exact(&graph, machine, &frontiers, &job_caps, &sweep_opts);
    let lp_points = sweep.points;

    let n = per_socket_caps.len();
    let mut rows: Vec<Option<CapRow>> = vec![None; n];
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n.max(1));

    crossbeam::thread::scope(|scope| {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let (out_tx, out_rx) = crossbeam::channel::unbounded::<(usize, MethodTimes)>();
        for _ in 0..workers {
            let rx = rx.clone();
            let out = out_tx.clone();
            let graph = &graph;
            let frontiers = &frontiers;
            scope.spawn(move |_| {
                while let Ok(i) = rx.recv() {
                    let cap = per_socket_caps[i];
                    let times =
                        simulate_at_cap(graph, machine, frontiers, cfg, cap, with_config_only);
                    out.send((i, times)).unwrap();
                }
            });
        }
        drop(out_tx);
        while let Ok((i, times)) = out_rx.recv() {
            rows[i] = Some(CapRow {
                per_socket_w: per_socket_caps[i],
                times,
                lp_stats: SolveStats::default(),
            });
        }
    })
    .expect("sweep workers do not panic");

    let rows = rows
        .into_iter()
        .zip(&lp_points)
        .map(|(r, pt)| {
            let mut row = r.expect("all caps evaluated");
            match &pt.schedule {
                Ok(sched) => {
                    row.times.lp =
                        Some(measured_region(&graph, &sched.vertex_times, cfg.warmup_iterations));
                    row.lp_stats = sched.stats;
                }
                // Genuine infeasibility at a low cap renders as "-", matching
                // the paper; anything else (solver failure, certification or
                // warm-vs-cold mismatch) is a bug in the bound pipeline and
                // fails the experiment outright. The canonical-optimum phase
                // leaves no legitimate reason for a certified sweep to drop
                // a point, so there is no allowed-failure list here.
                Err(pcap_core::CoreError::Infeasible) => {}
                Err(e) => panic!(
                    "[sweep] {bench:?} at {} W/socket: LP bound failed: {e}",
                    row.per_socket_w
                ),
            }
            row
        })
        .collect();
    (rows, sweep.breakpoints)
}

/// Canonical content fingerprint of everything the LP side of a sweep
/// depends on: the machine model, each benchmark's DAG parameters, and the
/// job-level cap grid, hashed over the [`pcap_core::canon`] encodings of
/// the four per-benchmark instances. Editing a machine parameter (e.g. a
/// pcap-machine frequency table or power coefficient) changes this value
/// and therefore invalidates any cache keyed on it — which a key built
/// only from grid parameters cannot do.
pub fn sweep_fingerprint(
    machine: &MachineSpec,
    cfg: &ExperimentConfig,
    per_socket_caps: &[f64],
) -> u64 {
    let job_caps: Vec<f64> = per_socket_caps.iter().map(|&w| w * cfg.ranks as f64).collect();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let instance = pcap_core::Instance {
            machine: machine.clone(),
            dag: pcap_core::DagSpec::Bench {
                name: bench.name().to_ascii_lowercase(),
                ranks: cfg.ranks,
                iterations: cfg.total_iterations(),
                seed: cfg.seed,
            },
            caps_w: job_caps.clone(),
        };
        text.push_str(&instance.encode());
        text.push('\n');
    }
    pcap_core::canon::fnv1a(text.as_bytes())
}

/// One benchmark's sweep: the cap rows plus the exact frontier breakpoints
/// (job-level W, ascending) the parametric ramp crossed. The breakpoints
/// are the caps where the makespan-vs-cap curve kinks — between them the
/// frontier is affine. Empty under `--sweep-mode=percap`.
///
/// At production scale the union over every window's frontier runs to tens
/// of thousands of kinks per benchmark, so the cache (and this struct, when
/// it came from the cache or [`cached_sweep_exact`]) carries a bounded,
/// evenly-index-sampled subset of at most [`MAX_CACHED_BREAKPOINTS`]
/// (endpoints always included) alongside the true total; the full list is
/// available in-memory from [`pcap_core::solve_sweep_exact`].
#[derive(Debug, Clone)]
pub struct BenchSweep {
    pub bench: Benchmark,
    pub rows: Vec<CapRow>,
    /// Sampled breakpoint caps, ascending, `len() <= MAX_CACHED_BREAKPOINTS`.
    pub breakpoints: Vec<f64>,
    /// How many breakpoints the ramp actually crossed across the grid.
    pub breakpoints_total: usize,
}

/// Cap on breakpoints persisted per benchmark in the sweep cache (and
/// printed by the figure binaries): full lists reach ~57k entries on the
/// fig09 BT workload, which would dwarf the rest of the committed cache.
pub const MAX_CACHED_BREAKPOINTS: usize = 64;

/// Deterministic even-index downsample to [`MAX_CACHED_BREAKPOINTS`],
/// keeping the first and last kink. Strictly increasing input stays
/// strictly increasing (indices are strictly monotone).
fn sample_breakpoints(full: &[f64]) -> Vec<f64> {
    let k = MAX_CACHED_BREAKPOINTS;
    if full.len() <= k {
        return full.to_vec();
    }
    (0..k).map(|i| full[i * (full.len() - 1) / (k - 1)]).collect()
}

/// The standard four-benchmark sweep feeding Figures 9–15, cached on disk so
/// the figure binaries share one expensive computation. The cache key (first
/// line) encodes the experiment parameters; a mismatch recomputes.
pub fn cached_sweep(
    path: &std::path::Path,
    machine: &MachineSpec,
    cfg: &ExperimentConfig,
    per_socket_caps: &[f64],
) -> Vec<(Benchmark, Vec<CapRow>)> {
    cached_sweep_exact(path, machine, cfg, per_socket_caps)
        .into_iter()
        .map(|b| (b.bench, b.rows))
        .collect()
}

/// [`cached_sweep`], full fidelity: rows plus per-benchmark frontier
/// breakpoints.
pub fn cached_sweep_exact(
    path: &std::path::Path,
    machine: &MachineSpec,
    cfg: &ExperimentConfig,
    per_socket_caps: &[f64],
) -> Vec<BenchSweep> {
    // `v6`: after the key, a `#columns` line names every row column, one
    // per `SolveStats` field among them, and rows are parsed by column
    // name. The sweep engine is in the key (a per-cap differential run must
    // not reuse a ramp cache or vice versa) and in a per-row column; one
    // `#breakpoints` line per benchmark completes the format. Caches
    // written by earlier versions, for another counter table, or against a
    // since-edited machine model mismatch and recompute. Warm-up/measured
    // stay in the key separately because the split (not just the total)
    // shifts the measured-region boundary.
    let engine = match lp_engine_requested() {
        LinearAlgebra::Sparse => "sparse",
        LinearAlgebra::Dense => "dense",
    };
    let mode = match sweep_mode_requested() {
        SweepMode::Ramp => "ramp",
        SweepMode::PerCap => "percap",
    };
    let key = format!(
        "#sweep v6 fp={:016x} engine={} mode={} ranks={} warmup={} measured={} seed={} caps={:?}",
        sweep_fingerprint(machine, cfg, per_socket_caps),
        engine,
        mode,
        cfg.ranks,
        cfg.warmup_iterations,
        cfg.measured_iterations,
        cfg.seed,
        per_socket_caps
    );
    if let Ok(text) = std::fs::read_to_string(path) {
        if text.lines().next() == Some(key.as_str()) {
            if let Some(parsed) = parse_sweep(&text, per_socket_caps) {
                return parsed;
            }
            // A matching key with an unparsable body means the cache was
            // truncated or corrupted mid-write, or its columns are another
            // counter table's: fall through and re-solve.
            eprintln!("[sweep] cache at {} does not parse; recomputing", path.display());
        } else if text.starts_with("#sweep ") {
            eprintln!(
                "[sweep] cache at {} is stale (old format or parameters); recomputing",
                path.display()
            );
        }
    }
    let mut out = Vec::new();
    let mut text = format!("{key}\n#columns\t{}\n", sweep_columns().join("\t"));
    for bench in Benchmark::ALL {
        eprintln!("[sweep] running {} ...", bench.name());
        let (rows, breakpoints) =
            evaluate_benchmark_exact(bench, machine, cfg, per_socket_caps, true);
        for r in &rows {
            let f = |v: Option<f64>| v.map(|x| format!("{x:.9}")).unwrap_or_else(|| "-".into());
            let t = &r.times;
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{mode}",
                bench.name(),
                r.per_socket_w,
                f(t.lp),
                f(t.static_),
                f(t.conductor),
                f(t.config_only),
            ));
            for (_, value) in r.lp_stats.fields() {
                text.push_str(&format!("\t{value}"));
            }
            text.push('\n');
        }
        // `{}` is Rust's shortest-round-trip float formatting: the parsed
        // breakpoints are bit-identical to the computed ones. The line
        // carries the true total first, then the bounded sample.
        let breakpoints_total = breakpoints.len();
        let sample = sample_breakpoints(&breakpoints);
        text.push_str(&format!("#breakpoints\t{}\t{breakpoints_total}", bench.name()));
        for b in &sample {
            text.push_str(&format!("\t{b}"));
        }
        text.push('\n');
        out.push(BenchSweep { bench, rows, breakpoints: sample, breakpoints_total });
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(path, text);
    out
}

/// The row columns of a v6 cache, in writing order: the benchmark, the
/// cap, the four method times, the sweep mode, then every `SolveStats`
/// field by its name.
fn sweep_columns() -> Vec<&'static str> {
    let head = ["bench", "w_per_socket", "lp", "static", "conductor", "config_only", "mode"];
    head.into_iter().chain(SolveStats::FIELDS.iter().copied()).collect()
}

/// Parses a v6 cache body, returning `None` unless it is **complete**: a
/// file truncated at a line boundary (e.g. a crashed writer) or a row with
/// mangled telemetry parses cleanly line-by-line, and silently returning
/// the partial grid would feed the figure binaries short data. The
/// `#columns` line must name every column exactly once; every benchmark
/// must then appear with exactly the requested cap grid, in order, carry
/// its `#breakpoints` line, and every row value — including the explicit
/// sweep-mode column — must parse strictly under its column's name.
fn parse_sweep(text: &str, expected_caps: &[f64]) -> Option<Vec<BenchSweep>> {
    let mut lines = text.lines().skip(1);
    let header: Vec<&str> = lines.next()?.strip_prefix("#columns\t")?.split('\t').collect();
    let columns = sweep_columns();
    if header.len() != columns.len() || !columns.iter().all(|c| header.contains(c)) {
        return None;
    }
    let mut map: Vec<BenchSweep> = Vec::new();
    let mut bps: Vec<(Benchmark, usize, Vec<f64>)> = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("#breakpoints\t") {
            let mut cols = rest.split('\t');
            let name = cols.next()?;
            let bench = Benchmark::ALL.iter().copied().find(|b| b.name() == name)?;
            let total = cols.next()?.parse::<usize>().ok()?;
            let mut list = Vec::new();
            for c in cols {
                list.push(c.parse::<f64>().ok()?);
            }
            // Totals at or under the sampling cap must list every value;
            // larger totals list exactly the cap-sized sample.
            if list.len() != total.min(MAX_CACHED_BREAKPOINTS) {
                return None;
            }
            if bps.iter().any(|(b, _, _)| *b == bench) {
                return None; // duplicate breakpoint line
            }
            bps.push((bench, total, list));
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != header.len() {
            return None;
        }
        let time = |s: &str| -> Option<Option<f64>> {
            if s == "-" {
                Some(None)
            } else {
                s.parse::<f64>().ok().map(Some)
            }
        };
        let mut bench = None;
        let mut row = CapRow {
            per_socket_w: 0.0,
            times: MethodTimes::default(),
            lp_stats: SolveStats::default(),
        };
        for (&name, &value) in header.iter().zip(&cols) {
            match name {
                "bench" => bench = Benchmark::ALL.iter().copied().find(|b| b.name() == value),
                "w_per_socket" => row.per_socket_w = value.parse().ok()?,
                "lp" => row.times.lp = time(value)?,
                "static" => row.times.static_ = time(value)?,
                "conductor" => row.times.conductor = time(value)?,
                "config_only" => row.times.config_only = time(value)?,
                // The mode column must name a real engine.
                "mode" if value == "ramp" || value == "percap" => {}
                "mode" => return None,
                // Strict per type: garbage in a flag is corruption, not
                // "false".
                field => row.lp_stats.set_field(field, value)?,
            }
        }
        let bench = bench?;
        match map.iter_mut().find(|b| b.bench == bench) {
            Some(b) => b.rows.push(row),
            None => map.push(BenchSweep {
                bench,
                rows: vec![row],
                breakpoints: Vec::new(),
                breakpoints_total: 0,
            }),
        }
    }
    // Completeness: all four benchmarks, each with the full requested cap
    // grid in writing order (caps round-trip exactly through `{}`) and its
    // breakpoint line.
    if map.len() != Benchmark::ALL.len() || bps.len() != Benchmark::ALL.len() {
        return None;
    }
    for b in &mut map {
        if b.rows.len() != expected_caps.len()
            || b.rows.iter().zip(expected_caps).any(|(r, &c)| r.per_socket_w != c)
        {
            return None;
        }
        let (_, total, list) = bps.iter().find(|(bench, _, _)| *bench == b.bench)?;
        b.breakpoints_total = *total;
        b.breakpoints = list.clone();
    }
    Some(map)
}

/// Default location of the shared sweep cache: `$PCAP_RESULTS_DIR/sweep.tsv`
/// when the override is set, otherwise `results/sweep.tsv` under the
/// workspace root. Resolving against the workspace root (not the current
/// working directory) keeps the figure binaries sharing one cache no matter
/// where they are launched from.
pub fn default_sweep_path() -> std::path::PathBuf {
    match std::env::var("PCAP_RESULTS_DIR") {
        Ok(dir) if !dir.is_empty() => std::path::PathBuf::from(dir).join("sweep.tsv"),
        _ => workspace_root().join("results").join("sweep.tsv"),
    }
}

/// The workspace root, resolved from this crate's compiled-in manifest dir
/// (`crates/pcap-bench` → two levels up).
fn workspace_root() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).to_path_buf()
}

/// Default per-socket cap grid used by Figures 9 and 10 (the paper sweeps
/// 30–80 W per socket).
pub const SWEEP_CAPS: [f64; 6] = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0];

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_core::solve_sweep;
    use pcap_lp::StatValue;

    #[test]
    fn cached_sweep_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pcap-sweep-{}", std::process::id()));
        let path = dir.join("sweep.tsv");
        let m = MachineSpec::e5_2670();
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let caps = [50.0, 80.0];
        let first = cached_sweep(&path, &m, &cfg, &caps);
        let second = cached_sweep(&path, &m, &cfg, &caps);
        assert_eq!(first.len(), second.len());
        for ((b1, r1), (b2, r2)) in first.iter().zip(&second) {
            assert_eq!(b1, b2);
            for (a, b) in r1.iter().zip(r2) {
                assert_eq!(a.per_socket_w, b.per_socket_w);
                assert_eq!(a.times.lp.is_some(), b.times.lp.is_some());
                if let (Some(x), Some(y)) = (a.times.lp, b.times.lp) {
                    assert!((x - y).abs() < 1e-6);
                }
                // Every telemetry field survives the TSV round trip, bit
                // for bit.
                let (fa, fb) = (a.lp_stats.fields(), b.lp_stats.fields());
                assert_eq!(fa.len(), SolveStats::FIELDS.len());
                for ((name, x), (_, y)) in fa.iter().zip(&fb) {
                    let same = match (x, y) {
                        (StatValue::F64(x), StatValue::F64(y)) => x.to_bits() == y.to_bits(),
                        _ => x == y,
                    };
                    assert!(same, "{name}: {x} written, {y} read back");
                }
                assert!(a.lp_stats.basis_nnz > 0, "nnz telemetry missing");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache truncated at a line boundary must be rejected, not returned
    /// as a silently shorter grid — and `cached_sweep` must then recompute
    /// and rewrite the full file.
    #[test]
    fn truncated_cache_is_rejected_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("pcap-sweep-trunc-{}", std::process::id()));
        let path = dir.join("sweep.tsv");
        let m = MachineSpec::e5_2670();
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let caps = [50.0, 80.0];
        let full = cached_sweep(&path, &m, &cfg, &caps);
        let text = std::fs::read_to_string(&path).unwrap();

        // Drop the last data line: still parses line-by-line, but the grid
        // is short — parse_sweep must reject it.
        let truncated: String =
            text.lines().take(text.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        assert!(parse_sweep(&truncated, &caps).is_none(), "truncated cache must not parse");
        std::fs::write(&path, &truncated).unwrap();
        let recomputed = cached_sweep(&path, &m, &cfg, &caps);
        assert_eq!(recomputed.len(), full.len());
        for (b, rows) in &recomputed {
            assert_eq!(rows.len(), caps.len(), "{} grid incomplete after recompute", b.name());
        }
        // The rewritten cache is whole again.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), text.lines().count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A v6 body over `caps` for all four benchmarks: every row carries
    /// `warm` in `warm_started`, `mode` in the mode column and one ramp
    /// breakpoint; every benchmark has a one-value breakpoint line.
    fn v6_body(caps: &[f64], warm: &str, mode: &str) -> String {
        let mut text = format!("#key\n#columns\t{}\n", sweep_columns().join("\t"));
        for bench in Benchmark::ALL {
            for cap in caps {
                text.push_str(&format!("{}\t{cap}\t1.0\t1.1\t1.2\t-\t{mode}", bench.name()));
                for &field in SolveStats::FIELDS {
                    let value = match field {
                        "warm_started" => warm,
                        "ramp_breakpoints" => "1",
                        _ => "0",
                    };
                    text.push_str(&format!("\t{value}"));
                }
                text.push('\n');
            }
            text.push_str(&format!("#breakpoints\t{}\t1\t205.5\n", bench.name()));
        }
        text
    }

    /// Garbage in the `warm_started` column used to parse as `false`; it
    /// must reject the cache instead. Same for a bogus sweep-mode column.
    #[test]
    fn mangled_telemetry_is_rejected() {
        let caps = [50.0, 80.0];
        let f = |warm: &str, mode: &str| v6_body(&caps, warm, mode);
        let parsed = parse_sweep(&f("1", "ramp"), &caps).expect("well-formed cache must parse");
        assert!(parsed.iter().all(|b| b.breakpoints == [205.5] && b.breakpoints_total == 1));
        assert!(parsed.iter().all(|b| b.rows[0].lp_stats.ramp_breakpoints == 1));
        assert!(parsed.iter().all(|b| b.rows[0].lp_stats.warm_started));
        // A breakpoint line whose count disagrees with its values is
        // corruption, not a short list.
        let miscounted = f("1", "ramp").replace("\t1\t205.5", "\t2\t205.5");
        assert!(parse_sweep(&miscounted, &caps).is_none(), "bad breakpoint count must reject");
        assert!(parse_sweep(&f("1", "percap"), &caps).is_some(), "percap mode must parse");
        assert!(parse_sweep(&f("x", "ramp"), &caps).is_none(), "garbage warm_started must reject");
        assert!(parse_sweep(&f("", "ramp"), &caps).is_none(), "empty warm_started must reject");
        assert!(parse_sweep(&f("1", "turbo"), &caps).is_none(), "unknown mode must reject");
        assert!(parse_sweep(&f("1", ""), &caps).is_none(), "empty mode must reject");
        // A cap grid disagreeing with the request is also a stale cache.
        assert!(parse_sweep(&f("0", "ramp"), &[50.0]).is_none(), "extra caps must reject");
        assert!(
            parse_sweep(&f("0", "ramp"), &[50.0, 80.0, 90.0]).is_none(),
            "missing caps must reject"
        );
        // A header naming a column the counter table lacks is another
        // table's cache.
        let renamed = f("1", "ramp").replacen("\tsolves\t", "\tsolved\t", 1);
        assert!(parse_sweep(&renamed, &caps).is_none(), "unknown column must reject");
    }

    /// Migration: a v5-era cache — old key line, 19 positional columns, no
    /// `#columns` line — must be rejected by the parser and regenerated
    /// (not silently accepted) by `cached_sweep_exact`. This is the same
    /// contract the store's `pcaps1`→`pcaps2` migration pins.
    #[test]
    fn v5_cache_is_rejected_and_regenerated() {
        let caps = [50.0, 80.0];
        let mut v5 = String::from(
            "#sweep v5 fp=0123456789abcdef engine=sparse mode=ramp ranks=2 warmup=1 \
             measured=1 seed=23573 caps=[50.0, 80.0]\n",
        );
        for bench in Benchmark::ALL {
            for cap in caps {
                v5.push_str(&format!(
                    "{}\t{cap}\t1.0\t1.1\t1.2\t-\t10\t4\t1\t0.001000\t1\t2\t0\t30\t36\tramp\t1\t2\t0\n",
                    bench.name(),
                ));
            }
            v5.push_str(&format!("#breakpoints\t{}\t1\t205.5\n", bench.name()));
        }
        assert!(parse_sweep(&v5, &caps).is_none(), "v5 rows must not parse as v6");

        let dir = std::env::temp_dir().join(format!("pcap-sweep-v5mig-{}", std::process::id()));
        let path = dir.join("sweep.tsv");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &v5).unwrap();
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let m = MachineSpec::e5_2670();
        let out = cached_sweep_exact(&path, &m, &cfg, &caps);
        assert_eq!(out.len(), Benchmark::ALL.len());
        for b in &out {
            assert_eq!(b.rows.len(), caps.len());
        }
        let rewritten = std::fs::read_to_string(&path).unwrap();
        let mut lines = rewritten.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("#sweep v6 "), "cache must be rewritten as v6: {first}");
        assert!(first.contains(" mode="), "v6 key must carry the sweep mode: {first}");
        let columns = lines.next().unwrap();
        for field in SolveStats::FIELDS {
            assert!(columns.split('\t').any(|c| c == *field), "no {field} column: {columns}");
        }
        assert!(
            rewritten.lines().filter(|l| l.starts_with("#breakpoints\t")).count()
                == Benchmark::ALL.len(),
            "v6 cache must carry one breakpoint line per benchmark"
        );
        // And the rewritten cache round-trips, breakpoints included.
        let again = cached_sweep_exact(&path, &m, &cfg, &caps);
        for (a, b) in out.iter().zip(&again) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.breakpoints_total, b.breakpoints_total);
            assert_eq!(a.breakpoints.len(), b.breakpoints.len());
            assert!(a.breakpoints.len() <= MAX_CACHED_BREAKPOINTS);
            for (x, y) in a.breakpoints.iter().zip(&b.breakpoints) {
                assert_eq!(x.to_bits(), y.to_bits(), "breakpoints must round-trip bitwise");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cache key must react to the machine model, not just the grid
    /// header: editing pcap-machine parameters has to invalidate a stale
    /// `results/sweep.tsv`.
    #[test]
    fn sweep_fingerprint_tracks_machine_model_and_grid() {
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let caps = [50.0, 80.0];
        let base = sweep_fingerprint(&MachineSpec::e5_2670(), &cfg, &caps);
        // Deterministic across calls.
        assert_eq!(base, sweep_fingerprint(&MachineSpec::e5_2670(), &cfg, &caps));
        // A different machine model changes the key.
        assert_ne!(base, sweep_fingerprint(&MachineSpec::e5_2650l(), &cfg, &caps));
        // So does a perturbed power coefficient on the *same* model.
        let mut tweaked = MachineSpec::e5_2670();
        tweaked.power.p_idle += 0.5;
        assert_ne!(base, sweep_fingerprint(&tweaked, &cfg, &caps));
        // And the cap grid / workload parameters.
        assert_ne!(base, sweep_fingerprint(&MachineSpec::e5_2670(), &cfg, &[50.0]));
        let reseeded = ExperimentConfig { seed: cfg.seed + 1, ..cfg.clone() };
        assert_ne!(base, sweep_fingerprint(&MachineSpec::e5_2670(), &reseeded, &caps));
    }

    /// End-to-end: a cache written against one machine model is recomputed
    /// (not reused) when the model changes.
    #[test]
    fn cache_written_for_one_machine_is_stale_for_another() {
        let dir = std::env::temp_dir().join(format!("pcap-sweep-machine-{}", std::process::id()));
        let path = dir.join("sweep.tsv");
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let caps = [50.0, 80.0];
        let _ = cached_sweep(&path, &MachineSpec::e5_2670(), &cfg, &caps);
        let first_key = std::fs::read_to_string(&path).unwrap().lines().next().unwrap().to_string();
        let _ = cached_sweep(&path, &MachineSpec::e5_2650l(), &cfg, &caps);
        let second_key =
            std::fs::read_to_string(&path).unwrap().lines().next().unwrap().to_string();
        assert_ne!(first_key, second_key, "machine change must rewrite the cache key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_sweep_path_honors_env_override_and_workspace_root() {
        // Without the override, the path is absolute (workspace-rooted),
        // not relative to whatever CWD the binary happens to run in.
        std::env::remove_var("PCAP_RESULTS_DIR");
        let default = default_sweep_path();
        assert!(default.is_absolute(), "default path must not be CWD-relative: {default:?}");
        assert!(default.ends_with("results/sweep.tsv"), "{default:?}");
        let root = default.parent().unwrap().parent().unwrap();
        assert!(root.join("Cargo.toml").exists(), "{root:?} should be the workspace root");

        std::env::set_var("PCAP_RESULTS_DIR", "/tmp/pcap-override");
        let overridden = default_sweep_path();
        std::env::remove_var("PCAP_RESULTS_DIR");
        assert_eq!(overridden, std::path::PathBuf::from("/tmp/pcap-override/sweep.tsv"));
    }

    #[test]
    fn measured_region_subtracts_warmup() {
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 2,
            ..Default::default()
        };
        let g = cfg.generate(Benchmark::CoMD);
        let m = MachineSpec::e5_2670();
        let fr = TaskFrontiers::build(&g, &m);
        let s = solve_decomposed(&g, &m, &fr, 2.0 * 60.0, &FixedLpOptions::default()).unwrap();
        let full = measured_region(&g, &s.vertex_times, 0);
        let trimmed = measured_region(&g, &s.vertex_times, 1);
        assert!(trimmed < full);
        assert!(trimmed > 0.0);
        // Warm-up is one of three iterations: roughly a third is removed.
        let ratio = trimmed / full;
        assert!((0.45..0.9).contains(&ratio), "ratio {ratio}");
    }

    /// Acceptance check for the sweep API: on CoMD at the Figure 9
    /// experiment configuration, the warm-started parallel sweep returns
    /// makespans bitwise identical to the sequential cold-start loop.
    #[test]
    fn sweep_api_matches_cold_loop_on_fig09_comd() {
        let cfg = ExperimentConfig::default(); // fig09 configuration
        let g = cfg.generate(Benchmark::CoMD);
        let m = MachineSpec::e5_2670();
        let fr = TaskFrontiers::build(&g, &m);
        // 8 per-socket caps spanning and exceeding the paper's 30–80 W range.
        let caps: Vec<f64> = (0..8).map(|k| (30.0 + 10.0 * k as f64) * cfg.ranks as f64).collect();
        let pts = solve_sweep(&g, &m, &fr, &caps, &SweepOptions::default());
        assert_eq!(pts.len(), caps.len());
        for (pt, &cap) in pts.iter().zip(&caps) {
            let cold = solve_decomposed(&g, &m, &fr, cap, &FixedLpOptions::default());
            match (&pt.schedule, &cold) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.makespan_s.to_bits(),
                        b.makespan_s.to_bits(),
                        "cap {cap}: sweep {} vs cold {}",
                        a.makespan_s,
                        b.makespan_s
                    );
                    assert!(a.stats.iterations > 0, "cap {cap}: no iterations recorded");
                    assert!(a.stats.wall_time_s > 0.0, "cap {cap}: no wall time recorded");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("feasibility mismatch at cap {cap}"),
            }
        }
    }

    /// Regression: this small CoMD configuration has a degenerate optimum
    /// in its second window where warm and cold pivot paths used to stop at
    /// different (equally optimal) bases whose refined makespans differed
    /// in the last ulp. The canonical-optimum phase must collapse both onto
    /// the same vertex, so a certified sweep passes the strict bitwise gate
    /// with every solve canonicalized — no ulp allowance anywhere.
    #[test]
    fn certified_sweep_is_exact_at_degenerate_optima() {
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let m = MachineSpec::e5_2670();
        let g = cfg.generate(Benchmark::CoMD);
        let fr = TaskFrontiers::build(&g, &m);
        let caps: Vec<f64> = [50.0, 80.0].iter().map(|w| w * cfg.ranks as f64).collect();
        let mut opts = SweepOptions { certify: true, ..Default::default() };
        opts.fixed.lp.certify = true;
        for pt in solve_sweep(&g, &m, &fr, &caps, &opts) {
            let s = pt.schedule.unwrap_or_else(|e| panic!("cap {}: {e}", pt.cap_w));
            assert!(s.makespan_s > 0.0);
            assert_eq!(
                s.stats.certified, s.stats.solves,
                "cap {}: every solve must carry a duality certificate",
                pt.cap_w
            );
            assert_eq!(
                s.stats.canonicalized, s.stats.solves,
                "cap {}: every solve must reach the canonical vertex",
                pt.cap_w
            );
        }
    }

    #[test]
    fn evaluate_benchmark_populates_solver_telemetry() {
        let cfg = ExperimentConfig {
            ranks: 2,
            warmup_iterations: 1,
            measured_iterations: 1,
            ..Default::default()
        };
        let m = MachineSpec::e5_2670();
        let rows = evaluate_benchmark(Benchmark::CoMD, &m, &cfg, &[50.0, 80.0], false);
        for r in &rows {
            assert!(r.times.lp.is_some(), "cap {} unexpectedly infeasible", r.per_socket_w);
            assert!(r.lp_stats.solves > 0, "cap {}: no solves recorded", r.per_socket_w);
            assert!(r.lp_stats.iterations > 0, "cap {}: no iterations", r.per_socket_w);
            assert!(r.lp_stats.wall_time_s > 0.0, "cap {}: no wall time", r.per_socket_w);
        }
    }

    #[test]
    fn evaluate_at_cap_orders_methods_sanely() {
        let cfg = ExperimentConfig {
            ranks: 4,
            warmup_iterations: 1,
            measured_iterations: 2,
            ..Default::default()
        };
        let g = cfg.generate(Benchmark::BtMz);
        let m = MachineSpec::e5_2670();
        let fr = TaskFrontiers::build(&g, &m);
        let t = evaluate_at_cap(&g, &m, &fr, &cfg, 40.0, true);
        let (lp, st) = (t.lp.unwrap(), t.static_.unwrap());
        assert!(lp <= st * 1.001, "LP {lp} must not exceed Static {st}");
    }
}
