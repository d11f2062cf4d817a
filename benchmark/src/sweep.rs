//! The sweep workloads: one pass solves an application's LP bound over a
//! cap grid with the parametric ramp, and on `comd-fig09` and `bt-fig09`
//! also replays the Static and Conductor runtimes at every cap, as the
//! figure pipeline does.

use std::time::Instant;

use pcap_apps::{AppParams, Benchmark};
use pcap_core::canon::fnv1a;
use pcap_core::decompose::windows_at_syncs;
use pcap_core::{
    solve_sweep_exact, total_stats, CoreError, CoreResult, LpSchedule, SweepContext, SweepMode,
    SweepOptions, SweepPoint, TaskFrontiers, WindowLp, WindowSolution,
};
use pcap_dag::TaskGraph;
use pcap_lp::{Basis, SolveStats};
use pcap_machine::MachineSpec;
use pcap_sched::{Conductor, ConductorOptions, StaticPolicy};
use pcap_sim::{Policy, SimOptions, SimResult, Simulator};

use crate::report::{metric, Metric, Outcome, PassRecord, Run};
use crate::stats::{measure, median, percentile, Interval};
use crate::trace::{Span, Tracer};

/// The caps of the paper's Fig. 9, in average watts per socket.
const FIG09_CAPS: [f64; 6] = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0];

/// One sweep workload's fixed shape; the run seed picks the application
/// instance.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub bench: Benchmark,
    pub ranks: u32,
    pub iterations: u32,
    /// Average watts per socket; job caps are these times `ranks`.
    pub per_socket_caps: Vec<f64>,
    /// Replay Static and Conductor at every cap after the sweep.
    pub replay: bool,
    /// Passes made even when the time budget is spent after fewer.
    pub min_passes: usize,
}

impl SweepSpec {
    /// CoMD, 32 ranks, 16 caps at 25–100 W/socket in 5 W steps.
    pub fn comd_dense16() -> SweepSpec {
        SweepSpec {
            bench: Benchmark::CoMD,
            ranks: 32,
            iterations: 3,
            per_socket_caps: (0..16).map(|k| 25.0 + 5.0 * k as f64).collect(),
            replay: false,
            min_passes: 5,
        }
    }

    /// CoMD as the fig09 pipeline runs it: 32 ranks, 3 warm-up plus 12
    /// measured iterations, the fig09 caps, sweep plus runtime replays.
    pub fn comd_fig09() -> SweepSpec {
        SweepSpec {
            bench: Benchmark::CoMD,
            ranks: 32,
            iterations: 15,
            per_socket_caps: FIG09_CAPS.to_vec(),
            replay: true,
            min_passes: 3,
        }
    }

    /// BT-MZ, 16 ranks, the fig09 caps, sweep plus runtime replays. Not a
    /// listed workload: on many seeds it fails the gate (see README.md).
    pub fn bt_fig09() -> SweepSpec {
        SweepSpec {
            bench: Benchmark::BtMz,
            ranks: 16,
            iterations: 3,
            per_socket_caps: FIG09_CAPS.to_vec(),
            replay: true,
            min_passes: 3,
        }
    }

    fn job_caps(&self) -> Vec<f64> {
        self.per_socket_caps.iter().map(|w| w * self.ranks as f64).collect()
    }

    fn generate(&self, seed: u64) -> TaskGraph {
        self.bench.generate(&AppParams { ranks: self.ranks, iterations: self.iterations, seed })
    }
}

/// The sweep the timed passes run: single-threaded parametric ramp, so a
/// pass's layer times add up to the pass.
fn pass_options() -> SweepOptions {
    SweepOptions { workers: 1, mode: SweepMode::Ramp, ..SweepOptions::default() }
}

/// One runtime replay's result: the measured makespan's bits, or `None`
/// when the simulator could not run the policy at that cap.
type ReplayBits = Option<u64>;

/// What a pass produced, in comparable form.
#[derive(Debug)]
struct PassOutput {
    points: Vec<SweepPoint>,
    breakpoints: Vec<f64>,
    replays: Vec<(ReplayBits, ReplayBits)>,
}

/// A cap's expected answer: makespan bits and vertex-time bits, or `None`
/// when the cap is infeasible.
type PointBits = Option<(u64, Vec<u64>)>;

fn point_bits(schedule: &LpSchedule) -> (u64, Vec<u64>) {
    (schedule.makespan_s.to_bits(), schedule.vertex_times.iter().map(|t| t.to_bits()).collect())
}

/// The independent answers every timed pass is compared to.
struct Reference {
    points: Vec<PointBits>,
    replays: Vec<(ReplayBits, ReplayBits)>,
}

/// Certified cold per-cap sweep: no warm start, no ramp, and an LP duality
/// certificate on every solve. A cap whose reference solve fails with
/// anything but infeasibility leaves nothing to compare against and counts
/// as a failure of every pass.
fn reference(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    spec: &SweepSpec,
) -> Result<Reference, String> {
    let mut opts = SweepOptions {
        workers: 1,
        warm_start: false,
        certify: true,
        mode: SweepMode::PerCap,
        ..SweepOptions::default()
    };
    opts.fixed.lp.certify = true;
    let caps = spec.job_caps();
    let sweep = solve_sweep_exact(graph, machine, frontiers, &caps, &opts);
    let points = sweep
        .points
        .iter()
        .map(|p| match &p.schedule {
            Ok(s) => Ok(Some(point_bits(s))),
            Err(CoreError::Infeasible) => Ok(None),
            Err(e) => Err(format!("reference solve at {} W failed: {e}", p.cap_w)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut replays = Vec::new();
    if spec.replay {
        for &cap in &caps {
            let (s, c) = replay_pair(graph, machine, frontiers, spec.ranks, cap);
            for (name, run) in [("static", &s), ("conductor", &c)] {
                if run.as_ref().is_some_and(|r| !r.respects_cap(cap)) {
                    return Err(format!("{name} replay at {cap} W exceeds the job cap"));
                }
            }
            replays.push((bits(&s), bits(&c)));
        }
    }
    Ok(Reference { points, replays })
}

/// Runs one policy to completion; `None` when the simulator cannot run it.
fn replay(graph: &TaskGraph, machine: &MachineSpec, policy: &mut dyn Policy) -> Option<SimResult> {
    Simulator::new(graph, machine, SimOptions::default()).run(policy).ok()
}

fn bits(run: &Option<SimResult>) -> ReplayBits {
    run.as_ref().map(|r| r.makespan_s.to_bits())
}

/// Static and Conductor at one job cap, as the figure pipeline runs them.
fn replay_pair(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    ranks: u32,
    cap: f64,
) -> (Option<SimResult>, Option<SimResult>) {
    (
        replay_static(graph, machine, ranks, cap),
        replay_conductor(graph, machine, frontiers, ranks, cap),
    )
}

fn replay_static(
    graph: &TaskGraph,
    machine: &MachineSpec,
    ranks: u32,
    cap: f64,
) -> Option<SimResult> {
    replay(graph, machine, &mut StaticPolicy::uniform(cap, ranks, machine.max_threads))
}

fn replay_conductor(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    ranks: u32,
    cap: f64,
) -> Option<SimResult> {
    let opts = ConductorOptions::default();
    let mut policy = Conductor::new(cap, ranks, machine.max_threads, frontiers.clone(), opts);
    replay(graph, machine, &mut policy)
}

/// How a pass compares to the reference.
#[derive(Debug, Default, PartialEq)]
struct Verdict {
    /// The pass's cap points plus its runtime replays.
    attempted: u64,
    /// Operations whose output differs: a cap's makespan, vertex times or
    /// feasibility, or a replay's makespan.
    mismatches: Vec<String>,
    /// Job caps whose makespan matches but whose vertex times do not: the
    /// same bound reached at another optimal vertex, which breaks the
    /// solver's canonical-vertex invariant. Each is also a mismatch; this
    /// list feeds `lp.vertex_divergences`, so the kind of failure shows.
    divergent_caps: Vec<f64>,
}

fn check(reference: &Reference, out: &PassOutput) -> Verdict {
    let mut v = Verdict::default();
    for (expected, got) in reference.points.iter().zip(&out.points) {
        let cap = got.cap_w;
        match (expected, &got.schedule) {
            (Some((makespan, times)), Ok(s)) if s.makespan_s.to_bits() == *makespan => {
                if point_bits(s).1 != *times {
                    v.divergent_caps.push(cap);
                    v.mismatches.push(format!("vertex times at {cap} W, makespan equal"));
                }
            }
            (None, Err(CoreError::Infeasible)) => {}
            (Some(_), Ok(_)) => v.mismatches.push(format!("makespan at {cap} W")),
            (_, Err(e)) => v.mismatches.push(format!("at {cap} W: {e}")),
            (None, Ok(_)) => v.mismatches.push(format!("feasible at {cap} W, reference is not")),
        }
    }
    if reference.points.len() != out.points.len() {
        v.mismatches.push(format!(
            "{} caps, reference has {}",
            out.points.len(),
            reference.points.len()
        ));
    }
    for (k, (expected, got)) in reference.replays.iter().zip(&out.replays).enumerate() {
        if expected.0 != got.0 {
            v.mismatches.push(format!("static replay at cap {k}"));
        }
        if expected.1 != got.1 {
            v.mismatches.push(format!("conductor replay at cap {k}"));
        }
    }
    if reference.replays.len() != out.replays.len() {
        v.mismatches.push(format!(
            "{} replays, reference has {}",
            out.replays.len(),
            reference.replays.len()
        ));
    }
    v.attempted = (reference.points.len() + 2 * reference.replays.len()) as u64;
    v
}

/// FNV-1a over each point's makespan bits (all ones for an infeasible cap)
/// followed by the breakpoint bits.
fn digest(out: &PassOutput) -> u64 {
    let mut bytes = Vec::new();
    for p in &out.points {
        let bits = p.makespan_s().map_or(u64::MAX, f64::to_bits);
        bytes.extend_from_slice(&bits.to_le_bytes());
    }
    for b in &out.breakpoints {
        bytes.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// What a pass sets up before it sweeps: the application DAG, its
/// frontiers, and the window LPs.
fn setup(
    spec: &SweepSpec,
    machine: &MachineSpec,
    seed: u64,
) -> (TaskGraph, TaskFrontiers, SweepContext) {
    let graph = spec.generate(seed);
    let frontiers = TaskFrontiers::build(&graph, machine);
    let ctx = SweepContext::new(&graph, &frontiers, pass_options());
    (graph, frontiers, ctx)
}

/// Set-ups timed before each untraced pass for `setup_s`.
const SETUPS_PER_PASS: usize = 8;

/// Wall times of [`SETUPS_PER_PASS`] set-ups made back to back. Taken
/// before every pass, the samples spread over the whole run as the passes
/// do, so a few seconds of a slower host move their median no more than
/// they move `pass_s`.
fn setup_samples(spec: &SweepSpec, machine: &MachineSpec, seed: u64) -> Vec<f64> {
    (0..SETUPS_PER_PASS).map(|_| measure(|| setup(spec, machine, seed)).1.wall_s).collect()
}

/// Untraced pass: set up, then time the sweep and the replays.
fn plain_pass(spec: &SweepSpec, machine: &MachineSpec, seed: u64) -> (PassOutput, Interval) {
    let caps = spec.job_caps();
    let (graph, frontiers, mut ctx) = setup(spec, machine, seed);
    let (out, pass) = measure(|| {
        let sweep = ctx.solve_grid_exact(&frontiers, &caps);
        let replays = if spec.replay {
            caps.iter()
                .map(|&cap| {
                    let (s, c) = replay_pair(&graph, machine, &frontiers, spec.ranks, cap);
                    (bits(&s), bits(&c))
                })
                .collect()
        } else {
            Vec::new()
        };
        PassOutput { points: sweep.points, breakpoints: sweep.breakpoints, replays }
    });
    (out, pass)
}

/// A traced pass's counts that no span carries.
#[derive(Debug, Default, Clone)]
struct LayerPass {
    windows: f64,
    power_rows: f64,
    fallback_caps: f64,
}

/// Traced pass: the same calls `SweepContext::new` + `solve_grid_exact`
/// make, issued one module at a time so each gets its own span, then the
/// per-cap reassembly `solve_grid_exact` does, and the replays.
fn traced_pass(
    spec: &SweepSpec,
    machine: &MachineSpec,
    seed: u64,
    tracer: &mut Tracer,
) -> (PassOutput, LayerPass) {
    let caps = spec.job_caps();
    let opts = pass_options();
    let mut layer = LayerPass::default();
    let out = tracer.span("pass", |t| {
        let graph = t.span("apps.generate", |_| spec.generate(seed));
        let frontiers = t.span("frontiers.build", |_| TaskFrontiers::build(&graph, machine));
        let windows = t.span("decompose.windows", |_| windows_at_syncs(&graph));
        let mut lps: Vec<WindowLp> = windows
            .iter()
            .map(|w| {
                t.span("fixed_lp.build", |_| WindowLp::build(&graph, &frontiers, w, &opts.fixed))
            })
            .collect();
        layer.windows = lps.len() as f64;
        layer.power_rows = lps.iter().map(|lp| lp.num_power_rows() as f64).sum();
        let mut grids = Vec::with_capacity(lps.len());
        let mut breakpoints = Vec::new();
        for lp in &mut lps {
            let mut ctx = pcap_lp::SolverContext::new();
            let grid =
                t.span("fixed_lp.ramp", |_| lp.solve_grid_ramp(&frontiers, &caps, None, &mut ctx));
            layer.fallback_caps += grid.fallback_caps as f64;
            breakpoints.extend(grid.breakpoints);
            grids.push(grid.points.into_iter().map(Some).collect::<Vec<_>>());
        }
        let points = t.span("bench.assemble", |_| {
            breakpoints.sort_by(f64::total_cmp);
            breakpoints.dedup_by(|a, b| a.to_bits() == b.to_bits());
            assemble(&graph, &caps, &mut grids)
        });
        let replays = if spec.replay {
            caps.iter()
                .map(|&cap| {
                    let s =
                        t.span("sim.static", |_| replay_static(&graph, machine, spec.ranks, cap));
                    let c = t.span("sim.conductor", |_| {
                        replay_conductor(&graph, machine, &frontiers, spec.ranks, cap)
                    });
                    (bits(&s), bits(&c))
                })
                .collect()
        } else {
            Vec::new()
        };
        PassOutput { points, breakpoints, replays }
    });
    (out, layer)
}

/// One window's answer at one cap, taken out as the caps are assembled.
type WindowCell = Option<CoreResult<(WindowSolution, Basis)>>;

/// Reassembles per-window ramp results into per-cap schedules exactly as
/// `SweepContext::solve_grid_exact` does: window makespans chain as time
/// offsets, telemetry folds per cap, and the first window error wins.
fn assemble(graph: &TaskGraph, caps: &[f64], grids: &mut [Vec<WindowCell>]) -> Vec<SweepPoint> {
    caps.iter()
        .enumerate()
        .map(|(ci, &cap_w)| {
            let mut vertex_times = vec![0.0_f64; graph.num_vertices()];
            let mut choices = vec![None; graph.num_edges()];
            let mut offset = 0.0;
            let mut stats = SolveStats::default();
            for window in grids.iter_mut() {
                match window[ci].take().expect("each (window, cap) cell is read once") {
                    Ok((ws, _)) => {
                        for (v, t) in ws.times {
                            vertex_times[v.index()] = offset + t;
                        }
                        for (e, c) in ws.choices.into_iter().enumerate() {
                            if c.is_some() {
                                choices[e] = c;
                            }
                        }
                        offset += ws.makespan_s;
                        stats.absorb(&ws.stats);
                    }
                    Err(e) => return SweepPoint { cap_w, schedule: Err(e) },
                }
            }
            let schedule = LpSchedule { makespan_s: offset, vertex_times, choices, cap_w, stats };
            SweepPoint { cap_w, schedule: Ok(schedule) }
        })
        .collect()
}

/// A chain of warm per-cap solves over the same grid, window by window —
/// what the ramp replaces. Returns its wall time and the per-cap makespan
/// bits (`None` where some window is infeasible).
fn percap_chain(spec: &SweepSpec, machine: &MachineSpec, seed: u64) -> (f64, Vec<Option<u64>>) {
    let caps = spec.job_caps();
    let graph = spec.generate(seed);
    let frontiers = TaskFrontiers::build(&graph, machine);
    let opts = pass_options();
    let mut lps: Vec<WindowLp> = windows_at_syncs(&graph)
        .iter()
        .map(|w| WindowLp::build(&graph, &frontiers, w, &opts.fixed))
        .collect();
    let start = Instant::now();
    let mut makespans: Vec<Option<f64>> = vec![Some(0.0); caps.len()];
    for lp in &mut lps {
        let mut ctx = pcap_lp::SolverContext::new();
        let mut warm = None;
        for (ci, &cap) in caps.iter().enumerate() {
            match lp.solve_at_with(&frontiers, cap, warm.as_ref(), &mut ctx) {
                Ok((ws, basis)) => {
                    if let Some(m) = &mut makespans[ci] {
                        *m += ws.makespan_s;
                    }
                    warm = Some(basis);
                }
                Err(_) => makespans[ci] = None,
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, makespans.into_iter().map(|m| m.map(f64::to_bits)).collect())
}

pub fn run(spec: &SweepSpec, seed: u64, seconds: f64, traced: bool) -> Run {
    let machine = MachineSpec::e5_2670();
    let graph = spec.generate(seed);
    let frontiers = TaskFrontiers::build(&graph, &machine);
    let mut outcome = Outcome::default();
    let reference = match reference(&graph, &machine, &frontiers, spec) {
        Ok(r) => Some(r),
        Err(e) => {
            outcome.fail(e);
            None
        }
    };

    let mut setup_s = Vec::new();
    let mut tracer = Tracer::new(traced);
    let mut passes = Vec::new();
    let mut layers: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut first_breakpoints: Option<Vec<u64>> = None;
    let start = Instant::now();
    while passes.len() < spec.min_passes || start.elapsed().as_secs_f64() < seconds {
        let (out, record) = if traced {
            let spans_before = tracer.spans().len();
            let ((out, layer), iv) = measure(|| traced_pass(spec, &machine, seed, &mut tracer));
            let stats = total_stats(&out.points);
            let samples = layer_samples(&tracer.spans()[spans_before..], &layer, &stats, &iv);
            for (name, v) in samples {
                push_sample(&mut layers, name, v);
            }
            (out, PassRecord::new(iv))
        } else {
            setup_s.extend(setup_samples(spec, &machine, seed));
            let (out, iv) = plain_pass(spec, &machine, seed);
            (out, PassRecord::new(iv))
        };
        let verdict = match &reference {
            Some(r) => check(r, &out),
            None => Verdict {
                attempted: out.points.len() as u64,
                mismatches: vec!["no reference".into(); out.points.len()],
                ..Verdict::default()
            },
        };
        let (attempted, mut failed) = (verdict.attempted, verdict.mismatches.len() as u64);
        if traced {
            push_sample(&mut layers, "lp.vertex_divergences", verdict.divergent_caps.len() as f64);
        }
        let bits: Vec<u64> = out.breakpoints.iter().map(|b| b.to_bits()).collect();
        match &first_breakpoints {
            None => {
                outcome.digest = Some(digest(&out));
                first_breakpoints = Some(bits);
            }
            Some(first) if *first != bits => {
                failed += 1;
                outcome.note("breakpoints differ between passes".into());
            }
            Some(_) => {}
        }
        outcome.add(attempted, failed);
        if !verdict.mismatches.is_empty() {
            let pass = passes.len();
            outcome
                .note(format!("pass {pass} differs from the reference: {:?}", verdict.mismatches));
        }
        passes.push(record);
    }

    if traced {
        // The per-cap chain the ramp replaces, once per run, outside the
        // passes; its answers must match the reference too.
        let (percap_s, makespans) = percap_chain(spec, &machine, seed);
        layers.push(("fixed_lp.percap_s", vec![percap_s]));
        if let Some(r) = &reference {
            let expected: Vec<Option<u64>> =
                r.points.iter().map(|p| p.as_ref().map(|(m, _)| *m)).collect();
            let failed = expected.iter().zip(&makespans).filter(|(a, b)| a != b).count() as u64;
            outcome.add(expected.len() as u64, failed);
            if failed > 0 {
                outcome.note(format!("per-cap chain mismatched the reference at {failed} caps"));
            }
        }
    }

    let n = passes.len();
    let mut metrics: Vec<Metric> =
        layers.iter().map(|(name, vs)| metric(name, median(vs), vs.len())).collect();
    let walls: Vec<f64> = passes.iter().map(|p: &PassRecord| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    metrics.extend([
        metric("setup_s", median(&setup_s), setup_s.len()),
        metric("pass_s", median(&walls), n),
        metric("pass_cpu_s", median(&cpus), n),
        metric("latency_p50_ms", median(&walls_ms), n),
        metric("latency_p99_ms", percentile(&walls_ms, 99.0), n),
        metric("throughput_rps", n as f64 / walls.iter().sum::<f64>(), n),
        metric("error_rate", outcome.error_rate(), outcome.attempted as usize),
        metric("passes", n as f64, n),
    ]);
    Run { outcome, passes, metrics, latency_ms: walls_ms, tracer }
}

/// Appends one pass's sample of a layer metric.
fn push_sample(layers: &mut Vec<(&'static str, Vec<f64>)>, name: &'static str, v: f64) {
    match layers.iter_mut().find(|(n, _)| *n == name) {
        Some((_, vs)) => vs.push(v),
        None => layers.push((name, vec![v])),
    }
}

/// Module spans whose time a traced pass is made of, with their metrics.
const COVERING_LAYERS: [(&str, &str); 7] = [
    ("apps.generate", "apps.generate_s"),
    ("frontiers.build", "frontiers.build_s"),
    ("decompose.windows", "decompose.windows_s"),
    ("fixed_lp.build", "fixed_lp.build_s"),
    ("fixed_lp.ramp", "fixed_lp.ramp_s"),
    ("sim.static", "sim.static_s"),
    ("sim.conductor", "sim.conductor_s"),
];

/// One traced pass's layer metrics, from its spans and counters.
fn layer_samples(
    spans: &[Span],
    layer: &LayerPass,
    stats: &SolveStats,
    iv: &Interval,
) -> Vec<(&'static str, f64)> {
    let durations =
        |name: &'static str| spans.iter().filter(move |s| s.name == name).map(Span::duration_s);
    let sum = |name| durations(name).sum::<f64>();
    let pass_s = sum("pass");
    let covered: f64 = COVERING_LAYERS.iter().map(|&(span, _)| sum(span)).sum();
    let mut out: Vec<(&'static str, f64)> =
        COVERING_LAYERS.iter().map(|&(span, metric)| (metric, sum(span))).collect();
    out.extend([
        ("fixed_lp.ramp_max_window_s", durations("fixed_lp.ramp").fold(0.0, f64::max)),
        ("bench.assemble_s", sum("bench.assemble")),
        ("trace.pass_s", pass_s),
        ("trace.coverage", if pass_s > 0.0 { covered / pass_s } else { 0.0 }),
        ("decompose.windows", layer.windows),
        ("fixed_lp.power_rows", layer.power_rows),
        ("fixed_lp.ramp_fallback_caps", layer.fallback_caps),
        ("host.runqueue_wait_s", iv.sched.wait_s),
        ("host.steal_s", iv.steal_s),
    ]);
    out.extend(lp_layers(stats, sum("fixed_lp.ramp")));
    out
}

/// The solver's own counters for a pass, as layer metrics.
fn lp_layers(s: &SolveStats, ramp_s: f64) -> Vec<(&'static str, f64)> {
    let phase_s = s.phase1_time_s + s.phase2_time_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("lp.iterations", s.iterations as f64),
        ("lp.phase1_iterations", s.phase1_iterations as f64),
        ("lp.ramp_steps", s.ramp_steps as f64),
        ("lp.ramp_breakpoints", s.ramp_breakpoints as f64),
        ("lp.caps_interpolated", s.caps_interpolated as f64),
        ("lp.refactorizations", s.refactorizations as f64),
        ("lp.factor_reuses", s.factor_reuses as f64),
        ("lp.fill_ratio", ratio(s.factor_nnz as f64, s.basis_nnz as f64)),
        ("lp.phase_s", phase_s),
        ("lp.post_optimal_s", (s.wall_time_s - phase_s).max(0.0)),
        ("lp.s_per_ramp_step", ratio(ramp_s, s.ramp_steps as f64)),
        ("lp.canonical_shortfall", s.solves.saturating_sub(s.canonicalized) as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(bench: Benchmark, replay: bool) -> SweepSpec {
        SweepSpec {
            bench,
            ranks: 4,
            iterations: 2,
            per_socket_caps: vec![20.0, 45.0, 70.0],
            replay,
            min_passes: 2,
        }
    }

    fn value(run: &Run, name: &str) -> f64 {
        run.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
    }

    #[test]
    fn smoke_sweeps_pass_the_correctness_gate() {
        for spec in [tiny(Benchmark::CoMD, false), tiny(Benchmark::BtMz, true)] {
            let plain = run(&spec, 5, 0.0, false);
            assert_eq!(plain.outcome.failed, 0, "{:?}: {:?}", spec.bench, plain.outcome.notes);
            let per_pass = spec.per_socket_caps.len() * if spec.replay { 3 } else { 1 };
            assert_eq!(plain.outcome.attempted, (2 * per_pass) as u64);
            assert!(value(&plain, "pass_s") > 0.0 && value(&plain, "setup_s") > 0.0);

            let traced = run(&spec, 5, 0.0, true);
            assert_eq!(traced.outcome.failed, 0, "{:?}: {:?}", spec.bench, traced.outcome.notes);
            assert_eq!(traced.outcome.digest, plain.outcome.digest, "same seed, same bits");
            assert!(value(&traced, "decompose.windows") >= 1.0);
            assert!(value(&traced, "fixed_lp.percap_s") > 0.0);
            assert_eq!(value(&traced, "lp.canonical_shortfall"), 0.0);
            assert!(value(&traced, "trace.coverage") > 0.5);
            assert_eq!(value(&traced, "sim.static_s") > 0.0, spec.replay);
        }
    }

    #[test]
    fn a_wrong_answer_fails_the_gate() {
        let spec = tiny(Benchmark::CoMD, false);
        let machine = MachineSpec::e5_2670();
        let graph = spec.generate(5);
        let frontiers = TaskFrontiers::build(&graph, &machine);
        let reference = reference(&graph, &machine, &frontiers, &spec).expect("reference");
        let (mut out, _) = plain_pass(&spec, &machine, 5);
        assert_eq!(check(&reference, &out), Verdict { attempted: 3, ..Verdict::default() });
        let k = out.points.iter().position(|p| p.schedule.is_ok()).expect("a feasible cap");
        let bump = |x: &mut f64| *x = f64::from_bits(x.to_bits() + 1);
        fn schedule(out: &mut PassOutput, k: usize) -> &mut LpSchedule {
            out.points[k].schedule.as_mut().expect("a feasible cap")
        }
        bump(schedule(&mut out, k).vertex_times.last_mut().expect("a vertex"));
        let v = check(&reference, &out);
        assert_eq!(v.mismatches.len(), 1, "another vertex at the same bound is a mismatch");
        assert_eq!(v.divergent_caps, vec![out.points[k].cap_w], "and is counted as such");
        bump(&mut schedule(&mut out, k).makespan_s);
        let v = check(&reference, &out);
        assert_eq!(v.mismatches.len(), 1, "one ulp off the bound is a mismatch");
        assert!(v.divergent_caps.is_empty());
    }
}
