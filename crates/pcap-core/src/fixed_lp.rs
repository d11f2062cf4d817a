//! The fixed-vertex-order event LP (paper §3.1–3.3).
//!
//! Variables: a time `v_k` per DAG vertex and a fraction `c_ij` per
//! (task, frontier point). Constraints (numbers follow the paper):
//!
//! * (1) minimize the sink vertex time;
//! * (2) the source vertex time is 0;
//! * (3)+(4) precedence: `v_dst − v_src ≥ d_i` with `d_i = Σ_j d_ij c_ij`
//!   for tasks (messages contribute their fixed transfer time);
//! * (6)(9) `0 ≤ c_ij ≤ 1`, `Σ_j c_ij = 1` (continuous configurations);
//! * (10)(11) at every event `k`, `Σ_{i∈R_k} p_i ≤ PC`, where the activity
//!   sets `R_k` come from the slack-reduced power-unconstrained schedule and
//!   `p_i = Σ_j p_ij c_ij` (slack power = task power, §3.3);
//! * (12)(13) events keep their initial time order; coincident events stay
//!   coincident.
//!
//! Solving over a [`Window`] (a contiguous slice of the DAG between two
//! global synchronization vertices) is the primitive that
//! [`crate::decompose`] chains into whole-run schedules.

use crate::frontiers::TaskFrontiers;
use crate::schedule::{LpSchedule, TaskChoice};
use crate::{CoreError, CoreResult};
use pcap_dag::{EdgeId, EdgeKind, TaskGraph, VertexId};
use pcap_lp::{Basis, Bound, LinExpr, Problem, Sense, SolveStats, SolverOptions};
use pcap_machine::MachineSpec;

/// Options for the fixed-order LP.
#[derive(Debug, Clone)]
pub struct FixedLpOptions {
    /// Underlying simplex options.
    pub lp: SolverOptions,
    /// Two events whose initial times differ by at most this are considered
    /// coincident (constraint 13).
    pub tie_tol: f64,
}

impl Default for FixedLpOptions {
    fn default() -> Self {
        Self { lp: SolverOptions::default(), tie_tol: 1e-9 }
    }
}

/// A contiguous slice of the DAG to schedule: all edges whose source lies in
/// the window, with designated source/sink boundary vertices.
#[derive(Debug, Clone)]
pub struct Window {
    /// Boundary start vertex (time pinned to 0 within the window).
    pub source: VertexId,
    /// Boundary end vertex (its time is the window makespan).
    pub sink: VertexId,
    /// All window vertices, including the boundaries.
    pub vertices: Vec<VertexId>,
    /// All edges scheduled by this window.
    pub edges: Vec<EdgeId>,
}

impl Window {
    /// The window covering the entire application.
    pub fn whole(graph: &TaskGraph) -> Self {
        Self {
            source: graph.init_vertex(),
            sink: graph.finalize_vertex(),
            vertices: graph.topo_order().to_vec(),
            edges: (0..graph.num_edges()).map(EdgeId::from_index).collect(),
        }
    }
}

/// Solves the fixed-vertex-order LP over the whole application.
///
/// ```
/// use pcap_core::{solve_fixed_order, FixedLpOptions, TaskFrontiers};
/// use pcap_dag::{GraphBuilder, VertexKind};
/// use pcap_machine::{MachineSpec, TaskModel};
///
/// // Two ranks with unequal work joined by a collective.
/// let mut b = GraphBuilder::new(2);
/// let init = b.vertex(VertexKind::Init, None);
/// let fin = b.vertex(VertexKind::Finalize, None);
/// let light = b.task(init, fin, 0, TaskModel::mixed(1.0, 0.3));
/// let heavy = b.task(init, fin, 1, TaskModel::mixed(3.0, 0.3));
/// let graph = b.build().unwrap();
///
/// let machine = MachineSpec::e5_2670();
/// let frontiers = TaskFrontiers::build(&graph, &machine);
/// let sched = solve_fixed_order(&graph, &machine, &frontiers, 90.0,
///     &FixedLpOptions::default()).unwrap();
///
/// // The heavy task gets the lion's share of the 90 W budget.
/// let (l, h) = (sched.choice(light).unwrap(), sched.choice(heavy).unwrap());
/// assert!(h.power_w > l.power_w);
/// assert!(h.power_w + l.power_w <= 90.0 + 1e-6);
/// ```
pub fn solve_fixed_order(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    cap_w: f64,
    opts: &FixedLpOptions,
) -> CoreResult<LpSchedule> {
    let window = Window::whole(graph);
    let ws = solve_window(graph, machine, frontiers, cap_w, &window, opts);
    crate::decompose::assemble_windows(graph.num_vertices(), graph.num_edges(), cap_w, [ws])
}

/// Result of [`WindowLp::solve_grid_ramp`]: one window solved over a whole
/// cap grid by a single parametric ramp.
#[derive(Debug)]
pub struct RampGrid {
    /// One entry per requested cap, input order: the window solution and
    /// chaining basis, or the per-cap error (`Infeasible` below the
    /// feasibility threshold, exactly as per-cap solves report).
    pub points: Vec<CoreResult<(WindowSolution, Basis)>>,
    /// Exact caps where this window's optimal basis changes, ascending.
    /// Between consecutive breakpoints the window makespan is affine in
    /// the cap.
    pub breakpoints: Vec<f64>,
    /// Caps answered by per-cap fallback instead of the ramp: the sum of
    /// [`SolveStats::ramp_fallbacks`] over the points (infeasible caps
    /// carry no stats, so they are not counted).
    pub fallback_caps: u64,
}

/// The result of solving one window at one power cap.
#[derive(Debug, Clone)]
pub struct WindowSolution {
    /// Per-vertex times relative to the window source.
    pub times: Vec<(VertexId, f64)>,
    /// Full-length (graph-sized) choices vector, populated only for window
    /// tasks.
    pub choices: Vec<Option<TaskChoice>>,
    /// The window makespan (sink time).
    pub makespan_s: f64,
    /// Solver telemetry for this solve.
    pub stats: SolveStats,
}

/// Solves one window from a cold start. Convenience wrapper over
/// [`WindowLp::build`] + [`WindowLp::solve_at`] for one-shot callers; sweeps
/// over many caps should build the [`WindowLp`] once and re-solve it.
pub fn solve_window(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    cap_w: f64,
    window: &Window,
    opts: &FixedLpOptions,
) -> CoreResult<WindowSolution> {
    let _ = machine; // durations/powers come pre-baked in the frontiers
    let mut lp = WindowLp::build(graph, frontiers, window, opts);
    lp.solve_at(frontiers, cap_w, None).map(|(ws, _)| ws)
}

/// A window's LP, built once and re-solvable at any power cap.
///
/// The constraint matrix — precedence rows, configuration-mixture rows,
/// event-order rows and the *coefficients* of the per-event power rows — is
/// independent of the cap; only the power rows' right-hand sides carry it.
/// [`WindowLp::solve_at`] therefore rewrites just those bounds and re-solves,
/// optionally warm-starting from the [`Basis`] of a previous (typically
/// adjacent-cap) solve. This is the primitive behind
/// [`crate::sweep::solve_sweep`].
#[derive(Debug, Clone)]
pub struct WindowLp {
    problem: Problem,
    /// Vertex-time variable per graph vertex (None outside the window).
    vvar: Vec<Option<pcap_lp::VarId>>,
    /// Frontier-fraction variables per task edge.
    cvars: Vec<Vec<pcap_lp::VarId>>,
    /// Window task edges, in window order.
    tasks: Vec<EdgeId>,
    /// Row indices of the per-event power constraints (the only rows whose
    /// bound depends on the cap).
    power_rows: Vec<usize>,
    /// Window vertices (for time extraction).
    vertices: Vec<VertexId>,
    sink: VertexId,
    num_edges: usize,
    lp_opts: SolverOptions,
}

impl WindowLp {
    /// Builds the cap-independent LP structure for `window`. Power rows are
    /// installed with a placeholder bound; [`WindowLp::solve_at`] sets the
    /// actual cap before every solve.
    pub fn build(
        graph: &TaskGraph,
        frontiers: &TaskFrontiers,
        window: &Window,
        opts: &FixedLpOptions,
    ) -> Self {
        build_window_lp(graph, frontiers, window, opts)
    }

    /// Number of per-event power rows (diagnostics).
    pub fn num_power_rows(&self) -> usize {
        self.power_rows.len()
    }

    /// Re-solves this window's LP at `cap_w`, optionally warm-starting from
    /// a previous solve's [`Basis`]. Returns the solution together with the
    /// final basis for chaining into the next cap.
    ///
    /// Builds a fresh solver per call; cap sweeps should prefer
    /// [`WindowLp::solve_at_with`], which reuses a [`pcap_lp::SolverContext`]
    /// so repeated solves of this window skip matrix construction.
    pub fn solve_at(
        &mut self,
        frontiers: &TaskFrontiers,
        cap_w: f64,
        warm: Option<&Basis>,
    ) -> CoreResult<(WindowSolution, Basis)> {
        let mut ctx = pcap_lp::SolverContext::default();
        self.solve_at_with(frontiers, cap_w, warm, &mut ctx)
    }

    /// [`WindowLp::solve_at`] with a caller-held [`pcap_lp::SolverContext`].
    ///
    /// The window's constraint matrix is cap-independent, so every solve of
    /// this `WindowLp` satisfies the context's same-matrix contract: across
    /// a cap grid the context keeps the built (scaled, CSC) solver and — when
    /// the warm basis is the one the cached factorization was computed for —
    /// the factorization itself, leaving an already-optimal warm solve with
    /// almost no fixed setup cost. Reuse never changes results (warm/cold
    /// sweeps stay bit-identical); pass a fresh context to opt out.
    pub fn solve_at_with(
        &mut self,
        frontiers: &TaskFrontiers,
        cap_w: f64,
        warm: Option<&Basis>,
        ctx: &mut pcap_lp::SolverContext,
    ) -> CoreResult<(WindowSolution, Basis)> {
        for &row in &self.power_rows {
            self.problem.set_constraint_bound(row, Bound::Upper(cap_w));
        }
        let (sol, basis) = pcap_lp::solve_with_context(&self.problem, &self.lp_opts, warm, ctx)
            .map_err(CoreError::from)?;
        Ok((self.window_solution(frontiers, &sol), basis))
    }

    /// Maps an LP [`pcap_lp::Solution`] of this window's problem back to the
    /// scheduling domain: vertex times, per-task configuration mixes and the
    /// window makespan. Shared by the per-cap path and the parametric ramp
    /// so both produce byte-identical [`WindowSolution`]s from identical LP
    /// solutions.
    fn window_solution(
        &self,
        frontiers: &TaskFrontiers,
        sol: &pcap_lp::Solution,
    ) -> WindowSolution {
        let vv = |v: VertexId| self.vvar[v.index()].expect("window vertex has a variable");
        let times: Vec<(VertexId, f64)> =
            self.vertices.iter().map(|&v| (v, sol.value(vv(v)))).collect();
        let mut choices: Vec<Option<TaskChoice>> = vec![None; self.num_edges];
        for &e in &self.tasks {
            let frontier = frontiers.get(e).unwrap();
            let mut mix = Vec::new();
            let mut dur = 0.0;
            let mut pow = 0.0;
            for (j, &c) in self.cvars[e.index()].iter().enumerate() {
                let frac = sol.value(c);
                if frac > 1e-9 {
                    mix.push((j, frac));
                    dur += frac * frontier.points()[j].time_s;
                    pow += frac * frontier.points()[j].power_w;
                }
            }
            choices[e.index()] = Some(TaskChoice { mix, duration_s: dur, power_w: pow });
        }
        let makespan = sol.value(vv(self.sink));
        WindowSolution { times, choices, makespan_s: makespan, stats: sol.stats }
    }

    /// Solves this window at every cap in `caps_w` with one parametric-RHS
    /// ramp ([`pcap_lp::solve_cap_ramp`]): the optimal basis is walked up
    /// the cap axis, grid caps inside a linearity interval are answered by
    /// interpolation (one basic-value recompute, no pivots), and the exact
    /// basis-change breakpoints come back alongside the points. Individual
    /// caps the ramp cannot serve (numerical guards) silently fall back to
    /// warm per-cap solves, counted in [`RampGrid::fallback_caps`].
    pub fn solve_grid_ramp(
        &mut self,
        frontiers: &TaskFrontiers,
        caps_w: &[f64],
        warm: Option<&Basis>,
        ctx: &mut pcap_lp::SolverContext,
    ) -> RampGrid {
        let out = pcap_lp::solve_cap_ramp(
            &mut self.problem,
            &self.power_rows,
            caps_w,
            &self.lp_opts,
            warm,
            ctx,
        );
        let points: Vec<_> = out
            .points
            .into_iter()
            .map(|r| match r {
                Ok((sol, basis)) => Ok((self.window_solution(frontiers, &sol), basis)),
                Err(e) => Err(CoreError::from(e)),
            })
            .collect();
        let fallback_caps =
            points.iter().flatten().map(|(ws, _)| ws.stats.ramp_fallbacks).sum::<u64>();
        RampGrid { points, breakpoints: out.breakpoints, fallback_caps }
    }

    /// Independent cold re-solve at `cap_w` with the LP-level duality
    /// certificate forced on (release builds included): the *hard gate* of
    /// the sweep-level two-tier certification. Uses a fresh solver context
    /// and no warm basis so nothing from the solve being checked can leak
    /// into the check.
    pub fn certified_cold_solve(
        &mut self,
        frontiers: &TaskFrontiers,
        cap_w: f64,
    ) -> CoreResult<(WindowSolution, Basis)> {
        let saved = self.lp_opts.certify;
        self.lp_opts.certify = true;
        let result = self.solve_at(frontiers, cap_w, None);
        self.lp_opts.certify = saved;
        result
    }

    /// Whether `basis` is structurally valid for this window's LP — the
    /// dimensions a warm start would actually adopt. Cheap (no solve);
    /// used by the sweep certifier to reject corrupted basis snapshots
    /// before they poison the next cap's warm start.
    pub fn basis_is_valid(&self, basis: &Basis) -> bool {
        basis.compatible_with(&self.problem)
    }
}

/// Builds the window LP: initial schedule, event order, activity sets, and
/// all constraint rows. Factored out of [`WindowLp::build`] to keep the
/// construction readable.
fn build_window_lp(
    graph: &TaskGraph,
    frontiers: &TaskFrontiers,
    window: &Window,
    opts: &FixedLpOptions,
) -> WindowLp {
    // --- Initial (power-unconstrained) schedule within the window. ---
    // ASAP from the window source with every task at its fastest frontier
    // point; activity windows [src, dst) then implicitly model the
    // slack-reduced schedule (slack trails its task at task power).
    let mut in_window = vec![false; graph.num_vertices()];
    for &v in &window.vertices {
        in_window[v.index()] = true;
    }
    let mut init_time = vec![f64::NEG_INFINITY; graph.num_vertices()];
    init_time[window.source.index()] = 0.0;
    // Process vertices in the graph's topological order restricted to the
    // window.
    let topo: Vec<VertexId> =
        graph.topo_order().iter().copied().filter(|v| in_window[v.index()]).collect();
    let edge_dur_fast = |e: EdgeId| -> f64 {
        match &graph.edge(e).kind {
            EdgeKind::Task { .. } => frontiers.get(e).map(|f| f.max_power().time_s).unwrap_or(0.0),
            EdgeKind::Message { bytes, .. } => graph.comm().message_time(*bytes),
        }
    };
    let mut window_edges_by_src: Vec<Vec<EdgeId>> = vec![Vec::new(); graph.num_vertices()];
    for &e in &window.edges {
        window_edges_by_src[graph.edge(e).src.index()].push(e);
    }
    for &v in &topo {
        let tv = init_time[v.index()];
        if !tv.is_finite() {
            continue;
        }
        for &e in &window_edges_by_src[v.index()] {
            let dst = graph.edge(e).dst;
            if !in_window[dst.index()] {
                continue;
            }
            let t = tv + edge_dur_fast(e);
            if t > init_time[dst.index()] {
                init_time[dst.index()] = t;
            }
        }
    }

    // --- Event order and activity sets from the initial schedule. ---
    let mut events: Vec<VertexId> = topo.clone();
    events.sort_by(|&a, &b| {
        init_time[a.index()]
            .partial_cmp(&init_time[b.index()])
            .unwrap()
            .then(a.index().cmp(&b.index()))
    });
    // Per-event active tasks: window task edges whose [src, dst) initial
    // window contains the event time (half-open; zero-length tasks count at
    // their start).
    let tasks: Vec<EdgeId> =
        window.edges.iter().copied().filter(|&e| graph.edge(e).is_task()).collect();
    let tol = opts.tie_tol;
    let mut active: Vec<Vec<EdgeId>> = vec![Vec::new(); graph.num_vertices()];
    for &v in &events {
        let tv = init_time[v.index()];
        for &e in &tasks {
            let edge = graph.edge(e);
            let t0 = init_time[edge.src.index()];
            let t1 = init_time[edge.dst.index()];
            if !t0.is_finite() || !t1.is_finite() {
                continue;
            }
            let zero = (t1 - t0).abs() <= tol;
            if (tv >= t0 - tol && tv < t1 - tol) || (zero && (tv - t0).abs() <= tol) {
                active[v.index()].push(e);
            }
        }
    }

    // --- Build the LP. ---
    let mut p = Problem::new(Sense::Minimize);
    // Vertex-time variables.
    let mut vvar = vec![None; graph.num_vertices()];
    for &v in &window.vertices {
        let cost = if v == window.sink { 1.0 } else { 0.0 };
        vvar[v.index()] = Some(p.add_var(0.0, f64::INFINITY, cost));
    }
    let vv = |v: VertexId| vvar[v.index()].expect("window vertex has a variable");
    // (2) window source pinned at 0.
    p.add_constraint(LinExpr::from(vec![(vv(window.source), 1.0)]), Bound::Equal(0.0));

    // Configuration fraction variables per task.
    let mut cvars: Vec<Vec<pcap_lp::VarId>> = vec![Vec::new(); graph.num_edges()];
    for &e in &tasks {
        let frontier = frontiers.get(e).expect("task has a frontier");
        let vars: Vec<pcap_lp::VarId> =
            frontier.points().iter().map(|_| p.add_var(0.0, 1.0, 0.0)).collect();
        // (9) Σ_j c_ij = 1.
        p.add_constraint(
            LinExpr::from(vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>()),
            Bound::Equal(1.0),
        );
        cvars[e.index()] = vars;
    }

    // (3)+(4) precedence for every window edge.
    for &e in &window.edges {
        let edge = graph.edge(e);
        if !in_window[edge.dst.index()] {
            // The decomposition guarantees this cannot happen; keep a loud
            // failure for misuse.
            panic!("window edge {} leaves the window", e.index());
        }
        match &edge.kind {
            EdgeKind::Task { .. } => {
                let frontier = frontiers.get(e).unwrap();
                let mut expr = LinExpr::with_capacity(2 + cvars[e.index()].len());
                expr.add(vv(edge.dst), 1.0);
                expr.add(vv(edge.src), -1.0);
                for (j, &c) in cvars[e.index()].iter().enumerate() {
                    expr.add(c, -frontier.points()[j].time_s);
                }
                p.add_constraint(expr, Bound::Lower(0.0));
            }
            EdgeKind::Message { bytes, .. } => {
                let expr = LinExpr::from(vec![(vv(edge.dst), 1.0), (vv(edge.src), -1.0)]);
                p.add_constraint(expr, Bound::Lower(graph.comm().message_time(*bytes)));
            }
        }
    }

    // (10)(11) per-event power. The bound is a placeholder: `solve_at`
    // rewrites every power row's RHS with the actual cap before solving.
    let mut power_rows = Vec::new();
    for &v in &events {
        let acts = &active[v.index()];
        if acts.is_empty() {
            continue;
        }
        let mut expr = LinExpr::new();
        for &e in acts {
            let frontier = frontiers.get(e).unwrap();
            for (j, &c) in cvars[e.index()].iter().enumerate() {
                expr.add(c, frontier.points()[j].power_w);
            }
        }
        power_rows.push(p.num_constraints());
        p.add_constraint(expr, Bound::Upper(f64::INFINITY));
    }

    // (12)(13) event order.
    for pair in events.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let ta = init_time[a.index()];
        let tb = init_time[b.index()];
        let expr = LinExpr::from(vec![(vv(b), 1.0), (vv(a), -1.0)]);
        if (tb - ta).abs() <= tol {
            p.add_constraint(expr, Bound::Equal(0.0)); // (13)
        } else {
            p.add_constraint(expr, Bound::Lower(0.0)); // (12)
        }
    }

    WindowLp {
        problem: p,
        vvar,
        cvars,
        tasks,
        power_rows,
        vertices: window.vertices.clone(),
        sink: window.sink,
        num_edges: graph.num_edges(),
        lp_opts: opts.lp.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_apps::exchange::{generate as gen_exchange, ExchangeParams};
    use pcap_dag::{GraphBuilder, VertexKind};
    use pcap_machine::TaskModel;

    fn machine() -> MachineSpec {
        MachineSpec::e5_2670()
    }

    /// Two ranks, one collective: the smallest graph with cross-rank power
    /// sharing.
    fn two_rank() -> TaskGraph {
        let mut b = GraphBuilder::new(2);
        let init = b.vertex(VertexKind::Init, None);
        let coll = b.vertex(VertexKind::Collective, None);
        let fin = b.vertex(VertexKind::Finalize, None);
        b.task(init, coll, 0, TaskModel::mixed(2.0, 0.3));
        b.task(init, coll, 1, TaskModel::mixed(6.0, 0.3));
        b.task(coll, fin, 0, TaskModel::mixed(3.0, 0.3));
        b.task(coll, fin, 1, TaskModel::mixed(3.0, 0.3));
        b.build().unwrap()
    }

    fn solve(g: &TaskGraph, cap: f64) -> LpSchedule {
        let m = machine();
        let fr = TaskFrontiers::build(g, &m);
        solve_fixed_order(g, &m, &fr, cap, &FixedLpOptions::default()).unwrap()
    }

    #[test]
    fn generous_cap_recovers_unconstrained_makespan() {
        let g = two_rank();
        let m = machine();
        let fr = TaskFrontiers::build(&g, &m);
        let sched = solve(&g, 1_000.0);
        // Every task should sit at (or mix into) its fastest point; makespan
        // equals the nominal critical path.
        let fast = |e: usize| fr.get(EdgeId::from_index(e)).unwrap().max_power().time_s;
        let expected = fast(1) + fast(2).max(fast(3));
        assert!((sched.makespan_s - expected).abs() < 1e-6, "{} vs {}", sched.makespan_s, expected);
    }

    #[test]
    fn tighter_caps_monotonically_increase_makespan() {
        let g = two_rank();
        let mut prev = 0.0;
        for cap in [160.0, 120.0, 90.0, 70.0, 55.0] {
            let s = solve(&g, cap);
            assert!(s.makespan_s >= prev - 1e-9, "cap {cap}");
            prev = s.makespan_s;
        }
    }

    #[test]
    fn infeasible_cap_is_reported() {
        let g = two_rank();
        let m = machine();
        let fr = TaskFrontiers::build(&g, &m);
        // Below the sum of the two cheapest frontier powers nothing works.
        let err = solve_fixed_order(&g, &m, &fr, 20.0, &FixedLpOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible));
    }

    #[test]
    fn power_is_shared_nonuniformly() {
        // With a moderate cap, the long task (rank 1) must get more power
        // than the short one while they overlap.
        let g = two_rank();
        let s = solve(&g, 100.0);
        let long = s.choice(EdgeId::from_index(1)).unwrap();
        let short = s.choice(EdgeId::from_index(0)).unwrap();
        assert!(
            long.power_w > short.power_w + 1.0,
            "long {} W short {} W",
            long.power_w,
            short.power_w
        );
        // And their combined power respects the cap.
        assert!(long.power_w + short.power_w <= 100.0 + 1e-6);
    }

    #[test]
    fn choices_mix_at_most_adjacent_points() {
        let g = two_rank();
        let s = solve(&g, 95.0);
        for c in s.choices.iter().flatten() {
            let total: f64 = c.mix.iter().map(|&(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn exchange_graph_solves() {
        let g = gen_exchange(&ExchangeParams::default());
        let s = solve(&g, 120.0);
        assert!(s.makespan_s > 0.0);
        // All five tasks have choices; the two messages do not.
        let n = s.choices.iter().flatten().count();
        assert_eq!(n, 5);
    }

    #[test]
    fn schedule_respects_precedence_at_solution_times() {
        let g = two_rank();
        let s = solve(&g, 80.0);
        for (id, e) in g.iter_edges() {
            let d = s.choice(id).map(|c| c.duration_s).unwrap_or(0.0);
            let lhs = s.vertex_times[e.dst.index()] - s.vertex_times[e.src.index()];
            assert!(lhs >= d - 1e-6, "edge {} violates precedence", id.index());
        }
    }

    /// Degenerate single-point frontiers — tasks with no time/power
    /// trade-off — must flow through the LP unharmed: every task is pinned
    /// to its sole configuration and feasibility flips exactly at the
    /// summed fixed power of the concurrent tasks.
    #[test]
    fn degenerate_single_point_frontiers_feed_the_lp() {
        let g = two_rank();
        let m = machine();
        // Collapse every frontier to its fastest point.
        let deg = TaskFrontiers::build(&g, &m)
            .map(|_, f| pcap_machine::convex_frontier(&[*f.max_power()]));
        assert!(deg.iter().all(|(_, f)| f.is_degenerate()));

        // All four tasks share a model's memory fraction, so the collapsed
        // points all cost the same power; two tasks overlap per window.
        let point = |e: usize| *deg.get(EdgeId::from_index(e)).unwrap().max_power();
        let overlap_w = point(0).power_w + point(1).power_w;

        // Slightly above the fixed concurrent power: feasible, with every
        // choice pinned to the single point and the makespan equal to the
        // fixed critical path.
        let sched =
            solve_fixed_order(&g, &m, &deg, overlap_w * 1.01, &FixedLpOptions::default()).unwrap();
        for (id, f) in deg.iter() {
            let c = sched.choice(id).unwrap();
            assert!(
                (c.duration_s - f.max_power().time_s).abs() < 1e-9,
                "task {} not pinned: {} vs {}",
                id.index(),
                c.duration_s,
                f.max_power().time_s
            );
            assert!((c.power_w - f.max_power().power_w).abs() < 1e-9);
        }
        let expected = point(0).time_s.max(point(1).time_s) + point(2).time_s.max(point(3).time_s);
        assert!((sched.makespan_s - expected).abs() < 1e-6, "{} vs {}", sched.makespan_s, expected);

        // Slightly below it: with no cheaper configuration to retreat to,
        // the LP must report infeasibility rather than shave power.
        let err = solve_fixed_order(&g, &m, &deg, overlap_w * 0.99, &FixedLpOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible));
    }
}
