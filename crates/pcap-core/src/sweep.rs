//! Power-cap sweeps: evaluate the LP bound over an ordered grid of caps.
//!
//! Every figure in the paper's evaluation (Figures 9–15) is a sweep: the
//! same application graph solved at many job-level power constraints. The
//! naive loop rebuilds and cold-solves every window LP at every cap, yet
//! almost all of that work is shared:
//!
//! * the **windows** ([`crate::decompose::windows_at_syncs`]) and each
//!   window's **LP structure** ([`WindowLp`]) depend only on the graph and
//!   the frontiers — they are built once per sweep, not once per cap;
//! * adjacent caps differ only in the power rows' right-hand sides, so the
//!   optimal basis at cap `k` stays *dual feasible* at cap `k+1`; seeding
//!   it (**warm start**, [`pcap_lp::solve_with_basis`]) lets the solver's
//!   dual simplex phase walk back to primal feasibility in a few pivots
//!   instead of re-running both primal phases — the denser the cap grid,
//!   the closer adjacent optima and the larger the saving;
//! * the built, scaled LP and its last basis factorization are carried
//!   across a window's re-solves in a per-window
//!   [`pcap_lp::SolverContext`], so a re-solve at the next cap skips
//!   matrix construction and — when the warm basis is unchanged —
//!   refactorization entirely ([`pcap_lp::SolveStats::factor_reuses`]);
//! * distinct caps are independent, so the grid is split into contiguous
//!   chunks solved by **scoped worker threads**, warm-starting within each
//!   chunk and collecting results in deterministic input order. Every
//!   chunk after the first also solves the cap before it and drops that
//!   point, so its ramp walks the interval between the chunks and the
//!   breakpoint list does not depend on the worker count.
//!
//! The results are identical to the sequential cold-start loop: warm and
//! cold solves may terminate at different optimal bases — or, at a
//! degenerate optimum, at different alternate optima entirely — but the
//! solver's canonical-optimum phase ([`pcap_lp::SolverOptions::canonicalize`])
//! walks every solve to the lexicographically minimal optimal vertex and
//! iteratively refines the extracted values to the correctly rounded
//! solution, making the output independent of the pivot path, the warm
//! basis, and the linear-algebra engine — which the test-suite (and the
//! [`SweepOptions::certify`] two-tier gate) checks down to the bit pattern
//! of every vertex time.

use crate::decompose::{assemble_windows, windows_at_syncs};
use crate::fixed_lp::{FixedLpOptions, Window, WindowLp};
use crate::frontiers::TaskFrontiers;
use crate::schedule::LpSchedule;
use crate::{CoreError, CoreResult};
use pcap_dag::TaskGraph;
use pcap_lp::{Basis, SolveStats};
use pcap_machine::MachineSpec;

/// How a sweep turns a cap grid into solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Parametric cap ramp ([`pcap_lp::solve_cap_ramp`]): each window's LP
    /// is solved once at the chunk's lowest feasible cap, then the optimal
    /// basis is *walked* up the grid — the dual ratio test finds the exact
    /// caps where the basis changes (breakpoints), and grid caps between
    /// breakpoints are answered by interpolation along the affine optimum,
    /// one FTRAN each, no solve. Results are bit-identical to [`Self::PerCap`]
    /// (every emission passes the same canonical-vertex pipeline), and the
    /// exact breakpoint caps are reported in [`SweepResult::breakpoints`].
    /// Requires [`SweepOptions::warm_start`] and an ascending cap grid to
    /// engage; otherwise individual caps silently fall back to per-cap
    /// solves (counted in [`pcap_lp::SolveStats`] via zero
    /// `caps_interpolated`).
    #[default]
    Ramp,
    /// One warm-started dual-simplex solve per cap — the differential
    /// oracle for `Ramp` and the right mode for telemetry that must reflect
    /// full per-cap solves.
    PerCap,
}

/// Options for [`solve_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Per-window LP options (shared by every cap).
    pub fixed: FixedLpOptions,
    /// Worker threads across cap chunks; `0` uses the machine's available
    /// parallelism. The grid is split into at most `caps.len()` chunks.
    pub workers: usize,
    /// Seed each solve with the basis of the previous cap in its chunk.
    /// Disable to force cold starts (diagnostics / baseline timing); this
    /// also disables the ramp — a cold baseline means per-cap solves.
    pub warm_start: bool,
    /// Certify window solves against an independent cold re-solve of the
    /// same window at the same cap with the **two-tier** check (see
    /// `certify_against_cold`): the hard gate demands a valid basis, a
    /// duality-certified cold optimum and objective agreement; the strict
    /// gate demands canonical-vertex equality bit for bit. Any failure
    /// fails the sweep point with [`CoreError::Verification`]. In
    /// [`SweepMode::PerCap`] this covers every warm-started solve; in
    /// [`SweepMode::Ramp`] it covers **every** ramp-produced point,
    /// anchors included. The cold solves are checks, not measurements:
    /// their telemetry is not folded into the point's [`SolveStats`].
    /// Combine with [`pcap_lp::SolverOptions::certify`] (via
    /// `fixed.lp.certify`) to also run the LP-level certificate on every
    /// solve in release builds — the bench harness's `--certify` flag sets
    /// both.
    pub certify: bool,
    /// Sweep engine: the parametric ramp (default) or one solve per cap.
    pub mode: SweepMode,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            fixed: FixedLpOptions::default(),
            workers: 0,
            warm_start: true,
            certify: false,
            mode: SweepMode::Ramp,
        }
    }
}

/// One cap's result in a sweep: the schedule (with per-cap aggregated
/// [`SolveStats`] in [`LpSchedule::stats`]) or the infeasibility/solver
/// error for that cap.
#[derive(Debug)]
pub struct SweepPoint {
    /// The job-level cap this point was solved at.
    pub cap_w: f64,
    /// The decomposed schedule, or why this cap has none.
    pub schedule: CoreResult<LpSchedule>,
}

impl SweepPoint {
    /// The makespan, if this cap was feasible.
    pub fn makespan_s(&self) -> Option<f64> {
        self.schedule.as_ref().ok().map(|s| s.makespan_s)
    }
}

/// Sums the solver telemetry over all feasible points of a sweep.
pub fn total_stats(points: &[SweepPoint]) -> SolveStats {
    let mut total = SolveStats::default();
    for p in points {
        if let Ok(s) = &p.schedule {
            total.absorb(&s.stats);
        }
    }
    total
}

/// A sweep's points plus the exact piecewise-linear structure the parametric
/// ramp discovered along the way.
#[derive(Debug)]
pub struct SweepResult {
    /// One entry per requested cap, in input order.
    pub points: Vec<SweepPoint>,
    /// Exact job-level caps (W) where some window's optimal basis changed,
    /// ascending and deduplicated across windows and worker chunks. Between
    /// consecutive breakpoints the makespan-vs-cap frontier is affine, so
    /// these are precisely the kinks of the exact frontier within the swept
    /// range. Empty in [`SweepMode::PerCap`] and for caps answered by
    /// per-cap fallback.
    pub breakpoints: Vec<f64>,
}

/// Evaluates the decomposed LP bound at every cap in `caps_w` (one
/// [`SweepPoint`] per cap, in input order).
///
/// Equivalent to calling [`crate::solve_decomposed`] once per cap — the
/// makespans are bit-identical — but shares the window/LP construction
/// across the whole grid, warm-starts adjacent caps, and spreads cap chunks
/// over scoped worker threads. Caps are conventionally ordered (ascending or
/// descending); warm starting is correct for any order, merely most
/// effective when neighbours are close.
pub fn solve_sweep(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    caps_w: &[f64],
    opts: &SweepOptions,
) -> Vec<SweepPoint> {
    solve_sweep_exact(graph, machine, frontiers, caps_w, opts).points
}

/// [`solve_sweep`], but also returning the exact frontier breakpoints the
/// parametric ramp crossed (see [`SweepResult::breakpoints`]). This is the
/// full-fidelity entry point; `solve_sweep` simply drops the breakpoints.
pub fn solve_sweep_exact(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    caps_w: &[f64],
    opts: &SweepOptions,
) -> SweepResult {
    let _ = machine; // durations/powers come pre-baked in the frontiers
    let n = caps_w.len();
    if n == 0 {
        return SweepResult { points: Vec::new(), breakpoints: Vec::new() };
    }
    let windows = windows_at_syncs(graph);

    let requested = if opts.workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        opts.workers
    };
    let workers = requested.min(n).max(1);

    if workers == 1 {
        return sweep_chunk(graph, frontiers, &windows, caps_w, 0..n, opts);
    }

    // Contiguous chunks keep warm-start/ramp locality (adjacent caps share a
    // worker) and make ordered collection trivial: chunk k of the output is
    // exactly chunk k of the input grid, whatever the thread timing. A chunk
    // after the first starts one cap early, so the interval from the last
    // cap of the chunk before is walked too, and drops that point.
    let chunk = n.div_ceil(workers);
    crossbeam::thread::scope(|scope| {
        let windows = &windows;
        let handles: Vec<_> = (0..workers)
            .map(|k| (k * chunk, ((k + 1) * chunk).min(n)))
            .filter(|&(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                let start = lo.saturating_sub(1);
                scope.spawn(move |_| {
                    let mut r = sweep_chunk(graph, frontiers, windows, caps_w, start..hi, opts);
                    r.points.drain(..lo - start);
                    r
                })
            })
            .collect();
        let mut points = Vec::with_capacity(n);
        let mut breakpoints = Vec::new();
        for h in handles {
            let r = h.join().expect("sweep worker panicked");
            points.extend(r.points);
            breakpoints.extend(r.breakpoints);
        }
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup_by(|a, b| a.to_bits() == b.to_bits());
        SweepResult { points, breakpoints }
    })
    .expect("sweep scope")
}

/// Solves one contiguous range of the cap grid on the calling thread via a
/// fresh [`SweepContext`], chaining warm bases cap-to-cap within the chunk.
fn sweep_chunk(
    graph: &TaskGraph,
    frontiers: &TaskFrontiers,
    windows: &[Window],
    caps_w: &[f64],
    range: std::ops::Range<usize>,
    opts: &SweepOptions,
) -> SweepResult {
    let mut ctx = SweepContext::from_windows(graph, frontiers, windows, opts.clone());
    ctx.solve_grid_exact(frontiers, &caps_w[range])
}

/// Reusable sweep state: every window's LP built once, plus the chain of
/// warm-start bases, surviving across solve calls.
///
/// [`solve_sweep`] creates one per worker chunk and drops it at the end of
/// the grid; a serving layer instead keeps a `SweepContext` per
/// machine/DAG scope (see [`crate::canon::Instance::scope_fingerprint`]) in
/// its worker pool, so *separate requests* over the same application warm
/// start from each other — the basis left by the last cap of one request
/// seeds the first cap of the next. Results never depend on that reuse:
/// warm and cold solves agree bitwise (the invariant the test-suite pins),
/// so a context hit changes latency, not bytes.
///
/// The context is only valid for the graph/frontiers it was built from;
/// callers key storage by content fingerprint to guarantee that.
#[derive(Debug)]
pub struct SweepContext {
    lps: Vec<WindowLp>,
    bases: Vec<Option<Basis>>,
    /// One [`pcap_lp::SolverContext`] per window: the built (scaled, CSC)
    /// solver survives across caps, and a warm basis fed back into the
    /// solver that produced it also reuses the basis factorization. Pure
    /// cache — results are bit-identical with or without it.
    solver_ctxs: Vec<pcap_lp::SolverContext>,
    opts: SweepOptions,
    num_vertices: usize,
    num_edges: usize,
}

impl SweepContext {
    /// Builds the per-window LPs for `graph` once; `opts` applies to every
    /// subsequent solve.
    pub fn new(graph: &TaskGraph, frontiers: &TaskFrontiers, opts: SweepOptions) -> Self {
        let windows = windows_at_syncs(graph);
        Self::from_windows(graph, frontiers, &windows, opts)
    }

    fn from_windows(
        graph: &TaskGraph,
        frontiers: &TaskFrontiers,
        windows: &[Window],
        opts: SweepOptions,
    ) -> Self {
        let lps: Vec<WindowLp> =
            windows.iter().map(|w| WindowLp::build(graph, frontiers, w, &opts.fixed)).collect();
        let bases = vec![None; lps.len()];
        let solver_ctxs = lps.iter().map(|_| pcap_lp::SolverContext::new()).collect();
        Self {
            lps,
            bases,
            solver_ctxs,
            opts,
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
        }
    }

    /// Whether any window already carries a warm basis (i.e. this context
    /// has solved before and the next solve will warm start).
    pub fn has_warm_state(&self) -> bool {
        self.bases.iter().any(|b| b.is_some())
    }

    /// Drops all warm bases, forcing the next solve to start cold
    /// (diagnostics / cold-baseline measurements).
    pub fn reset(&mut self) {
        for b in &mut self.bases {
            *b = None;
        }
    }

    /// Solves every cap in `caps_w` in order on the calling thread,
    /// chaining warm bases (including any left by previous calls).
    pub fn solve_grid(&mut self, frontiers: &TaskFrontiers, caps_w: &[f64]) -> Vec<SweepPoint> {
        self.solve_grid_exact(frontiers, caps_w).points
    }

    /// [`SweepContext::solve_grid`] plus the exact frontier breakpoints.
    ///
    /// In [`SweepMode::Ramp`] (with warm starts on and more than one cap)
    /// each window LP ramps the whole grid in one parametric walk; per-cap
    /// results are then reassembled in grid order exactly as
    /// [`SweepContext::solve_one`] would. Any other configuration degrades
    /// to the per-cap loop with an empty breakpoint list.
    pub fn solve_grid_exact(&mut self, frontiers: &TaskFrontiers, caps_w: &[f64]) -> SweepResult {
        let ncaps = caps_w.len();
        if self.opts.mode == SweepMode::PerCap || !self.opts.warm_start || ncaps <= 1 {
            let points = caps_w.iter().map(|&c| self.solve_one(frontiers, c)).collect();
            return SweepResult { points, breakpoints: Vec::new() };
        }

        // Ramp mode: each window walks the whole cap grid once. Windows are
        // independent, so a per-window pass (rather than per-cap) keeps each
        // walk contiguous; results are re-bucketed by cap below.
        let mut per_window = Vec::with_capacity(self.lps.len());
        let mut breakpoints: Vec<f64> = Vec::new();
        for (wi, lp) in self.lps.iter_mut().enumerate() {
            let grid = lp.solve_grid_ramp(
                frontiers,
                caps_w,
                self.bases[wi].as_ref(),
                &mut self.solver_ctxs[wi],
            );
            let mut points = grid.points;
            if self.opts.certify {
                for (ci, p) in points.iter_mut().enumerate() {
                    let certified = match p {
                        Ok((ws, basis)) => {
                            certify_against_cold(lp, frontiers, caps_w[ci], ws, basis, wi)
                        }
                        Err(_) => Ok(()),
                    };
                    if let Err(e) = certified {
                        *p = Err(e);
                    }
                }
            }
            // Chain the last good basis into subsequent grids/solves, exactly
            // as the per-cap loop would leave it.
            if let Some(basis) =
                points.iter().rev().find_map(|p| p.as_ref().ok().map(|(_, b)| b.clone()))
            {
                self.bases[wi] = Some(basis);
            }
            breakpoints.extend(grid.breakpoints);
            per_window.push(points.into_iter().map(Some).collect::<Vec<_>>());
        }

        // Re-bucket: assemble each cap across windows exactly like
        // `solve_one`.
        let points = caps_w
            .iter()
            .enumerate()
            .map(|(ci, &cap_w)| {
                let solved = per_window.iter_mut().map(|window| {
                    let cell = window[ci].take().expect("each (window, cap) cell is consumed once");
                    cell.map(|(ws, _)| ws)
                });
                let schedule = assemble_windows(self.num_vertices, self.num_edges, cap_w, solved);
                SweepPoint { cap_w, schedule }
            })
            .collect();

        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup_by(|a, b| a.to_bits() == b.to_bits());
        SweepResult { points, breakpoints }
    }

    /// Solves the full decomposed schedule at one cap, reusing this
    /// context's LPs and warm bases. `frontiers` must be the instance the
    /// context was built from.
    pub fn solve_one(&mut self, frontiers: &TaskFrontiers, cap_w: f64) -> SweepPoint {
        let (opts, bases, ctxs) = (&self.opts, &mut self.bases, &mut self.solver_ctxs);
        let solved = self.lps.iter_mut().enumerate().map(|(wi, lp)| {
            let warm = if opts.warm_start { bases[wi].as_ref() } else { None };
            let warm_used = warm.is_some();
            // On an error the previous basis stays: the next (e.g. higher)
            // cap may be feasible again and still benefits from it.
            let (ws, basis) = lp.solve_at_with(frontiers, cap_w, warm, &mut ctxs[wi])?;
            if opts.certify && warm_used {
                certify_against_cold(lp, frontiers, cap_w, &ws, &basis, wi)?;
            }
            bases[wi] = Some(basis);
            Ok(ws)
        });
        let schedule = assemble_windows(self.num_vertices, self.num_edges, cap_w, solved);
        SweepPoint { cap_w, schedule }
    }
}

/// Hard-gate relative tolerance on warm-vs-cold *objective* agreement.
///
/// Matched to the duality-gap tolerance of the LP-level certificate
/// ([`pcap_lp::CertifyOptions`]): two independently certified optima of the
/// same LP cannot have objectives further apart than their certified gaps.
/// A violation means one of the solves is simply wrong — as opposed to the
/// strict gate below, whose failures mean "right value, wrong vertex".
const CERTIFY_OBJ_REL_TOL: f64 = 1e-6;

/// Re-solves a window cold at the same cap and checks the warm-started
/// solution `ws` against it — the sweep-level half of the verification
/// subsystem (the LP-level half is the per-solve certificate in `pcap-lp`).
///
/// The comparison is **two-tier**:
///
/// * **Hard gate** — the warm solve's basis snapshot is structurally valid,
///   the independent cold re-solve succeeds *with the LP duality
///   certificate forced on* ([`WindowLp::certified_cold_solve`]), and the
///   two makespans agree to [`CERTIFY_OBJ_REL_TOL`]. A failure here means
///   a solve returned a non-optimum: the bound itself is untrustworthy.
/// * **Strict gate** — the two solutions are the *same vertex, bit for
///   bit*: equal makespan bits and equal bits for every vertex time. The
///   solver's canonical-optimum phase ([`pcap_lp::SolverOptions::canonicalize`],
///   on by default) guarantees this even at degenerate optima, where warm
///   and cold pivot paths would otherwise stop at different alternate
///   optima. A failure here means the canonical layer regressed: results
///   are still valid bounds but are no longer a pure function of the
///   problem, which poisons content-addressed caches and dual-price
///   consumers.
///
/// Both tiers fail the sweep point with [`CoreError::Verification`]; the
/// message names the tier so a regression is immediately attributable.
fn certify_against_cold(
    lp: &mut WindowLp,
    frontiers: &TaskFrontiers,
    cap_w: f64,
    ws: &crate::fixed_lp::WindowSolution,
    warm_basis: &Basis,
    window_index: usize,
) -> CoreResult<()> {
    // Hard gate: basis validity.
    if !lp.basis_is_valid(warm_basis) {
        return Err(CoreError::Verification(format!(
            "window {window_index} at cap {cap_w} W: hard gate: warm solve returned a basis \
             snapshot incompatible with the window LP ({:?})",
            warm_basis.dims()
        )));
    }
    // Hard gate: independent certified cold re-solve.
    let (cold, _) = lp.certified_cold_solve(frontiers, cap_w).map_err(|e| {
        CoreError::Verification(format!(
            "window {window_index} at cap {cap_w} W: hard gate: warm solve succeeded but the \
             certified cold re-solve failed: {e}"
        ))
    })?;
    // Hard gate: objective agreement.
    let rel = (ws.makespan_s - cold.makespan_s).abs() / cold.makespan_s.abs().max(1.0);
    if rel > CERTIFY_OBJ_REL_TOL || rel.is_nan() {
        return Err(CoreError::Verification(format!(
            "window {window_index} at cap {cap_w} W: hard gate: warm makespan {} vs cold \
             makespan {} (relative error {rel:.3e})",
            ws.makespan_s, cold.makespan_s
        )));
    }
    // Strict gate: canonical-vertex equality, bit for bit.
    let warm_times: Vec<f64> = ws.times.iter().map(|&(_, t)| t).collect();
    let cold_times: Vec<f64> = cold.times.iter().map(|&(_, t)| t).collect();
    if let Some(divergence) = crate::verify::canonical_vertex_divergence(
        ws.makespan_s,
        cold.makespan_s,
        &warm_times,
        &cold_times,
    ) {
        return Err(CoreError::Verification(format!(
            "window {window_index} at cap {cap_w} W: strict gate: warm vs cold: {divergence} — \
             warm and cold landed on different alternate optima",
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::solve_decomposed;
    use crate::CoreError;
    use pcap_apps::{comd, AppParams};
    use pcap_machine::MachineSpec;

    fn setup() -> (TaskGraph, MachineSpec, TaskFrontiers) {
        let m = MachineSpec::e5_2670();
        let g = comd::generate(&AppParams { ranks: 4, iterations: 3, seed: 0x5C15 });
        let fr = TaskFrontiers::build(&g, &m);
        (g, m, fr)
    }

    /// Job caps spanning infeasible (lowest) through generous.
    fn cap_grid() -> Vec<f64> {
        [20.0, 30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0].iter().map(|c| c * 4.0).collect()
    }

    #[test]
    fn sweep_matches_sequential_cold_loop_bitwise() {
        let (g, m, fr) = setup();
        let caps = cap_grid();
        let opts = SweepOptions { workers: 3, warm_start: true, ..Default::default() };
        let sweep = solve_sweep(&g, &m, &fr, &caps, &opts);
        assert_eq!(sweep.len(), caps.len());
        for (point, &cap) in sweep.iter().zip(&caps) {
            let cold = solve_decomposed(&g, &m, &fr, cap, &FixedLpOptions::default());
            match (&point.schedule, &cold) {
                (Ok(s), Ok(c)) => {
                    assert_eq!(
                        s.makespan_s.to_bits(),
                        c.makespan_s.to_bits(),
                        "cap {cap}: sweep {} vs cold loop {}",
                        s.makespan_s,
                        c.makespan_s
                    );
                    // Vertex times agree bitwise too: warm starting changes
                    // the pivot path, not the optimum.
                    for (a, b) in s.vertex_times.iter().zip(&c.vertex_times) {
                        assert_eq!(a.to_bits(), b.to_bits(), "cap {cap}");
                    }
                }
                (Err(CoreError::Infeasible), Err(CoreError::Infeasible)) => {}
                (a, b) => panic!("cap {cap}: sweep {a:?} vs cold {b:?}"),
            }
        }
    }

    #[test]
    fn warm_start_engages_and_stats_are_populated() {
        let (g, m, fr) = setup();
        let caps: Vec<f64> = [40.0, 45.0, 50.0, 55.0, 60.0].iter().map(|c| c * 4.0).collect();
        // This test pins *per-cap* warm-start machinery (pivot counts,
        // factor reuse), so it opts out of the ramp.
        let opts = SweepOptions {
            workers: 1,
            warm_start: true,
            mode: SweepMode::PerCap,
            ..Default::default()
        };
        let sweep = solve_sweep(&g, &m, &fr, &caps, &opts);
        for (i, point) in sweep.iter().enumerate() {
            let s = point.schedule.as_ref().expect("grid is feasible");
            assert!(s.stats.iterations > 0, "cap {}: zero pivots", point.cap_w);
            assert!(s.stats.wall_time_s > 0.0, "cap {}: zero wall time", point.cap_w);
            // Every window either factored its basis or reused a cached
            // factorization that already matched it.
            assert!(s.stats.refactorizations + s.stats.factor_reuses > 0);
            assert!(s.stats.solves > 0);
            if i == 0 {
                assert!(!s.stats.warm_started, "first cap must start cold");
            } else {
                assert!(s.stats.warm_started, "cap {} should warm start", point.cap_w);
            }
        }
        let total = total_stats(&sweep);
        assert_eq!(
            total.solves,
            sweep.iter().map(|p| p.schedule.as_ref().unwrap().stats.solves).sum::<u64>()
        );

        // Chained warm bases across an ascending grid must hit the
        // factorization-reuse fast path at least once: the basis left by one
        // cap is fed straight back to the solver that factored it.
        assert!(total.factor_reuses > 0, "no factorization was reused across the grid");

        // Warm starting reduces total pivots relative to cold solves of the
        // same grid (the whole point of basis reuse).
        let cold_opts = SweepOptions { workers: 1, warm_start: false, ..Default::default() };
        let cold = solve_sweep(&g, &m, &fr, &caps, &cold_opts);
        let cold_total = total_stats(&cold);
        assert!(
            total.iterations < cold_total.iterations,
            "warm {} pivots vs cold {}",
            total.iterations,
            cold_total.iterations
        );
    }

    /// Chunking changes neither the order of the points nor the breakpoint
    /// list: every chunk's ramp also walks the interval from the chunk
    /// before it.
    #[test]
    fn results_keep_input_order_across_worker_counts() {
        let (g, m, fr) = setup();
        let caps = cap_grid();
        let bits = |r: &SweepResult| r.breakpoints.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        let mut one_worker = None;
        for workers in [1, 2, 4, 16] {
            let opts = SweepOptions { workers, warm_start: true, ..Default::default() };
            let sweep = solve_sweep_exact(&g, &m, &fr, &caps, &opts);
            let got: Vec<f64> = sweep.points.iter().map(|p| p.cap_w).collect();
            assert_eq!(got, caps, "workers={workers}");
            let reference = one_worker.get_or_insert_with(|| bits(&sweep));
            assert_eq!(&bits(&sweep), reference, "workers={workers}: breakpoints differ");
        }
    }

    #[test]
    fn warm_and_cold_sweeps_agree_bitwise() {
        let (g, m, fr) = setup();
        let caps = cap_grid();
        let warm = solve_sweep(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 2, warm_start: true, ..Default::default() },
        );
        let cold = solve_sweep(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, warm_start: false, ..Default::default() },
        );
        for (a, b) in warm.iter().zip(&cold) {
            match (a.makespan_s(), b.makespan_s()) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "cap {}", a.cap_w),
                (None, None) => {}
                _ => panic!("feasibility mismatch at cap {}", a.cap_w),
            }
        }
    }

    #[test]
    fn frontier_round_trips_hold_at_cap_grid_endpoints() {
        // At the extremes of the sweep grid — the lowest feasible cap and
        // the most generous one — every task frontier's interpolant and its
        // inverse must still agree, including at saturation (cap above the
        // task's fastest point) and at the cheapest point.
        let (g, m, fr) = setup();
        let caps = cap_grid();
        let sweep = solve_sweep(&g, &m, &fr, &caps, &SweepOptions::default());
        let lo = sweep.iter().find(|p| p.schedule.is_ok()).expect("some cap feasible");
        let hi = sweep.last().unwrap();
        assert!(hi.schedule.is_ok(), "top of the grid must be feasible");
        for point in [lo, hi] {
            let sched = point.schedule.as_ref().unwrap();
            assert!(sched.makespan_s > 0.0);
            let tasks = g.task_ids().len() as f64;
            for (e, f) in fr.iter() {
                // The whole job cap clamps to the task's fastest point
                // (saturation branch); an equal per-task share of the lowest
                // cap clamps to the cheapest (infeasibility boundary). Both
                // round trips must hold.
                for raw in [point.cap_w, point.cap_w / tasks] {
                    let p = raw.clamp(f.min_power().power_w, f.max_power().power_w);
                    let t = f.time_at_power(p).expect("clamped power is in span");
                    let back = f.power_at_time(t).expect("achievable time");
                    assert!(
                        (back - p).abs() <= 1e-9 * p.max(1.0),
                        "task {e:?} cap {}: p {p} -> t {t} -> {back}",
                        point.cap_w
                    );
                    let t2 = f.time_at_power(back).expect("round-tripped power is in span");
                    assert!(
                        (t2 - t).abs() <= 1e-9 * t.max(1e-12),
                        "task {e:?} cap {}: t {t} vs {t2}",
                        point.cap_w
                    );
                }
            }
        }
    }

    /// Satellite regression for the verification subsystem: across a 16-cap
    /// CoMD grid, warm-started solves must produce objectives bit-identical
    /// to cold solves, survive the sweep-level cold-re-solve certification
    /// (`certify: true`), and have every underlying simplex solve pass the
    /// independent LP certificate (`certified == solves` in test builds).
    #[test]
    fn sixteen_cap_comd_grid_is_certified_warm_vs_cold() {
        let (g, m, fr) = setup();
        // 16 per-socket caps, 25–100 W in 5 W steps, times 4 ranks.
        let caps: Vec<f64> = (0..16).map(|k| (25.0 + 5.0 * k as f64) * 4.0).collect();
        assert_eq!(caps.len(), 16);
        let mut opts =
            SweepOptions { workers: 2, warm_start: true, certify: true, ..Default::default() };
        opts.fixed.lp.certify = true;
        let warm = solve_sweep(&g, &m, &fr, &caps, &opts);
        let cold = solve_sweep(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, warm_start: false, ..Default::default() },
        );
        assert_eq!(warm.len(), 16);
        let mut feasible = 0;
        for (a, b) in warm.iter().zip(&cold) {
            match (&a.schedule, &b.schedule) {
                (Ok(x), Ok(y)) => {
                    feasible += 1;
                    assert_eq!(
                        x.makespan_s.to_bits(),
                        y.makespan_s.to_bits(),
                        "cap {}: warm {} vs cold {}",
                        a.cap_w,
                        x.makespan_s,
                        y.makespan_s
                    );
                    // Every simplex solve behind this point was certified.
                    assert_eq!(
                        x.stats.certified, x.stats.solves,
                        "cap {}: {} of {} solves certified",
                        a.cap_w, x.stats.certified, x.stats.solves
                    );
                }
                (Err(CoreError::Infeasible), Err(CoreError::Infeasible)) => {}
                (x, y) => panic!("cap {}: warm {x:?} vs cold {y:?}", a.cap_w),
            }
        }
        assert!(feasible >= 12, "most of the 25–100 W grid should be feasible");
    }

    /// The strict gate is only sound because every solve is canonicalized;
    /// pin that the sweep path actually reports it, so switching
    /// canonicalization off (or a silent bail-out in the secondary phase)
    /// cannot masquerade as "certified".
    #[test]
    fn sweep_solves_are_canonicalized() {
        let (g, m, fr) = setup();
        let caps: Vec<f64> = [40.0, 50.0, 60.0].iter().map(|c| c * 4.0).collect();
        let sweep = solve_sweep(&g, &m, &fr, &caps, &SweepOptions::default());
        for p in &sweep {
            let s = p.schedule.as_ref().expect("grid is feasible");
            assert_eq!(
                s.stats.canonicalized, s.stats.solves,
                "cap {}: {} of {} solves canonicalized",
                p.cap_w, s.stats.canonicalized, s.stats.solves
            );
        }
    }

    /// The serving pool's reuse pattern: one long-lived context answering
    /// several "requests" (cap grids) in sequence must return exactly the
    /// bytes a fresh in-process sweep returns — cross-request warm starting
    /// changes latency, never results.
    #[test]
    fn context_reuse_across_grids_is_bitwise_identical() {
        let (g, m, fr) = setup();
        let grids: [&[f64]; 3] = [&[160.0, 200.0, 240.0], &[140.0, 180.0], &[160.0, 200.0, 240.0]];
        let mut ctx = SweepContext::new(&g, &fr, SweepOptions::default());
        assert!(!ctx.has_warm_state());
        for (req, caps) in grids.iter().enumerate() {
            let served = ctx.solve_grid(&fr, caps);
            let fresh = solve_sweep(
                &g,
                &m,
                &fr,
                caps,
                &SweepOptions { workers: 1, warm_start: false, ..Default::default() },
            );
            for (a, b) in served.iter().zip(&fresh) {
                match (a.makespan_s(), b.makespan_s()) {
                    (Some(x), Some(y)) => assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "request {req} cap {}: served {x} vs fresh {y}",
                        a.cap_w
                    ),
                    (None, None) => {}
                    _ => panic!("request {req} cap {}: feasibility mismatch", a.cap_w),
                }
            }
            assert!(ctx.has_warm_state(), "request {req} should leave warm bases");
        }
        // From the second request on, the very first cap warm starts off the
        // previous request's final basis — the cross-request saving.
        let second = ctx.solve_one(&fr, 200.0);
        assert!(second.schedule.as_ref().unwrap().stats.warm_started);
        ctx.reset();
        assert!(!ctx.has_warm_state());
        let cold = ctx.solve_one(&fr, 200.0);
        assert!(!cold.schedule.as_ref().unwrap().stats.warm_started);
        assert_eq!(second.makespan_s().unwrap().to_bits(), cold.makespan_s().unwrap().to_bits());
    }

    #[test]
    fn empty_grid_returns_empty() {
        let (g, m, fr) = setup();
        assert!(solve_sweep(&g, &m, &fr, &[], &SweepOptions::default()).is_empty());
    }

    /// The tentpole invariant: the parametric ramp answers the whole grid
    /// bit-identically to independent per-cap solves, and surfaces the
    /// exact caps where the optimal basis changes.
    #[test]
    fn ramp_matches_percap_bitwise_and_reports_breakpoints() {
        let (g, m, fr) = setup();
        let caps: Vec<f64> = (0..16).map(|k| (25.0 + 5.0 * k as f64) * 4.0).collect();
        let ramp = solve_sweep_exact(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, ..Default::default() },
        );
        let percap = solve_sweep_exact(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, mode: SweepMode::PerCap, ..Default::default() },
        );
        assert_eq!(ramp.points.len(), caps.len());
        for (a, b) in ramp.points.iter().zip(&percap.points) {
            match (&a.schedule, &b.schedule) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(
                        x.makespan_s.to_bits(),
                        y.makespan_s.to_bits(),
                        "cap {}: ramp {} vs per-cap {}",
                        a.cap_w,
                        x.makespan_s,
                        y.makespan_s
                    );
                    for (u, v) in x.vertex_times.iter().zip(&y.vertex_times) {
                        assert_eq!(u.to_bits(), v.to_bits(), "cap {}", a.cap_w);
                    }
                }
                (Err(CoreError::Infeasible), Err(CoreError::Infeasible)) => {}
                (x, y) => panic!("cap {}: ramp {x:?} vs per-cap {y:?}", a.cap_w),
            }
        }

        // The CoMD frontier kinks inside 100–400 W: the walk must cross
        // basis changes, and they come out sorted, deduped, in range.
        assert!(!ramp.breakpoints.is_empty(), "no breakpoints on a binding grid");
        assert!(ramp.breakpoints.windows(2).all(|w| w[0] < w[1]), "breakpoints not ascending");
        for &b in &ramp.breakpoints {
            assert!(
                b >= caps[0] && b <= caps[caps.len() - 1],
                "breakpoint {b} outside swept range"
            );
        }
        assert!(percap.breakpoints.is_empty(), "per-cap mode must not report breakpoints");

        // Ramp telemetry flows into the per-point stats: most grid caps land
        // inside a linearity interval and are answered by interpolation.
        let total = total_stats(&ramp.points);
        assert!(total.caps_interpolated > 0, "no cap was answered by interpolation");
        assert!(
            total.ramp_breakpoints as usize >= ramp.breakpoints.len(),
            "per-point breakpoint counters disagree with the reported list"
        );
        let percap_total = total_stats(&percap.points);
        assert_eq!(percap_total.caps_interpolated, 0);
        assert_eq!(percap_total.ramp_steps, 0);
    }

    /// A descending grid cannot be ramped (the homotopy walks upward); the
    /// mode must degrade to warm-chained per-cap solves with identical
    /// results and no breakpoints.
    #[test]
    fn ramp_mode_on_descending_grid_falls_back_bitwise() {
        let (g, m, fr) = setup();
        let caps: Vec<f64> = [60.0, 50.0, 45.0, 40.0].iter().map(|c| c * 4.0).collect();
        let ramp = solve_sweep_exact(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, ..Default::default() },
        );
        let percap = solve_sweep_exact(
            &g,
            &m,
            &fr,
            &caps,
            &SweepOptions { workers: 1, mode: SweepMode::PerCap, ..Default::default() },
        );
        assert!(ramp.breakpoints.is_empty());
        for (a, b) in ramp.points.iter().zip(&percap.points) {
            assert_eq!(
                a.makespan_s().unwrap().to_bits(),
                b.makespan_s().unwrap().to_bits(),
                "cap {}",
                a.cap_w
            );
            // Every window solve behind every cap was a fallback, and the
            // count reaches the point's stats.
            let s = &a.schedule.as_ref().unwrap().stats;
            assert_eq!(s.ramp_fallbacks, s.solves, "cap {}", a.cap_w);
            assert_eq!(b.schedule.as_ref().unwrap().stats.ramp_fallbacks, 0);
        }
        // The window-level count is the sum over its feasible points.
        let windows = windows_at_syncs(&g);
        let mut lp = WindowLp::build(&g, &fr, &windows[0], &FixedLpOptions::default());
        let mut ctx = pcap_lp::SolverContext::new();
        let grid = lp.solve_grid_ramp(&fr, &caps, None, &mut ctx);
        assert_eq!(grid.fallback_caps, caps.len() as u64);
    }

    /// A reused context answering a second grid anchors each window with
    /// one warm dual-phase solve; the ramp emissions after it must not
    /// repeat that solve's pricing flag.
    #[test]
    fn reused_context_counts_each_dantzig_solve_once() {
        let m = MachineSpec::e5_2670();
        let g = comd::generate(&AppParams { ranks: 32, iterations: 3, seed: 1 });
        let fr = TaskFrontiers::build(&g, &m);
        let grid = |lo: f64| (0..8).map(|k| (lo + 5.0 * k as f64) * 32.0).collect::<Vec<_>>();
        let mut ctx = SweepContext::new(&g, &fr, SweepOptions::default());
        ctx.solve_grid(&fr, &grid(60.0));
        let second = ctx.solve_grid(&fr, &grid(27.0));
        let windows = windows_at_syncs(&g).len() as u64;
        let total = total_stats(&second);
        assert!(
            total.pricing_dantzig <= windows,
            "{} Dantzig-priced solves over {} window anchors",
            total.pricing_dantzig,
            windows
        );
    }

    /// Certification in ramp mode covers every ramp-produced point — a
    /// certified 16-cap ramp sweep must stamp `certified == solves` on each
    /// feasible point, like the per-cap path does.
    #[test]
    fn ramp_sweep_certifies_every_point() {
        let (g, m, fr) = setup();
        let caps: Vec<f64> = (0..8).map(|k| (40.0 + 5.0 * k as f64) * 4.0).collect();
        let mut opts =
            SweepOptions { workers: 2, warm_start: true, certify: true, ..Default::default() };
        opts.fixed.lp.certify = true;
        let sweep = solve_sweep_exact(&g, &m, &fr, &caps, &opts);
        for p in &sweep.points {
            let s = p.schedule.as_ref().expect("grid is feasible");
            assert_eq!(
                s.stats.certified, s.stats.solves,
                "cap {}: {} of {} solves certified",
                p.cap_w, s.stats.certified, s.stats.solves
            );
        }
    }
}
