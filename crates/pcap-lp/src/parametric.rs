//! Parametric right-hand-side ramp: solve a whole cap sweep in one basis
//! walk.
//!
//! The power-cap sweep re-solves one LP per cap even though only the power
//! rows' upper bounds carry the cap. This module exploits the classic
//! parametric-programming fact instead: as the cap `C` rises, the optimal
//! *basis* stays fixed on intervals, and within an interval the optimal
//! vertex is an **affine** function of `C`. Concretely, the cap enters the
//! solver only through the power slacks' upper bounds (`upper[n+i] = C·r_i`
//! after row scaling), so the basic values move along the fixed direction
//!
//! ```text
//! dx_B/dC = B⁻¹ · Σ_{i ∈ S} r_i e_i,    S = {power rows whose slack is
//!                                             nonbasic at its upper bound}
//! ```
//!
//! — one FTRAN, no solve. The **ramp** walks `C` upward from an anchor
//! optimum at the lowest feasible cap: a moving-bound primal ratio test
//! finds the exact cap where some basic variable hits a bound (a
//! *breakpoint*), a zero-length dual-ratio-test pivot exchanges the basis
//! there (the optimum is continuous across a breakpoint, so the step has
//! length zero — only the partition changes), and the walk continues. Grid
//! caps falling inside an interval are answered by interpolation: advance
//! the basic values along the direction and extract.
//!
//! ## Bit-identity with per-cap solves
//!
//! Every emitted grid point goes through the same finishing pipeline a
//! per-cap solve uses — [`Simplex::canonicalize`] (lexicographic canonical
//! vertex + canonical basis) and `extract` (slot-sorted fresh
//! factorization, compensated iterative refinement) — so the returned
//! solution is a function of the problem at that cap alone, not of the walk
//! that got there. Ramp results are therefore bit-identical to independent
//! cold solves and the two-tier sweep certifier applies unchanged. When any
//! of that machinery balks (primal drift beyond the feasibility tolerance,
//! a canonicalization bailout, a failed certificate, no eligible entering
//! column at a breakpoint), the affected cap **falls back** to an ordinary
//! warm [`solve_with_context`] per-cap solve — the exact code path
//! `SweepMode::PerCap` runs — and the ramp resumes from its result, so a
//! numerical hiccup costs one solve, never correctness.
//!
//! The walk also yields the sweep's exact piecewise-linear frontier for
//! free: [`RampOutcome::breakpoints`] lists every cap where the optimal
//! basis changed, which is precisely where the makespan-vs-cap curve kinks.

use std::time::Instant;

use crate::error::{LpError, LpResult};
use crate::problem::{Bound, Problem};
use crate::simplex::{solve_with_context, Basis, PivotRow, Simplex, SolverContext, VStat};
use crate::solution::{Solution, SolveStats};
use crate::sparse::{nz_indices, SparseVec};
use crate::SolverOptions;

/// Result of [`solve_cap_ramp`] over one cap grid.
#[derive(Debug)]
pub struct RampOutcome {
    /// One entry per requested cap, in input order: the solution and final
    /// basis at that cap, or the error (`Infeasible` for caps below the
    /// feasibility threshold, exactly as a per-cap solve would report).
    pub points: Vec<LpResult<(Solution, Basis)>>,
    /// Exact cap values where the optimal basis changed, ascending, deduped.
    /// Between consecutive breakpoints the optimum is affine in the cap.
    /// Intervals answered by per-cap fallback contribute no breakpoints.
    pub breakpoints: Vec<f64>,
    /// Caps answered by a full per-cap solve instead of the ramp: the ramp
    /// declined (numerical guard) or the grid was not strictly ascending.
    /// The anchor solve and infeasible caps are not counted.
    pub fallback_caps: u64,
}

/// Solves `problem` at every cap in `caps_w` with one parametric ramp.
///
/// `power_rows` are the constraint rows whose upper bound carries the cap
/// (every other row/bound must be cap-independent); `caps_w` should be
/// strictly ascending — otherwise every cap is answered by a warm-chained
/// per-cap solve (counted in [`RampOutcome::fallback_caps`]). `problem` is
/// borrowed mutably because each emission rewrites the power rows' bounds to
/// the cap being answered, exactly as a per-cap caller would, so extraction
/// and certification see the right problem; on return the bounds are those
/// of the last cap.
///
/// The first feasible cap is solved cold (or from `warm`) to anchor the
/// ramp; caps below it report `Err(Infeasible)`. The context's cached
/// solver is continued *in place* between caps — callers must hand the same
/// `ctx` they use for per-cap solves of this problem (same-matrix contract,
/// see [`SolverContext`]).
pub fn solve_cap_ramp(
    problem: &mut Problem,
    power_rows: &[usize],
    caps_w: &[f64],
    opts: &SolverOptions,
    warm: Option<&Basis>,
    ctx: &mut SolverContext,
) -> RampOutcome {
    let mut out = RampOutcome {
        points: Vec::with_capacity(caps_w.len()),
        breakpoints: Vec::new(),
        fallback_caps: 0,
    };
    let set_cap = |problem: &mut Problem, cap: f64| {
        for &row in power_rows {
            problem.set_constraint_bound(row, Bound::Upper(cap));
        }
    };

    let ascending = caps_w.windows(2).all(|w| w[0] < w[1]);
    if !ascending {
        // Unordered/duplicated grid: the homotopy argument needs a
        // monotone walk, so answer every cap per-cap, warm-chained.
        let mut chain: Option<Basis> = warm.cloned();
        for &cap in caps_w {
            set_cap(problem, cap);
            match solve_with_context(problem, opts, chain.as_ref(), ctx) {
                Ok((sol, basis)) => {
                    chain = Some(basis.clone());
                    out.points.push(Ok((sol, basis)));
                }
                Err(e) => out.points.push(Err(e)),
            }
            out.fallback_caps += 1;
        }
        return out;
    }

    // `prev` holds the solver's cumulative counters at the last emission so
    // each ramp emission reports per-cap deltas (a fallback solve rebinds
    // and resets the counters, so `prev` resets with it).
    let mut chain: Option<Basis> = warm.cloned();
    let mut prev = SolveStats::default();
    let mut prev_cap = f64::NAN;
    let mut anchored = false;

    for &cap in caps_w {
        if !anchored {
            // Anchor scan: ordinary per-cap solves until the first feasible
            // cap; infeasible caps report exactly what PerCap mode would.
            set_cap(problem, cap);
            match solve_with_context(problem, opts, chain.as_ref(), ctx) {
                Ok((sol, basis)) => {
                    chain = Some(basis.clone());
                    prev = sol.stats;
                    prev_cap = cap;
                    anchored = true;
                    out.points.push(Ok((sol, basis)));
                }
                Err(e) => out.points.push(Err(e)),
            }
            continue;
        }

        // Ramp from the previous cap to this one, then emit.
        let t_cap = Instant::now();
        let mut bps_here: Vec<f64> = Vec::new();
        let mut steps_here: u64 = 0;
        let s = ctx.simplex_mut().expect("anchored ramp has a primed context");
        let advanced = s.ramp_advance(power_rows, prev_cap, cap, &mut bps_here, &mut steps_here);
        let emitted = match advanced {
            Ok(true) => {
                emit_at(s, problem, power_rows, cap, opts, &mut prev, &bps_here, steps_here)
            }
            Ok(false) => Err(LpError::Certificate {
                detail: "parametric ramp declined; falling back to per-cap".into(),
            }),
            Err(e) => Err(e),
        };
        match emitted {
            Ok((mut sol, basis)) => {
                sol.stats.wall_time_s = t_cap.elapsed().as_secs_f64();
                chain = Some(basis.clone());
                prev_cap = cap;
                bps_here.dedup_by(|a, b| a.to_bits() == b.to_bits());
                out.breakpoints.extend(bps_here);
                out.points.push(Ok((sol, basis)));
            }
            Err(_) => {
                // Any ramp/emission failure: answer this cap with the exact
                // PerCap path (warm solve from the last good basis). The
                // solve rebinds the context, leaving it in the same state a
                // per-cap sweep would — so the ramp resumes from here.
                out.fallback_caps += 1;
                set_cap(problem, cap);
                match solve_with_context(problem, opts, chain.as_ref(), ctx) {
                    Ok((sol, basis)) => {
                        chain = Some(basis.clone());
                        prev = sol.stats;
                        prev_cap = cap;
                        out.points.push(Ok((sol, basis)));
                    }
                    Err(e) => {
                        // A failed full solve leaves no trustworthy solver
                        // state; drop the anchor and re-scan.
                        anchored = false;
                        out.points.push(Err(e));
                    }
                }
            }
        }
    }

    out.breakpoints.sort_by(f64::total_cmp);
    out.breakpoints.dedup_by(|a, b| a.to_bits() == b.to_bits());
    out
}

/// Finishes a ramped basis at grid cap `cap`: canonicalize, extract, stamp
/// per-emission stats, certify. Any error routes the caller to the per-cap
/// fallback.
#[allow(clippy::too_many_arguments)]
fn emit_at(
    s: &mut Simplex,
    problem: &mut Problem,
    power_rows: &[usize],
    cap: f64,
    opts: &SolverOptions,
    prev: &mut SolveStats,
    bps: &[f64],
    steps: u64,
) -> LpResult<(Solution, Basis)> {
    let t0 = Instant::now();
    for &row in power_rows {
        problem.set_constraint_bound(row, Bound::Upper(cap));
    }
    // Exact basic values at this cap before anything judges feasibility:
    // the walk advances x incrementally, so recompute from the nonbasic
    // assignment (free when the factorization is current — the
    // interpolated-cap case).
    s.basis.sort_unstable();
    if s.factor_is_current() {
        s.recompute_basic_values();
    } else {
        s.refactor()?;
    }
    if s.infeasibility() > s.opts.feas_tol {
        return Err(LpError::Certificate {
            detail: "ramp drift exceeded the feasibility tolerance".into(),
        });
    }
    // The canonical layer is what makes ramp emissions bit-identical to
    // independent cold solves; a bailout here (budget, free coordinate)
    // would break that promise, so it routes to the per-cap fallback, which
    // reproduces PerCap mode's behavior — bailout included — exactly.
    let canonical = if opts.canonicalize { s.canonicalize()? } else { false };
    if opts.canonicalize && !canonical {
        return Err(LpError::Certificate {
            detail: "canonicalization bailed out during ramp emission".into(),
        });
    }
    s.mark_warm();
    let mut sol = s.extract(problem);
    sol.stats.canonicalized = canonical as u64;

    // The solver's counters are cumulative since the context rebind (the
    // anchor solve); report this emission's delta so sweep aggregation sums
    // to the true totals.
    let raw = sol.stats;
    sol.stats.iterations = raw.iterations.saturating_sub(prev.iterations);
    sol.stats.phase1_iterations = raw.phase1_iterations.saturating_sub(prev.phase1_iterations);
    sol.stats.refactorizations = raw.refactorizations.saturating_sub(prev.refactorizations);
    sol.stats.factor_reuses = raw.factor_reuses.saturating_sub(prev.factor_reuses);
    sol.stats.warm_rejected = raw.warm_rejected.saturating_sub(prev.warm_rejected);
    sol.stats.basis_nnz = raw.basis_nnz.saturating_sub(prev.basis_nnz);
    sol.stats.factor_nnz = raw.factor_nnz.saturating_sub(prev.factor_nnz);
    sol.stats.basis_interval_skips =
        raw.basis_interval_skips.saturating_sub(prev.basis_interval_skips);
    sol.stats.phase1_time_s = 0.0;
    sol.stats.phase2_time_s = 0.0;
    sol.iterations = sol.stats.iterations;
    sol.stats.warm_started = true;
    let mut distinct = 0u64;
    let mut last: Option<u64> = None;
    for &b in bps {
        if last != Some(b.to_bits()) {
            distinct += 1;
            last = Some(b.to_bits());
        }
    }
    sol.stats.ramp_breakpoints = distinct;
    sol.stats.ramp_steps = steps;
    sol.stats.caps_interpolated = (steps == 0) as u64;
    *prev = raw;

    if opts.certify || cfg!(debug_assertions) {
        crate::certificate::certify(problem, &sol)
            .map_err(|e| LpError::Certificate { detail: e.to_string() })?;
        sol.stats.certified = 1;
    }
    sol.stats.wall_time_s = t0.elapsed().as_secs_f64();
    Ok((sol, s.snapshot_basis()))
}

impl Simplex {
    /// Rewrites the internal power-slack bounds for `cap` (replicating the
    /// scaling arithmetic of `rebind`: `upper[n+i] = cap·r_i`) and moves
    /// nonbasic at-upper power slacks onto their new bound.
    fn set_cap_bounds(&mut self, power_rows: &[usize], cap: f64) {
        let n = self.ncols - self.m;
        for &i in power_rows {
            let u = cap * self.row_scale_at(i);
            self.upper[n + i] = u;
            if self.stat[n + i] == VStat::AtUpper {
                self.x[n + i] = u;
            }
        }
    }

    /// Walks the optimal basis from `from_cap` to `to_cap`, pivoting at
    /// every breakpoint (pushed onto `breakpoints`; pivot count added to
    /// `steps`). On `Ok(true)` the solver holds an optimal basis for
    /// `to_cap` with bounds set and basic values advanced. `Ok(false)`
    /// means the walk declined (no eligible entering column, tiny pivot,
    /// or the degeneracy budget ran out) and the caller should fall back
    /// to a per-cap solve; the solver state is then only good for a warm
    /// *restart*, not for continued ramping.
    pub(crate) fn ramp_advance(
        &mut self,
        power_rows: &[usize],
        from_cap: f64,
        to_cap: f64,
        breakpoints: &mut Vec<f64>,
        steps: &mut u64,
    ) -> LpResult<bool> {
        let n = self.ncols - self.m;
        let tiny = self.opts.pivot_tol;
        // Per-row slack bound velocity: r_i for power rows, 0 elsewhere.
        let mut slack_rate = vec![0.0; self.m];
        for &i in power_rows {
            slack_rate[i] = self.row_scale_at(i);
        }
        let mut cap = from_cap;
        // Breakpoints are few by nature; runaway pivoting means degenerate
        // cycling the zero-step exchange cannot escape — hand over to the
        // per-cap path (whose anti-cycling machinery can).
        let budget = 4 * self.m as u64 + self.ncols as u64 + 100;
        let mut pivots = 0u64;
        // Reduced costs are independent of bounds and RHS, so they never
        // move with the cap — only with the basis. Maintain them across
        // crossings with the standard dual update (`d_j ← d_j − θ·α_j`)
        // instead of re-pricing from a fresh BTRAN at every breakpoint;
        // they are refreshed at each refactorization to bound drift. The
        // entering choice only steers the walk — every emission is
        // re-canonicalized, so bit-identity to cold solves is untouched.
        let mut duals: Vec<f64> = Vec::new();
        self.refresh_reduced_costs(&mut duals);
        let mut row = PivotRow::default();
        loop {
            // Direction of the basic values as the cap rises: the nonbasic
            // at-upper power slacks ride their bounds, so the effective RHS
            // moves at Σ r_i·e_i over those rows (slack column is −e_i).
            let mut rhs = SparseVec::zeros(self.m);
            for &i in power_rows {
                if self.stat[n + i] == VStat::AtUpper {
                    rhs.values[i] = slack_rate[i];
                    rhs.pattern.push(i as u32);
                }
            }
            if rhs.pattern.is_empty() {
                // No binding power row: this basis is optimal for every
                // larger cap.
                self.set_cap_bounds(power_rows, to_cap);
                return Ok(true);
            }
            rhs.pattern.sort_unstable();
            let d = self.ftran_vec(rhs);

            // Moving-bound ratio test: basic variable `jb` travels at rate
            // `d_k`; its *upper* bound travels at `slack_rate` when it is a
            // power slack. The smallest cap increase that pins some basic
            // variable to a bound is the next breakpoint.
            let mut best: Option<(usize, bool, f64, f64)> = None; // (slot, hit_upper, delta, rate)
            for k in nz_indices(&d) {
                let dk = d.values[k];
                let jb = self.basis[k] as usize;
                let bound_rate = if jb >= n { slack_rate[jb - n] } else { 0.0 };
                let up_rate = dk - bound_rate;
                let (hit_upper, rate, room) = if up_rate > tiny && self.upper[jb].is_finite() {
                    (true, up_rate, self.upper[jb] - self.x[jb])
                } else if dk < -tiny && self.lower[jb].is_finite() {
                    (false, -dk, self.x[jb] - self.lower[jb])
                } else {
                    continue;
                };
                let delta = (room / rate).max(0.0);
                let better = match best {
                    None => true,
                    Some((bk, _, bd, br)) => {
                        delta < bd || (delta == bd && (rate > br || (rate == br && k < bk)))
                    }
                };
                if better {
                    best = Some((k, hit_upper, delta, rate));
                }
            }

            let remaining = to_cap - cap;
            match best {
                Some((slot, hit_upper, delta, _)) if delta < remaining => {
                    let cap_b = cap + delta;
                    if delta > 0.0 {
                        for k in nz_indices(&d) {
                            let dk = d.values[k];
                            if dk != 0.0 {
                                self.x[self.basis[k] as usize] += delta * dk;
                            }
                        }
                    }
                    self.set_cap_bounds(power_rows, cap_b);
                    // Land the blocker exactly on its bound: the pivot
                    // below relabels it nonbasic there, and an exact
                    // nonbasic value keeps later recomputes drift-free.
                    let jb = self.basis[slot] as usize;
                    self.x[jb] = if hit_upper { self.upper[jb] } else { self.lower[jb] };
                    breakpoints.push(cap_b);
                    if !self.ramp_pivot(slot, hit_upper, &mut duals, &mut row)? {
                        return Ok(false);
                    }
                    *steps += 1;
                    pivots += 1;
                    if pivots > budget {
                        return Ok(false);
                    }
                    cap = cap_b;
                }
                _ => {
                    // No breakpoint before the target: interpolate.
                    for k in nz_indices(&d) {
                        let dk = d.values[k];
                        if dk != 0.0 {
                            self.x[self.basis[k] as usize] += remaining * dk;
                        }
                    }
                    self.set_cap_bounds(power_rows, to_cap);
                    return Ok(true);
                }
            }
        }
    }

    /// Zero-length basis exchange at a breakpoint: the blocking basic
    /// variable at `slot` leaves onto the bound it hit; the dual ratio test
    /// picks the entering column that keeps every reduced cost on its
    /// feasible side for caps just past the breakpoint. `duals` carries the
    /// incrementally maintained reduced costs (see `ramp_advance`); `row` is
    /// the pivot-row scratch. Returns `Ok(false)` when no eligible entering
    /// column exists or the pivot is numerically unusable — never an
    /// infeasibility verdict, since raising the cap only enlarges the
    /// feasible set.
    fn ramp_pivot(
        &mut self,
        slot: usize,
        hit_upper: bool,
        duals: &mut Vec<f64>,
        row: &mut PivotRow,
    ) -> LpResult<bool> {
        let jb = self.basis[slot] as usize;
        // Just past the breakpoint the blocker would cross the bound it
        // hit; the dual step must be able to pull it back toward it.
        let need_up = !hit_upper;

        // Pivot row of B⁻¹: ρ = B⁻ᵀ·e_slot, priced through the pivot-row
        // kernel and the dual phase's single-breakpoint ratio test. The
        // row is kept for the post-pivot dual update.
        let rho = self.btran_unit(slot);
        self.pivot_row(&rho, row);
        let Some((q, aq, _)) = self.dual_ratio_test(row, duals, need_up) else {
            return Ok(false);
        };

        let w = self.ftran_col(q);
        let wk = w.values[slot];
        if wk.abs() <= self.opts.pivot_tol {
            // ρ-row and FTRAN disagree: stale etas. Refactor and retry once
            // (etas are then empty, so a second failure returns false).
            if self.eta_count() == 0 {
                return Ok(false);
            }
            self.refactor()?;
            self.refresh_reduced_costs(duals);
            return self.ramp_pivot(slot, hit_upper, duals, row);
        }

        // Dual update: y' = y + θ·ρ with θ = d_q/α_q, so d'_j = d_j − θ·α_j
        // over the row; the leaving column (α = 1 in its own slot) lands at
        // −θ, the entering one at 0.
        let theta = duals[q] / aq;
        row.update_duals(duals, theta);
        duals[jb] = -theta;
        duals[q] = 0.0;

        // The exchange has step length zero: the vertex is unchanged, only
        // the partition rotates, so no value moves except the relabeled
        // blocker snapping exactly onto its bound.
        self.stat[jb] = if hit_upper { VStat::AtUpper } else { VStat::AtLower };
        self.x[jb] = if hit_upper { self.upper[jb] } else { self.lower[jb] };
        self.stat[q] = VStat::Basic;
        self.basis[slot] = q as u32;
        self.record_eta(&w, slot, wk);
        self.iterations += 1;
        if self.eta_count() >= self.opts.refactor_every {
            self.refactor()?;
            self.refresh_reduced_costs(duals);
        }
        Ok(true)
    }
}
