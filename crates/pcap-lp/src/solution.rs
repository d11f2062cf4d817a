//! Solve results: status, primal/dual values, and certification helpers.

use crate::problem::{Problem, Sense, VarId};

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// Observability counters for a single simplex solve.
///
/// Every solve populates these (a successful solve always has
/// `iterations_total() > 0` pivot attempts recorded via phase timings and
/// `wall_time_s > 0`); callers that aggregate over many solves — the
/// power-cap sweep, window decomposition — fold instances together with
/// [`SolveStats::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Total simplex pivots (phase 1 + phase 2).
    pub iterations: u64,
    /// Pivots spent restoring primal feasibility: the primal phase 1 for
    /// cold starts, the dual simplex restoration (plus any primal phase-1
    /// fallback) for warm starts.
    pub phase1_iterations: u64,
    /// Basis refactorizations (initial factorization included).
    pub refactorizations: u64,
    /// Refactorizations *skipped* because a cached factorization already
    /// matched the basis bit for bit — context reuse
    /// ([`crate::solve_with_context`]) feeding a warm basis straight back
    /// into the solver that produced it. Each reuse saves one factorization
    /// relative to `refactorizations + factor_reuses` total factor demands.
    pub factor_reuses: u64,
    /// Warm starts that were rejected: a caller-supplied [`crate::Basis`]
    /// was dropped because its dimensions/partition no longer matched the
    /// problem or its basis matrix had become singular, and the solve fell
    /// back to the cold slack basis. Previously this fallback was silent;
    /// counting it makes warm-start regressions in basis-chaining callers
    /// (the sweep, the `pcap-serve` worker pool) observable.
    pub warm_rejected: u64,
    /// Cumulative nonzeros of the basis matrices handed to the
    /// factorization engine, summed over all refactorizations.
    pub basis_nnz: u64,
    /// Cumulative nonzeros of the factors produced: `nnz(L) + nnz(U)` for
    /// the sparse engine, `m²` (the dense storage) for the dense engine.
    /// `factor_nnz / basis_nnz` is the average fill-in ratio.
    pub factor_nnz: u64,
    /// Wall time spent in phase 1.
    pub phase1_time_s: f64,
    /// Wall time spent in phase 2.
    pub phase2_time_s: f64,
    /// End-to-end wall time of the solve (setup + both phases + extraction).
    pub wall_time_s: f64,
    /// Whether the solve started from a caller-supplied basis.
    pub warm_started: bool,
    /// Number of solves folded into this instance (1 for a single solve).
    pub solves: u64,
    /// Solves that passed the independent certificate check
    /// ([`crate::certificate`]) — equal to `solves` in debug/test builds
    /// and under [`crate::SolverOptions::certify`], 0 otherwise.
    pub certified: u64,
    /// Solves whose answer was driven to the canonical (lexicographically
    /// minimal) optimal vertex by the secondary phase
    /// ([`crate::canonical`]). Equal to `solves` under the default
    /// [`crate::SolverOptions::canonicalize`]; a shortfall means some
    /// solve bailed out of canonicalization (iteration budget, free
    /// coordinate) and returned a merely-optimal vertex, which downstream
    /// bitwise comparisons must not assume is unique.
    pub canonicalized: u64,
    /// Basis-change breakpoints crossed by the parametric cap ramp
    /// ([`crate::parametric`]) while producing this solve's answer. Zero for
    /// ordinary per-cap solves and for ramp emissions inside a single
    /// linearity interval.
    pub ramp_breakpoints: u64,
    /// Ramp pivots (zero-step dual-ratio-test basis exchanges) performed by
    /// the parametric ramp for this solve. Unlike `iterations` these never
    /// include phase-1/phase-2 work — they are pure homotopy steps.
    pub ramp_steps: u64,
    /// Grid caps the ramp answered by interpolation alone: the warm basis
    /// stayed optimal across the interval, so the emission cost one
    /// basic-value recompute and no pivots.
    pub caps_interpolated: u64,
    /// Solves whose dual restoration priced with the Dantzig rule instead of
    /// Devex — the adaptive pricing switch picks per window by shape.
    pub pricing_dantzig: u64,
    /// Warm solves answered by the basis-interval skip: the inherited basis
    /// re-certified primal feasible and dual optimal at the new cap, so the
    /// solve returned after one BTRAN with zero pivots.
    pub basis_interval_skips: u64,
}

impl SolveStats {
    /// Folds another solve's counters into this one. Times and pivot counts
    /// add; `warm_started` becomes true if *any* folded solve was warm.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.refactorizations += other.refactorizations;
        self.factor_reuses += other.factor_reuses;
        self.warm_rejected += other.warm_rejected;
        self.basis_nnz += other.basis_nnz;
        self.factor_nnz += other.factor_nnz;
        self.phase1_time_s += other.phase1_time_s;
        self.phase2_time_s += other.phase2_time_s;
        self.wall_time_s += other.wall_time_s;
        self.warm_started |= other.warm_started;
        self.solves += other.solves;
        self.certified += other.certified;
        self.canonicalized += other.canonicalized;
        self.ramp_breakpoints += other.ramp_breakpoints;
        self.ramp_steps += other.ramp_steps;
        self.caps_interpolated += other.caps_interpolated;
        self.pricing_dantzig += other.pricing_dantzig;
        self.basis_interval_skips += other.basis_interval_skips;
    }
}

/// An optimal LP solution together with its dual certificate.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Always [`Status::Optimal`] for solutions returned by `solve`;
    /// non-optimal terminations surface as errors instead.
    pub status: Status,
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Primal values, indexed by variable.
    pub values: Vec<f64>,
    /// Row duals `y` (shadow prices), in the minimization convention:
    /// for a `>=` row the dual is non-negative, for `<=` non-positive.
    pub duals: Vec<f64>,
    /// Reduced costs of the structural variables, minimization convention.
    pub reduced_costs: Vec<f64>,
    /// Number of simplex pivots performed.
    pub iterations: u64,
    /// Detailed solver telemetry for this solve.
    pub stats: SolveStats,
}

impl Solution {
    /// Primal value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Dual value (shadow price) of row `row`.
    pub fn dual(&self, row: usize) -> f64 {
        self.duals[row]
    }

    /// Dual objective value of the accompanying certificate, computed
    /// against `problem` in the **minimization** convention:
    /// `b'y + Σ l_j·max(d_j,0) + Σ u_j·min(d_j,0)` over finite bounds,
    /// where `d` are reduced costs. For a maximization problem the result is
    /// negated back into the problem's sense.
    ///
    /// Strong duality requires this to equal [`Solution::objective`]; the
    /// difference is exposed by [`Solution::duality_gap`] and is the
    /// optimality certificate checked by the property tests.
    pub fn dual_objective(&self, problem: &Problem) -> f64 {
        let mut obj = 0.0;
        for (row, c) in problem.cons.iter().enumerate() {
            let y = self.duals[row];
            if y == 0.0 {
                continue;
            }
            let (lo, hi) = c.bound.interval();
            // The dual pairs with whichever side of the row is active; for a
            // range row the sign of y selects the side.
            let b = if y > 0.0 { lo } else { hi };
            if b.is_finite() {
                obj += y * b;
            }
        }
        for (j, var) in problem.vars.iter().enumerate() {
            let d = self.reduced_costs[j];
            if d > 0.0 && var.lower.is_finite() {
                obj += d * var.lower;
            } else if d < 0.0 && var.upper.is_finite() {
                obj += d * var.upper;
            }
        }
        match problem.sense {
            Sense::Minimize => obj,
            Sense::Maximize => -obj,
        }
    }

    /// |primal objective − dual objective|, normalized by the objective
    /// magnitude. Near zero at a true optimum.
    pub fn duality_gap(&self, problem: &Problem) -> f64 {
        let d = self.dual_objective(problem);
        (self.objective - d).abs() / self.objective.abs().max(1.0)
    }
}
