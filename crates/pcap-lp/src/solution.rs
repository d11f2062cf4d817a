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

/// One counter's value, typed as its [`SolveStats`] field is. `Display`
/// writes the text form the sweep cache and the serve `stats` op carry:
/// integers in decimal, times in Rust's shortest round-trip float form
/// (parsing it back gives the same bits), flags as `1`/`0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue {
    /// A count.
    U64(u64),
    /// A time in seconds.
    F64(f64),
    /// A flag.
    Bool(bool),
}

impl std::fmt::Display for StatValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatValue::U64(v) => write!(f, "{v}"),
            StatValue::F64(v) => write!(f, "{v}"),
            StatValue::Bool(v) => write!(f, "{}", u8::from(*v)),
        }
    }
}

/// How a counter's type folds, subtracts, prints and parses. Counts and
/// times add; a flag ORs (true if *any* folded solve set it).
trait Counter: Copy {
    fn fold(&mut self, other: Self);
    fn minus(self, prev: Self) -> Self;
    fn value(self) -> StatValue;
    /// Strict inverse of [`StatValue`]'s `Display`: `None` on anything else.
    fn parse(text: &str) -> Option<Self>;
}

/// Counts and times add, subtract and parse the same way.
macro_rules! numeric_counter {
    ($ty:ty, $variant:ident, $minus:path) => {
        impl Counter for $ty {
            fn fold(&mut self, other: Self) {
                *self += other;
            }
            fn minus(self, prev: Self) -> Self {
                $minus(self, prev)
            }
            fn value(self) -> StatValue {
                StatValue::$variant(self)
            }
            fn parse(text: &str) -> Option<Self> {
                text.parse().ok()
            }
        }
    };
}

numeric_counter!(u64, U64, u64::saturating_sub);
numeric_counter!(f64, F64, std::ops::Sub::sub);

impl Counter for bool {
    fn fold(&mut self, other: Self) {
        *self |= other;
    }
    fn minus(self, _prev: Self) -> Self {
        self
    }
    fn value(self) -> StatValue {
        StatValue::Bool(self)
    }
    fn parse(text: &str) -> Option<Self> {
        match text {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }
}

/// Delta of a counter the solver accumulates since its last rebind: the
/// part added after `prev`.
fn cumulative<T: Counter>(now: T, prev: T) -> T {
    now.minus(prev)
}

/// Delta of a counter stamped per answer (by `extract` or the caller):
/// the answer's own value.
fn stamped<T: Counter>(now: T, _prev: T) -> T {
    now
}

/// Declares [`SolveStats`] from one table of `doc, name: type, delta` rows
/// and derives everything that handles its fields from it: the struct,
/// [`SolveStats::absorb`], [`SolveStats::since`], and the name/value view
/// ([`SolveStats::fields`], [`SolveStats::set_field`]).
macro_rules! solve_stats {
    ($($(#[doc = $doc:literal])* $name:ident: $ty:ty, $delta:ident;)*) => {
        /// Observability counters for a single simplex solve.
        ///
        /// Every solve populates these (a successful solve always has
        /// `wall_time_s > 0`); callers that aggregate over many solves —
        /// the power-cap sweep, window decomposition — fold instances
        /// together with [`SolveStats::absorb`].
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct SolveStats {
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        impl SolveStats {
            /// Every field name, in table order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Folds another solve's counters into this one. Counts and
            /// times add; flags become true if *any* folded solve set them.
            pub fn absorb(&mut self, other: &SolveStats) {
                $(Counter::fold(&mut self.$name, other.$name);)*
            }

            /// This answer's own counters, given the solver's counters
            /// `prev` at the previous answer of the same run: counters the
            /// solver accumulates subtract `prev`, per-answer stamps stay.
            pub(crate) fn since(&self, prev: &SolveStats) -> SolveStats {
                SolveStats { $($name: $delta(self.$name, prev.$name),)* }
            }

            /// Every field as `(name, value)`, in table order.
            pub fn fields(&self) -> Vec<(&'static str, StatValue)> {
                vec![$((stringify!($name), Counter::value(self.$name)),)*]
            }

            /// Sets field `name` from its [`StatValue`] text form. `None`
            /// for an unknown name or text that is not exactly a value of
            /// the field's type.
            pub fn set_field(&mut self, name: &str, text: &str) -> Option<()> {
                $(if name == stringify!($name) {
                    self.$name = Counter::parse(text)?;
                    return Some(());
                })*
                None
            }
        }
    };
}

solve_stats! {
    /// Total simplex pivots (phase 1 + phase 2).
    iterations: u64, cumulative;
    /// Pivots spent restoring primal feasibility: the primal phase 1 for
    /// cold starts, the dual simplex restoration (plus any primal phase-1
    /// fallback) for warm starts.
    phase1_iterations: u64, cumulative;
    /// Basis refactorizations (initial factorization included).
    refactorizations: u64, cumulative;
    /// Refactorizations *skipped* because a cached factorization already
    /// matched the basis bit for bit — context reuse
    /// ([`crate::solve_with_context`]) feeding a warm basis straight back
    /// into the solver that produced it. Each reuse saves one factorization
    /// relative to `refactorizations + factor_reuses` total factor demands.
    factor_reuses: u64, cumulative;
    /// Warm starts that were rejected: a caller-supplied [`crate::Basis`]
    /// was dropped because its dimensions/partition no longer matched the
    /// problem or its basis matrix had become singular, and the solve fell
    /// back to the cold slack basis. Counting it makes warm-start
    /// regressions in basis-chaining callers (the sweep, the `pcap-serve`
    /// worker pool) observable.
    warm_rejected: u64, cumulative;
    /// Cumulative nonzeros of the basis matrices handed to the
    /// factorization engine, summed over all refactorizations.
    basis_nnz: u64, cumulative;
    /// Cumulative nonzeros of the factors produced: `nnz(L) + nnz(U)` for
    /// the sparse engine, `m²` (the dense storage) for the dense engine.
    /// `factor_nnz / basis_nnz` is the average fill-in ratio.
    factor_nnz: u64, cumulative;
    /// Wall time spent in phase 1.
    phase1_time_s: f64, cumulative;
    /// Wall time spent in phase 2.
    phase2_time_s: f64, cumulative;
    /// End-to-end wall time of the solve (setup + both phases + extraction).
    wall_time_s: f64, stamped;
    /// Whether the solve started from a caller-supplied basis.
    warm_started: bool, stamped;
    /// Number of solves folded into this instance (1 for a single solve).
    solves: u64, stamped;
    /// Solves that passed the independent certificate check
    /// ([`crate::certificate`]) — equal to `solves` in debug/test builds
    /// and under [`crate::SolverOptions::certify`], 0 otherwise.
    certified: u64, stamped;
    /// Solves whose answer was driven to the canonical (lexicographically
    /// minimal) optimal vertex by the secondary phase
    /// ([`crate::canonical`]). Equal to `solves` under the default
    /// [`crate::SolverOptions::canonicalize`]; a shortfall means some
    /// solve bailed out of canonicalization (iteration budget, free
    /// coordinate) and returned a merely-optimal vertex, which downstream
    /// bitwise comparisons must not assume is unique.
    canonicalized: u64, stamped;
    /// Basis-change breakpoints crossed by the parametric cap ramp
    /// ([`crate::parametric`]) while producing this solve's answer. Zero for
    /// ordinary per-cap solves and for ramp emissions inside a single
    /// linearity interval.
    ramp_breakpoints: u64, stamped;
    /// Ramp pivots (zero-step dual-ratio-test basis exchanges) performed by
    /// the parametric ramp for this solve. Unlike `iterations` these never
    /// include phase-1/phase-2 work — they are pure homotopy steps.
    ramp_steps: u64, stamped;
    /// Grid caps the ramp answered by interpolation alone: the warm basis
    /// stayed optimal across the interval, so the emission cost one
    /// basic-value recompute and no pivots.
    caps_interpolated: u64, stamped;
    /// Grid caps the ramp answered with a full per-cap solve instead: the
    /// ramp declined (numerical guard) or the grid was not strictly
    /// ascending. The anchor solve and infeasible caps are not counted.
    ramp_fallbacks: u64, stamped;
    /// Solves whose dual restoration priced with the Dantzig rule instead of
    /// Devex — the adaptive pricing switch picks per window by shape.
    pricing_dantzig: u64, cumulative;
    /// Warm solves answered by the basis-interval skip: the inherited basis
    /// re-certified primal feasible and dual optimal at the new cap, so the
    /// solve returned after one BTRAN with zero pivots.
    basis_interval_skips: u64, cumulative;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveStats {
        SolveStats {
            iterations: 7,
            basis_nnz: 120,
            phase1_time_s: 0.1 + 0.2,
            wall_time_s: 1e-7,
            warm_started: true,
            solves: 1,
            ramp_steps: 3,
            pricing_dantzig: 1,
            ..SolveStats::default()
        }
    }

    #[test]
    fn fields_round_trip_bitwise_through_their_text_form() {
        let s = sample();
        assert_eq!(s.fields().len(), SolveStats::FIELDS.len());
        let mut back = SolveStats::default();
        for (name, value) in s.fields() {
            back.set_field(name, &value.to_string()).unwrap();
        }
        assert_eq!(back, s);
        assert_eq!(back.phase1_time_s.to_bits(), s.phase1_time_s.to_bits());
    }

    #[test]
    fn set_field_is_strict_per_type() {
        let mut s = SolveStats::default();
        assert!(s.set_field("no_such_counter", "1").is_none());
        assert!(s.set_field("iterations", "-1").is_none());
        assert!(s.set_field("iterations", "1.5").is_none());
        assert!(s.set_field("wall_time_s", "").is_none());
        for bad in ["", "x", "true", "2"] {
            assert!(s.set_field("warm_started", bad).is_none(), "{bad:?}");
        }
        assert_eq!(s, SolveStats::default(), "a rejected value must not land");
    }

    #[test]
    fn since_subtracts_accumulated_counters_and_keeps_stamps() {
        let prev = sample();
        let mut now = prev;
        now.iterations += 5;
        now.ramp_steps = 2;
        let d = now.since(&prev);
        assert_eq!(d.iterations, 5);
        assert_eq!(d.basis_nnz, 0);
        assert_eq!(d.pricing_dantzig, 0, "a dual phase that ran before `prev` is not repeated");
        assert_eq!(d.phase1_time_s.to_bits(), 0.0f64.to_bits());
        assert_eq!((d.solves, d.ramp_steps, d.warm_started), (1, 2, true));
        assert_eq!(d.wall_time_s, now.wall_time_s);

        let mut total = d;
        total.absorb(&prev);
        assert_eq!(total.iterations, 12);
        assert_eq!(total.solves, 2);
        assert!(total.warm_started);
    }
}
