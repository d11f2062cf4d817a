//! Bounded-variable revised simplex.
//!
//! The solver works on the *computational form*
//!
//! ```text
//!     minimize  c'x            (maximization is handled by negating c)
//!     subject   A·x − s = 0    (one logical/slack variable per row)
//!               l ≤ [x; s] ≤ u
//! ```
//!
//! where the slack `s_i` equals the row activity and carries the row's
//! bounds, so the equality right-hand side is identically zero. The initial
//! basis is the (always nonsingular) slack basis.
//!
//! Feasibility is attained with a **composite phase 1**: basic variables
//! outside their bounds receive ±1 costs, the ratio test lets them travel to
//! (but not through) their violated bound, and the phase ends when the
//! largest primal violation falls under the feasibility tolerance. Phase 2
//! then optimizes the true objective with the classic bounded-variable rules
//! (bound flips included).
//!
//! The basis inverse is represented as an LU factorization plus a list of
//! product-form eta updates; the factorization is rebuilt every
//! [`SolverOptions::refactor_every`] pivots (and on numerical distress),
//! which also recomputes the basic values from scratch to wash out drift.
//! Two interchangeable engines provide the factorization, selected by
//! [`SolverOptions::linear_algebra`]:
//!
//! * [`LinearAlgebra::Sparse`] (default) — Markowitz-ordered sparse LU over
//!   the CSC constraint matrix with hyper-sparse FTRAN/BTRAN and partial
//!   pricing (see [`crate::sparse`]);
//! * [`LinearAlgebra::Dense`] — the historical dense LU with full Dantzig
//!   scans (see [`crate::dense`]), kept bit-for-bit unchanged as the
//!   correctness oracle the differential tests solve against.
//!
//! Dantzig pricing is used until a run of degenerate pivots triggers Bland's
//! rule (a full lowest-index scan under either engine), which guarantees
//! termination.

use crate::dense::{DenseMatrix, LuFactors};
use crate::error::{LpError, LpResult};
use crate::problem::{Problem, Sense};
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::{nz_indices, CscMatrix, LuScratch, SparseLu, SparseLuOptions, SparseVec};
use std::cell::RefCell;
use std::time::Instant;

/// Tunable tolerances and limits for [`solve_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Primal feasibility tolerance on variable bounds.
    pub feas_tol: f64,
    /// Dual feasibility (reduced-cost) tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable |pivot| in the ratio-test column.
    pub pivot_tol: f64,
    /// Rebuild the LU factorization after this many eta updates.
    pub refactor_every: usize,
    /// Hard cap on simplex pivots; `None` derives one from the problem size.
    pub max_iterations: Option<u64>,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: u32,
    /// Apply geometric-mean row/column equilibration (powers of two, so it
    /// is exactly invertible) before solving. Improves conditioning on
    /// badly scaled models at negligible cost; results are bit-identical on
    /// already well-scaled ones.
    pub scale: bool,
    /// Run the independent certificate check ([`crate::certificate`]) on
    /// every successful solve, failing with [`LpError::Certificate`] when a
    /// claimed optimum does not verify. Debug/test builds always certify;
    /// this flag extends the check to release builds (the bench harness's
    /// `--certify` path).
    pub certify: bool,
    /// Run the canonical-optimum secondary phase ([`crate::canonical`])
    /// after primal optimality: a lexicographic clean-up restricted to the
    /// optimal face so every solve of the same problem — warm or cold,
    /// sparse or dense — returns the *same* optimal vertex bit for bit.
    /// Costs one extra pricing pass on non-degenerate problems and a few
    /// bounded mini-phases on degenerate ones. On by default; turn off only
    /// for throwaway solves where any alternate optimum is acceptable.
    pub canonicalize: bool,
    /// Which engine factors the basis and runs FTRAN/BTRAN.
    pub linear_algebra: LinearAlgebra,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            pivot_tol: 1e-8,
            refactor_every: 100,
            max_iterations: None,
            bland_trigger: 200,
            scale: true,
            certify: false,
            canonicalize: true,
            linear_algebra: LinearAlgebra::default(),
        }
    }
}

/// Linear-algebra engine for the simplex basis (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearAlgebra {
    /// Markowitz-ordered sparse LU with hyper-sparse triangular solves and
    /// partial pricing. The default: solve cost tracks basis nonzeros.
    #[default]
    Sparse,
    /// Dense LU with full Dantzig scans. Fallback and differential oracle;
    /// its pivot-for-pivot behavior is unchanged from when it was the only
    /// engine.
    Dense,
}

/// Solves `problem` with default options.
pub fn solve(problem: &Problem) -> LpResult<Solution> {
    solve_with(problem, &SolverOptions::default())
}

/// Solves `problem` with explicit [`SolverOptions`].
pub fn solve_with(problem: &Problem, opts: &SolverOptions) -> LpResult<Solution> {
    solve_with_basis(problem, opts, None).map(|(sol, _)| sol)
}

/// A snapshot of a simplex basis partition, opaque to callers.
///
/// Returned by [`solve_with_basis`] and fed back in to **warm-start** a
/// subsequent solve of a problem with the *same* constraint matrix and
/// variable layout but possibly different bounds/right-hand sides — the
/// power-cap sweep use case, where adjacent caps differ only in the power
/// rows' RHS. The snapshot records which columns are basic and, for each
/// nonbasic column, which bound it rests at.
///
/// A warm basis is only a starting point: if it does not match the problem's
/// dimensions or its basis matrix has become singular, the solver falls back
/// to the cold slack basis (counted in `SolveStats::warm_rejected`), so
/// correctness never depends on the snapshot being usable.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Column index occupying each of the `m` basis slots.
    basis: Vec<u32>,
    /// Per-column status over all `n + m` columns (structurals then slacks).
    stat: Vec<VStat>,
}

impl Basis {
    /// `(rows, columns)` the snapshot was taken from; a warm start requires
    /// the target problem to match exactly.
    pub fn dims(&self) -> (usize, usize) {
        (self.basis.len(), self.stat.len())
    }

    /// Whether this snapshot's dimensions match `problem`, i.e. whether
    /// [`solve_with_basis`] would actually adopt it rather than silently
    /// falling back to a cold start. Pools that keep warm bases keyed by
    /// problem shape (the `pcap-serve` worker pool, the sweep context) use
    /// this to drop stale state eagerly instead of paying for a doomed
    /// adoption attempt on every solve.
    pub fn compatible_with(&self, problem: &Problem) -> bool {
        let m = problem.num_constraints();
        self.basis.len() == m && self.stat.len() == problem.num_vars() + m
    }
}

/// Solves `problem`, optionally warm-starting from a previous [`Basis`], and
/// returns the solution together with the final basis for chaining.
///
/// The warm basis must come from a problem with the same matrix coefficients
/// and dimensions (only bounds/RHS may differ); otherwise it is ignored and
/// the solve starts cold. [`Solution::stats`] reports whether the warm start
/// was actually adopted.
pub fn solve_with_basis(
    problem: &Problem,
    opts: &SolverOptions,
    warm: Option<&Basis>,
) -> LpResult<(Solution, Basis)> {
    let mut ctx = SolverContext::default();
    solve_with_context(problem, opts, warm, &mut ctx)
}

/// Reusable solver state for repeated solves over **one constraint matrix**.
///
/// Building a [`Simplex`] is not free: the scaled `[A | −I]` matrix, its
/// CSC/CSR forms and the equilibration scales are all recomputed per call,
/// and for warm starts whose basis is already optimal that fixed setup (plus
/// the two basis factorizations it forces) dominates the solve. A
/// `SolverContext` caches the built solver between calls so
/// [`solve_with_context`] can *rebind* the new bounds/costs onto the cached
/// matrix instead of rebuilding it — and, when the warm basis is exactly the
/// basis the cached factorization was computed for, reuse the factorization
/// outright (counted in [`SolveStats::factor_reuses`]).
///
/// The trust contract mirrors the warm-[`Basis`] one: consecutive problems
/// handed to the same context must share their constraint-matrix
/// coefficients and variable layout — only bounds, right-hand sides, costs
/// and the optimization sense may change (the power-cap sweep rewrites power
/// rows' RHS only). Dimension or nonzero-count changes, or different
/// [`SolverOptions`], are detected cheaply and rebuild from scratch; a
/// *coefficient* change with identical shape is not detected and yields
/// wrong answers, exactly as feeding a foreign warm basis would.
///
/// Reuse changes latency, never bytes: both engines' factorizations are
/// deterministic functions of the basis column set, so a context hit
/// produces bit-identical solutions to a cold rebuild (pinned by the sweep
/// test-suite).
#[derive(Default)]
pub struct SolverContext {
    simplex: Option<Simplex>,
}

impl std::fmt::Debug for SolverContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverContext").field("primed", &self.simplex.is_some()).finish()
    }
}

impl SolverContext {
    /// An empty context; the first solve through it builds and caches state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a built solver is cached (a compatible solve skips setup).
    pub fn is_primed(&self) -> bool {
        self.simplex.is_some()
    }

    /// Drops the cached solver; the next solve rebuilds from scratch.
    pub fn clear(&mut self) {
        self.simplex = None;
    }

    /// The cached solver, if primed (the parametric ramp continues a solve
    /// in place instead of going back through [`solve_with_context`]).
    pub(crate) fn simplex_mut(&mut self) -> Option<&mut Simplex> {
        self.simplex.as_mut()
    }
}

/// [`solve_with_basis`] with a reusable [`SolverContext`]: repeated solves
/// of same-matrix problems (a cap sweep's window re-solved at every cap)
/// skip matrix construction/scaling and, when the warm basis still matches
/// the cached factorization, the factorization itself. See [`SolverContext`]
/// for the same-matrix trust contract.
pub fn solve_with_context(
    problem: &Problem,
    opts: &SolverOptions,
    warm: Option<&Basis>,
    ctx: &mut SolverContext,
) -> LpResult<(Solution, Basis)> {
    let t0 = Instant::now();
    problem.validate()?;
    match ctx.simplex.as_mut() {
        Some(s) if s.can_rebind(problem, opts) => s.rebind(problem),
        _ => ctx.simplex = Some(Simplex::new(problem, opts.clone())),
    }
    let s = ctx.simplex.as_mut().expect("context primed above");
    if let Some(b) = warm {
        s.adopt_basis(b);
    }
    // Canonical-optimum selection: at a degenerate optimum the primal
    // phases stop at whichever optimal vertex the pivot path reached; the
    // secondary phase walks to the lexicographically minimal one so the
    // extracted solution is a function of the problem alone.
    let run_and_canonicalize = |s: &mut Simplex| -> LpResult<bool> {
        s.run()?;
        if opts.canonicalize {
            s.canonicalize()
        } else {
            Ok(false)
        }
    };
    // A warm basis can steer the pivot path into numerical trouble a cold
    // start avoids — a mid-solve refactorization finding the basis singular,
    // or an iteration stall. Warm starting must never change conclusions
    // (the contract the sweep is built on), so such failures retry once
    // from the slack basis; canonicalization makes the retried answer
    // bit-identical to a plain cold solve. Infeasible/Unbounded are genuine
    // conclusions, not path accidents, and propagate as before.
    let canonical = match run_and_canonicalize(s) {
        Err(LpError::SingularBasis | LpError::IterationLimit { .. }) if s.warm_started => {
            s.warm_rejected = true;
            s.reset_slack_basis();
            run_and_canonicalize(s)?
        }
        r => r?,
    };
    let mut sol = s.extract(problem);
    sol.stats.canonicalized = canonical as u64;
    // Every solve is re-verified by the independent certificate checker in
    // debug/test builds; `opts.certify` extends that to release builds.
    if opts.certify || cfg!(debug_assertions) {
        crate::certificate::certify(problem, &sol)
            .map_err(|e| LpError::Certificate { detail: e.to_string() })?;
        sol.stats.certified = 1;
    }
    sol.stats.wall_time_s = t0.elapsed().as_secs_f64();
    let basis = Basis { basis: s.basis.clone(), stat: s.stat.clone() };
    Ok((sol, basis))
}

/// Column status in the current basis partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VStat {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable pinned at value 0.
    Free,
}

/// One product-form update: the pivot column `w = B⁻¹·a_q` at basis slot `pos`.
struct Eta {
    pos: usize,
    /// Nonzero entries of `w` excluding the pivot slot, slots ascending.
    entries: Vec<(u32, f64)>,
    pivot: f64,
}

/// The current basis factorization, from whichever engine is selected.
/// One instance lives per `Simplex`, so the variant size skew is
/// irrelevant and boxing would only add an indirection to every solve.
#[allow(clippy::large_enum_variant)]
enum Factor {
    /// No factorization yet (or `m == 0`).
    None,
    Dense(LuFactors),
    Sparse(SparseLu),
}

/// Mutable workspaces shared by the `&self` solve kernels (hence the
/// `RefCell`): the sparse-LU scratch plus an `ncols`-sized mark array for
/// nonzero-pattern bookkeeping in eta application.
/// Invariant between uses: `mark` is all false.
struct SimplexScratch {
    lu: LuScratch,
    mark: Vec<bool>,
}

/// Safety factor on the row-wise work estimate of [`PivotRow::compute`]:
/// the scatter branch runs only while `SCATTER_WORK_MULT · Σ row_nnz` over
/// `y`'s nonzero rows stays within `nnz(A)`, covering the mark/push/sort
/// bookkeeping the column scan does not pay. Calibrated on the fig09 CoMD
/// sweep, where 1, 2 and 4 measure within noise of each other; 2 keeps the
/// most headroom on both sides.
const SCATTER_WORK_MULT: usize = 2;

/// The pivot-row kernel: `α = yᵀA` over the *live* columns that `y`'s
/// nonzero rows touch — every other column has `α = 0` exactly. One kernel
/// serves every row-space pricing site: the dual phase and the cap ramp
/// price the pivot row `ρ = B⁻ᵀe_slot`, the lexicographic phase prices the
/// duals of a coordinate objective, which are the same kind of row.
///
/// Two branches compute the same bits (up to the sign of zero): a
/// row-wise **scatter** over the CSR mirror, touching only the entries of
/// `y`'s rows, and the **column scan** of every live column. Both
/// accumulate each `α_j` over `y`'s rows in ascending order, the order a
/// column dot visits them, and rows with `y_r = 0` contribute nothing but
/// signed zeros; so `α_j` is bit-identical to `Σ_r y_r·a_rj` summed
/// column-wise, and `0 − α_j` to the column-dot reduced cost of a
/// zero-cost column. [`Self::compute`] picks the branch by estimated work.
#[derive(Debug, Default)]
pub(crate) struct PivotRow {
    /// `alpha[j]` is valid for the columns in `touched` only; other entries
    /// are stale, so no per-call clearing is needed.
    alpha: Vec<f64>,
    /// Live columns with at least one nonzero `y` row, ascending.
    touched: Vec<u32>,
    /// `y`'s nonzero rows, ascending.
    rows: Vec<u32>,
    /// Scatter first-touch marks; all false between calls.
    mark: Vec<bool>,
}

impl PivotRow {
    /// Computes `α` over the columns for which `live` holds. The scatter
    /// pays off only while the *entries* of `y`'s rows are few, and rows
    /// are far from uniformly dense here (a power row couples every active
    /// task's configuration columns, a precedence row touches a handful),
    /// so the choice compares the actual scatter work — `Σ row_nnz` over
    /// `y`'s nonzero rows — against one pass over all of `A`.
    fn compute(&mut self, a: &CscMatrix, y: &SparseVec, live: impl Fn(usize) -> bool) {
        self.begin(a, y);
        let work: usize = self.rows.iter().map(|&r| a.row_nnz(r as usize)).sum();
        if work * SCATTER_WORK_MULT <= a.nnz() {
            self.scatter(a, y, live);
        } else {
            self.scan(a, y, live);
        }
    }

    /// Live columns with a nonzero `y` row, ascending.
    #[inline]
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// `α_j` of a column in [`Self::touched`].
    #[inline]
    pub(crate) fn alpha(&self, j: usize) -> f64 {
        self.alpha[j]
    }

    /// The dual update `d_j ← d_j − θ·α_j` over the touched columns (all
    /// other columns have `α_j = 0`).
    pub(crate) fn update_duals(&self, d: &mut [f64], theta: f64) {
        for &ju in &self.touched {
            let aj = self.alpha[ju as usize];
            if aj != 0.0 {
                d[ju as usize] -= theta * aj;
            }
        }
    }

    /// Sizes the scratch for `a` and records `y`'s nonzero rows in
    /// ascending order (a tracked pattern is sorted and a superset of the
    /// nonzeros; a dense vector is scanned).
    fn begin(&mut self, a: &CscMatrix, y: &SparseVec) {
        if self.alpha.len() < a.num_cols() {
            self.alpha.resize(a.num_cols(), 0.0);
            self.mark.resize(a.num_cols(), false);
        }
        self.touched.clear();
        self.rows.clear();
        if y.dense {
            self.rows.extend((0..y.values.len() as u32).filter(|&r| y.values[r as usize] != 0.0));
        } else {
            debug_assert!(y.pattern.windows(2).all(|w| w[0] < w[1]));
            self.rows.extend(y.pattern.iter().copied().filter(|&r| y.values[r as usize] != 0.0));
        }
    }

    /// Row-wise branch over the CSR mirror, after [`Self::begin`].
    /// `alpha[j]` is assigned on first touch and accumulated after.
    fn scatter(&mut self, a: &CscMatrix, y: &SparseVec, live: impl Fn(usize) -> bool) {
        for &r in &self.rows {
            let rv = y.values[r as usize];
            for (j, v) in a.row(r as usize) {
                let ju = j as usize;
                if self.mark[ju] {
                    self.alpha[ju] += rv * v;
                } else {
                    self.mark[ju] = true;
                    self.touched.push(j);
                    self.alpha[ju] = rv * v;
                }
            }
        }
        for &j in &self.touched {
            self.mark[j as usize] = false;
        }
        self.touched.retain(|&j| live(j as usize));
        self.touched.sort_unstable();
    }

    /// Column-scan branch, after [`Self::begin`]: one column dot per live
    /// column.
    fn scan(&mut self, a: &CscMatrix, y: &SparseVec, live: impl Fn(usize) -> bool) {
        for j in 0..a.num_cols() {
            if !live(j) {
                continue;
            }
            let mut aj = 0.0;
            let mut hit = false;
            for (r, v) in a.col(j) {
                let yr = y.values[r as usize];
                hit |= yr != 0.0;
                aj += yr * v;
            }
            if hit {
                self.alpha[j] = aj;
                self.touched.push(j as u32);
            }
        }
    }
}

pub(crate) struct Simplex {
    pub(crate) m: usize,
    pub(crate) ncols: usize,
    /// Constraint matrix `[A | −I]` (scaled) in CSC form with a CSR mirror,
    /// built once per solve; both engines gather basis columns from it.
    a: CscMatrix,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    /// Phase-2 costs in minimization form.
    pub(crate) cost: Vec<f64>,
    sign: f64,

    pub(crate) basis: Vec<u32>,
    pub(crate) stat: Vec<VStat>,
    pub(crate) x: Vec<f64>,

    factor: Factor,
    /// The basis (slot order included) `factor` was computed for; compared
    /// against `basis` to reuse a still-valid factorization instead of
    /// refactoring (context reuse, warm starts with an unchanged basis).
    factor_basis: Vec<u32>,
    etas: Vec<Eta>,
    scratch: RefCell<SimplexScratch>,

    /// Row scales `r_i` and structural column scales `s_j` (powers of two;
    /// all 1.0 when scaling is disabled). Scaled data: `a'_ij = a_ij r_i s_j`,
    /// `cost'_j = cost_j s_j`, bounds `l'_j = l_j / s_j`; slack columns keep
    /// coefficient −1 with their bounds scaled by `r_i`.
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,

    pub(crate) opts: SolverOptions,
    pub(crate) iterations: u64,
    pub(crate) degenerate_run: u32,
    /// Partial-pricing rotation point (sparse engine, non-Bland pricing).
    pub(crate) pricing_cursor: usize,
    /// Pivot-row scratch of the lexicographic phase's pricing and face
    /// freezes.
    pub(crate) coord_row: PivotRow,
    /// Every column index, ascending: the pricing candidates of the
    /// phase-1 and phase-2 objectives.
    all_cols: Vec<u32>,
    /// Final duals/reduced costs filled in by `run`.
    duals: Vec<f64>,
    reduced: Vec<f64>,

    // Telemetry (surfaced through `Solution::stats`).
    refactorizations: u64,
    factor_reuses: u64,
    phase1_iterations: u64,
    phase1_time_s: f64,
    phase2_time_s: f64,
    warm_started: bool,
    warm_rejected: bool,
    basis_nnz: u64,
    factor_nnz: u64,
    /// Whether the last dual restoration priced rows with the plain
    /// largest-violation (Dantzig) rule instead of dual Devex — the
    /// per-shape pricing choice of [`Simplex::prefer_dual_devex`].
    dual_pricing_dantzig: bool,
    /// Warm solves answered by the one-BTRAN optimality re-check without
    /// entering either simplex phase (basis-interval skipping).
    interval_skips: u64,
}

impl Simplex {
    fn new(problem: &Problem, opts: SolverOptions) -> Self {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let ncols = n + m;
        let sign = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ncols];
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        let mut cost = Vec::with_capacity(ncols);
        for v in &problem.vars {
            lower.push(v.lower);
            upper.push(v.upper);
            cost.push(sign * v.cost);
        }
        for (i, c) in problem.cons.iter().enumerate() {
            for &(v, coeff) in &c.terms {
                cols[v.index()].push((i as u32, coeff));
            }
            let (lo, hi) = c.bound.interval();
            let slack = n + i;
            cols[slack].push((i as u32, -1.0));
            lower.push(lo);
            upper.push(hi);
            cost.push(0.0);
        }

        // Geometric-mean equilibration over the structural block, rounded
        // to exact powers of two so the transform is invertible without
        // roundoff. Two passes of row-then-column scaling.
        let mut row_scale = vec![1.0_f64; m];
        let mut col_scale = vec![1.0_f64; ncols];
        if opts.scale && m > 0 {
            let pow2 = |x: f64| -> f64 {
                if x <= 0.0 || !x.is_finite() {
                    1.0
                } else {
                    (2.0_f64).powi((-x.log2()).round() as i32)
                }
            };
            for _pass in 0..2 {
                // Row pass: geometric mean of |entries| per row (structural
                // columns only; the slack's fixed −1 should not distort it).
                let mut lo = vec![f64::INFINITY; m];
                let mut hi = vec![0.0_f64; m];
                for col in cols.iter().take(n) {
                    for &(r, v) in col {
                        let a = (v * row_scale[r as usize]).abs();
                        if a > 0.0 {
                            let r = r as usize;
                            lo[r] = lo[r].min(a);
                            hi[r] = hi[r].max(a);
                        }
                    }
                }
                for i in 0..m {
                    if hi[i] > 0.0 {
                        row_scale[i] *= pow2((lo[i] * hi[i]).sqrt());
                    }
                }
                // Column pass over structural columns.
                for (j, col) in cols.iter().enumerate().take(n) {
                    let (mut clo, mut chi) = (f64::INFINITY, 0.0_f64);
                    for &(r, v) in col {
                        let a = (v * row_scale[r as usize] * col_scale[j]).abs();
                        if a > 0.0 {
                            clo = clo.min(a);
                            chi = chi.max(a);
                        }
                    }
                    if chi > 0.0 {
                        col_scale[j] *= pow2((clo * chi).sqrt());
                    }
                }
            }
            // Apply: structural entries and costs/bounds.
            for (j, col) in cols.iter_mut().enumerate().take(n) {
                for e in col.iter_mut() {
                    e.1 *= row_scale[e.0 as usize] * col_scale[j];
                }
                cost[j] *= col_scale[j];
                lower[j] /= col_scale[j];
                upper[j] /= col_scale[j];
            }
            // Slack bounds carry the row activity: scale by the row factor.
            for i in 0..m {
                lower[n + i] *= row_scale[i];
                upper[n + i] *= row_scale[i];
            }
        }

        // Freeze the (scaled) columns into the immutable CSC/CSR matrix
        // both engines gather basis columns from.
        let a = CscMatrix::from_columns(m, &cols);
        drop(cols);

        let mut s = Self {
            m,
            ncols,
            a,
            lower,
            upper,
            cost,
            sign,
            basis: Vec::with_capacity(m),
            stat: vec![VStat::AtLower; ncols],
            x: vec![0.0; ncols],
            factor: Factor::None,
            factor_basis: Vec::new(),
            etas: Vec::new(),
            scratch: RefCell::new(SimplexScratch {
                lu: LuScratch::default(),
                mark: vec![false; ncols],
            }),
            row_scale,
            col_scale,
            opts,
            iterations: 0,
            degenerate_run: 0,
            pricing_cursor: 0,
            coord_row: PivotRow::default(),
            all_cols: (0..ncols as u32).collect(),
            duals: vec![0.0; m],
            reduced: Vec::new(),
            refactorizations: 0,
            factor_reuses: 0,
            phase1_iterations: 0,
            phase1_time_s: 0.0,
            phase2_time_s: 0.0,
            warm_started: false,
            warm_rejected: false,
            basis_nnz: 0,
            factor_nnz: 0,
            dual_pricing_dantzig: false,
            interval_skips: 0,
        };
        s.reset_slack_basis();
        s
    }

    /// Whether the sparse engine is active.
    #[inline]
    fn sparse(&self) -> bool {
        self.opts.linear_algebra == LinearAlgebra::Sparse
    }

    /// Shape heuristic for the dual restoration's row-pricing rule (sparse
    /// engine only; the dense oracle always uses Dantzig).
    ///
    /// Dual Devex pays for its weight maintenance when restorations are long
    /// relative to the basis — tall windows whose power rows couple many
    /// tasks. On short-and-wide windows (configuration-mixture columns
    /// dominating the rows) restorations after a cap step are a handful of
    /// pivots, the steepest-edge norm picks the same rows raw magnitude
    /// would, and the per-pivot weight update over the FTRAN pattern is pure
    /// overhead — the 0.75–0.98x band sparse-vs-dense used to show at
    /// generous caps. Raw largest-violation wins there. Pricing affects the
    /// pivot path only; the canonical-optimum phase pins the returned vertex
    /// either way, so the choice is invisible bitwise.
    #[inline]
    fn prefer_dual_devex(&self) -> bool {
        // Rows at least a quarter of the columns, and an average column
        // dense enough that a restoration walks a nontrivial basis.
        4 * self.m >= self.ncols && self.a.nnz() >= 3 * self.ncols
    }

    /// Whether this built solver can be rebound to `problem` instead of
    /// rebuilt: same shape (rows, columns, matrix nonzeros) and same
    /// options. Coefficient equality is the caller's contract (see
    /// [`SolverContext`]) — checking it would cost as much as rebuilding.
    fn can_rebind(&self, problem: &Problem, opts: &SolverOptions) -> bool {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        m == self.m
            && n + m == self.ncols
            && problem.cons.iter().map(|c| c.terms.len()).sum::<usize>() + m == self.a.nnz()
            && self.opts == *opts
    }

    /// Rebinds a cached solver to a same-matrix `problem`: reapplies the
    /// cached equilibration scales to the new costs/bounds (replicating the
    /// arithmetic of [`Simplex::new`] exactly, so a rebound solve is
    /// bit-identical to a fresh build) and resets all per-solve state. The
    /// factorization and `factor_basis` survive — if the next warm basis
    /// matches, `run` skips refactoring entirely.
    fn rebind(&mut self, problem: &Problem) {
        let n = self.ncols - self.m;
        self.sign = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for (j, v) in problem.vars.iter().enumerate() {
            self.cost[j] = self.sign * v.cost * self.col_scale[j];
            self.lower[j] = v.lower / self.col_scale[j];
            self.upper[j] = v.upper / self.col_scale[j];
        }
        for (i, c) in problem.cons.iter().enumerate() {
            let (lo, hi) = c.bound.interval();
            self.lower[n + i] = lo * self.row_scale[i];
            self.upper[n + i] = hi * self.row_scale[i];
        }
        self.etas.clear();
        self.iterations = 0;
        self.degenerate_run = 0;
        self.pricing_cursor = 0;
        self.duals.iter_mut().for_each(|d| *d = 0.0);
        self.reduced.clear();
        self.refactorizations = 0;
        self.factor_reuses = 0;
        self.phase1_iterations = 0;
        self.phase1_time_s = 0.0;
        self.phase2_time_s = 0.0;
        self.warm_rejected = false;
        self.basis_nnz = 0;
        self.factor_nnz = 0;
        self.dual_pricing_dantzig = false;
        self.interval_skips = 0;
        self.reset_slack_basis();
    }

    /// Installs the cold starting partition: slack basis; structurals at
    /// their nearest finite bound (free structurals pinned at 0).
    fn reset_slack_basis(&mut self) {
        let n = self.ncols - self.m;
        for j in 0..n {
            let (lo, hi) = (self.lower[j], self.upper[j]);
            self.stat[j] = if lo.is_finite() {
                if hi.is_finite() && hi.abs() < lo.abs() {
                    VStat::AtUpper
                } else {
                    VStat::AtLower
                }
            } else if hi.is_finite() {
                VStat::AtUpper
            } else {
                VStat::Free
            };
            self.x[j] = match self.stat[j] {
                VStat::AtLower => lo,
                VStat::AtUpper => hi,
                _ => 0.0,
            };
        }
        self.basis.clear();
        for i in 0..self.m {
            self.basis.push((n + i) as u32);
            self.stat[n + i] = VStat::Basic;
            self.x[n + i] = 0.0;
        }
        self.warm_started = false;
    }

    /// Adopts a warm [`Basis`] snapshot if it is structurally compatible,
    /// counting a rejected snapshot in `warm_rejected` so basis-chaining
    /// callers can observe warm-start regressions that would otherwise be
    /// silent cold restarts.
    fn adopt_basis(&mut self, warm: &Basis) {
        if !self.try_adopt(warm) {
            self.warm_rejected = true;
        }
    }

    /// Adopts a warm [`Basis`] snapshot if it is structurally compatible
    /// (matching dimensions and a consistent basic set). Nonbasic values are
    /// set from the snapshot's bound statuses; basic values are recomputed by
    /// the first `refactor`. Returns `false` without effect on any mismatch —
    /// the solver then proceeds from the cold slack basis.
    fn try_adopt(&mut self, warm: &Basis) -> bool {
        if warm.basis.len() != self.m || warm.stat.len() != self.ncols {
            return false;
        }
        let mut is_basic = vec![false; self.ncols];
        for &j in &warm.basis {
            let j = j as usize;
            if j >= self.ncols || is_basic[j] {
                return false; // out of range or duplicated basis column
            }
            is_basic[j] = true;
        }
        for (j, &st) in warm.stat.iter().enumerate() {
            if (st == VStat::Basic) != is_basic[j] {
                return false; // partition inconsistent with the basis list
            }
        }
        self.basis.clone_from(&warm.basis);
        self.stat.clone_from(&warm.stat);
        for j in 0..self.ncols {
            self.x[j] = match self.stat[j] {
                VStat::Basic => 0.0, // recomputed by refactor()
                VStat::AtLower if self.lower[j].is_finite() => self.lower[j],
                VStat::AtUpper if self.upper[j].is_finite() => self.upper[j],
                _ => 0.0,
            };
            // A bound that became infinite since the snapshot leaves the
            // column nonbasic at 0, which `run` treats as a free placement.
            match self.stat[j] {
                VStat::AtLower if !self.lower[j].is_finite() => self.stat[j] = VStat::Free,
                VStat::AtUpper if !self.upper[j].is_finite() => self.stat[j] = VStat::Free,
                _ => {}
            }
        }
        self.warm_started = true;
        true
    }

    /// Gathers the basis columns, factors them with the selected engine,
    /// clears etas and recomputes the basic values from the nonbasic
    /// assignment. Telemetry (`basis_nnz`, `factor_nnz`) accumulates here.
    pub(crate) fn refactor(&mut self) -> LpResult<()> {
        if self.m == 0 {
            self.factor = Factor::None;
            self.factor_basis.clear();
            self.etas.clear();
            return Ok(());
        }
        let factor = if self.sparse() {
            let lu = SparseLu::factor(&self.a, &self.basis, &SparseLuOptions::default())
                .map_err(|_| LpError::SingularBasis)?;
            self.factor_nnz += lu.factor_nnz() as u64;
            Factor::Sparse(lu)
        } else {
            let mut b = DenseMatrix::zeros(self.m);
            for (k, &j) in self.basis.iter().enumerate() {
                let col = b.col_mut(k);
                for (r, v) in self.a.col(j as usize) {
                    col[r as usize] = v;
                }
            }
            let lu = LuFactors::factor(b, 1e-11).map_err(|_| LpError::SingularBasis)?;
            self.factor_nnz += (self.m * self.m) as u64;
            Factor::Dense(lu)
        };
        self.basis_nnz +=
            self.basis.iter().map(|&j| self.a.col_nnz(j as usize) as u64).sum::<u64>();
        self.refactorizations += 1;
        self.etas.clear();
        self.factor = factor;
        self.factor_basis.clone_from(&self.basis);
        self.recompute_basic_values();
        Ok(())
    }

    /// Whether the held factorization already represents the current basis
    /// — same columns in the same slot order, no eta updates layered on top
    /// — so a refactorization would reproduce it bit for bit (both engines
    /// factor deterministically) and can be skipped.
    pub(crate) fn factor_is_current(&self) -> bool {
        !matches!(self.factor, Factor::None)
            && self.etas.is_empty()
            && self.basis == self.factor_basis
    }

    /// Recomputes the basic values from the nonbasic assignment against the
    /// current (eta-free) factorization: `B·x_B = −Σ_{nonbasic} a_j x_j`.
    pub(crate) fn recompute_basic_values(&mut self) {
        let mut rhs = vec![0.0; self.m];
        for j in 0..self.ncols {
            if self.stat[j] != VStat::Basic && self.x[j] != 0.0 {
                let xj = self.x[j];
                for (r, v) in self.a.col(j) {
                    rhs[r as usize] -= v * xj;
                }
            }
        }
        self.factor_solve_dense(&mut rhs);
        for (k, &j) in self.basis.iter().enumerate() {
            self.x[j as usize] = rhs[k];
        }
    }

    /// Iterative refinement on the basic values in double-double precision:
    /// each basic value is carried as an unevaluated `hi + lo` pair, the
    /// residual `r = −A·(hi + lo)` feeds a correction `B⁻¹·r`, and the pair
    /// is renormalized after every round so `hi` is always the correctly
    /// rounded sum. Run against a fresh factorization (no etas), this
    /// drives `hi` to the *correctly rounded* solution of the basic system
    /// — not merely to within ~1 ulp of it, which is the property that
    /// matters: at a degenerate optimum the same canonical vertex can be
    /// represented by different bases, whose single-precision-refined
    /// values legitimately land on adjacent floats. The exact solutions of
    /// those bases' systems all equal the vertex, so rounding the
    /// double-double fixpoint makes the extracted values a function of the
    /// vertex alone, independent of pivot path, warm basis, and basis
    /// representation.
    ///
    /// The residual is accumulated with Neumaier compensation in fixed CSR
    /// order ([`CscMatrix::residual_neg_ax`]); without it, rows mixing
    /// large cancelling activities stall refinement around ~1e-5 relative
    /// residuals on ill-scaled windows, which is precisely where cold
    /// re-solve duality certificates used to fail before canonicalization.
    pub(crate) fn refine_basic_values(&mut self) {
        if matches!(self.factor, Factor::None) {
            return;
        }
        // Error-free sum: `a + b = s + e` exactly (Knuth two-sum).
        fn two_sum(a: f64, b: f64) -> (f64, f64) {
            let s = a + b;
            let bb = s - a;
            let e = (a - (s - bb)) + (b - bb);
            (s, e)
        }
        let mut r = vec![0.0; self.m];
        let mut lo = vec![0.0; self.m]; // per-slot tail of the basic value
        for round in 0..8 {
            self.a.residual_neg_ax(&self.x, &mut r);
            // Fold the tails into the residual: r -= A·lo (basic columns).
            for (k, &j) in self.basis.iter().enumerate() {
                if lo[k] != 0.0 {
                    for (row, v) in self.a.col(j as usize) {
                        r[row as usize] -= v * lo[k];
                    }
                }
            }
            self.factor_solve_dense(&mut r);
            let mut hi_changed = false;
            for (k, &j) in self.basis.iter().enumerate() {
                let j = j as usize;
                // (hi, lo) += correction, then renormalize so the new hi
                // is the rounded value of the full double-double sum.
                let (s, e) = two_sum(self.x[j], r[k]);
                let (hi, tail) = two_sum(s, lo[k] + e);
                if hi != self.x[j] {
                    self.x[j] = hi;
                    hi_changed = true;
                }
                lo[k] = tail;
            }
            if !hi_changed && round > 0 {
                break;
            }
        }
    }

    /// Solves `B·x = rhs` against the bare factorization (no etas) for a
    /// structurally dense right-hand side, in place.
    fn factor_solve_dense(&self, rhs: &mut [f64]) {
        match &self.factor {
            Factor::None => {}
            Factor::Dense(lu) => lu.solve_in_place(rhs),
            Factor::Sparse(lu) => {
                let mut scratch = self.scratch.borrow_mut();
                lu.ftran_dense(rhs, &mut scratch.lu);
            }
        }
    }

    /// FTRAN: returns `w = B⁻¹·a_j`. The sparse engine seeds the
    /// hyper-sparse solve with the CSC column pattern; the dense engine
    /// reproduces the historical dense loops exactly (the result is marked
    /// `dense`, so downstream `nz_indices` walks all slots as before).
    pub(crate) fn ftran_col(&self, j: usize) -> SparseVec {
        let mut v;
        if self.sparse() {
            v = SparseVec::zeros(self.m);
            for (r, val) in self.a.col(j) {
                v.values[r as usize] = val;
                v.pattern.push(r);
            }
            if let Factor::Sparse(lu) = &self.factor {
                let mut scratch = self.scratch.borrow_mut();
                lu.ftran(&mut v, &mut scratch.lu);
            }
        } else {
            let mut dense = vec![0.0; self.m];
            for (r, val) in self.a.col(j) {
                dense[r as usize] = val;
            }
            if let Factor::Dense(lu) = &self.factor {
                lu.solve_in_place(&mut dense);
            }
            v = SparseVec::from_dense(dense);
        }
        self.apply_etas_ftran(&mut v);
        v
    }

    /// FTRAN for an arbitrary right-hand side already expressed in row
    /// space: returns `B⁻¹·v` — the general-vector counterpart of
    /// [`Self::ftran_col`], used by the parametric ramp for the basic-value
    /// direction `dx_B/dC`.
    pub(crate) fn ftran_vec(&self, mut v: SparseVec) -> SparseVec {
        match &self.factor {
            Factor::None => {}
            Factor::Dense(lu) => {
                if !v.dense {
                    v.dense = true;
                    v.pattern.clear();
                }
                lu.solve_in_place(&mut v.values);
            }
            Factor::Sparse(lu) => {
                let mut scratch = self.scratch.borrow_mut();
                if v.dense {
                    lu.ftran_dense(&mut v.values, &mut scratch.lu);
                } else {
                    lu.ftran(&mut v, &mut scratch.lu);
                }
            }
        }
        self.apply_etas_ftran(&mut v);
        v
    }

    /// Whether column `j` can enter the basis: nonbasic and not fixed
    /// (fixed columns can never improve and only cause degenerate churn).
    #[inline]
    pub(crate) fn can_enter(&self, j: usize) -> bool {
        self.stat[j] != VStat::Basic && self.lower[j] != self.upper[j]
    }

    /// `α = yᵀA` over the columns that can enter the basis, through the
    /// shared [`PivotRow`] kernel.
    pub(crate) fn pivot_row(&self, y: &SparseVec, row: &mut PivotRow) {
        row.compute(&self.a, y, |j| self.can_enter(j));
    }

    /// The equilibration scale of row `i` (1.0 when scaling is off). The
    /// parametric ramp needs it because the internal slack bounds carry the
    /// row scale: `upper[n+i] = cap · r_i`.
    #[inline]
    pub(crate) fn row_scale_at(&self, i: usize) -> f64 {
        self.row_scale[i]
    }

    /// Snapshot of the current basis partition for chaining.
    pub(crate) fn snapshot_basis(&self) -> Basis {
        Basis { basis: self.basis.clone(), stat: self.stat.clone() }
    }

    /// Marks the solver warm (ramp continuations report `warm_started` just
    /// as warm per-cap solves do).
    pub(crate) fn mark_warm(&mut self) {
        self.warm_started = true;
    }

    /// `ρ = B⁻ᵀ·e_slot`, the pivot row of basis slot `slot`, seeded as a
    /// one-entry pattern (the dense engine's BTRAN drops it; the eta
    /// arithmetic is the same either way).
    pub(crate) fn btran_unit(&self, slot: usize) -> SparseVec {
        let mut e = SparseVec::zeros(self.m);
        e.values[slot] = 1.0;
        e.pattern.push(slot as u32);
        self.btran_vec(e)
    }

    /// BTRAN: returns `y` with `Bᵀ·y = v` (etas first, then the engine).
    pub(crate) fn btran_vec(&self, mut v: SparseVec) -> SparseVec {
        self.apply_etas_btran(&mut v);
        match &self.factor {
            Factor::None => {}
            Factor::Dense(lu) => {
                // The dense solve fills in every row: drop the pattern.
                v.dense = true;
                v.pattern.clear();
                lu.solve_transpose_in_place(&mut v.values);
            }
            Factor::Sparse(lu) => {
                let mut scratch = self.scratch.borrow_mut();
                lu.btran(&mut v, &mut scratch.lu);
            }
        }
        v
    }

    /// Applies the product-form etas to an FTRAN result, maintaining the
    /// nonzero pattern (and abandoning it past the density cutoff).
    fn apply_etas_ftran(&self, v: &mut SparseVec) {
        if self.etas.is_empty() {
            return;
        }
        if v.dense {
            for eta in &self.etas {
                let vr = v.values[eta.pos] / eta.pivot;
                if vr != 0.0 {
                    for &(i, w) in &eta.entries {
                        v.values[i as usize] -= w * vr;
                    }
                }
                v.values[eta.pos] = vr;
            }
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let mark = &mut scratch.mark;
        for &k in &v.pattern {
            mark[k as usize] = true;
        }
        for eta in &self.etas {
            // `vr != 0` implies the pivot slot was already in the pattern
            // (the pattern is a superset of the nonzeros).
            let vr = v.values[eta.pos] / eta.pivot;
            if vr != 0.0 {
                for &(i, w) in &eta.entries {
                    v.values[i as usize] -= w * vr;
                    if !mark[i as usize] {
                        mark[i as usize] = true;
                        v.pattern.push(i);
                    }
                }
            }
            v.values[eta.pos] = vr;
        }
        for &k in &v.pattern {
            mark[k as usize] = false;
        }
        v.pattern.sort_unstable();
        if v.pattern.len() * 4 > self.m {
            v.dense = true;
            v.pattern.clear();
        }
    }

    /// Applies the etas (in reverse) to a BTRAN input, maintaining the
    /// nonzero pattern.
    fn apply_etas_btran(&self, v: &mut SparseVec) {
        if self.etas.is_empty() {
            return;
        }
        if v.dense {
            for eta in self.etas.iter().rev() {
                let mut s = v.values[eta.pos];
                for &(i, w) in &eta.entries {
                    s -= w * v.values[i as usize];
                }
                v.values[eta.pos] = s / eta.pivot;
            }
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let mark = &mut scratch.mark;
        for &k in &v.pattern {
            mark[k as usize] = true;
        }
        for eta in self.etas.iter().rev() {
            let mut s = v.values[eta.pos];
            for &(i, w) in &eta.entries {
                s -= w * v.values[i as usize];
            }
            let s = s / eta.pivot;
            v.values[eta.pos] = s;
            if s != 0.0 && !mark[eta.pos] {
                mark[eta.pos] = true;
                v.pattern.push(eta.pos as u32);
            }
        }
        for &k in &v.pattern {
            mark[k as usize] = false;
        }
        v.pattern.sort_unstable();
        if v.pattern.len() * 4 > self.m {
            v.dense = true;
            v.pattern.clear();
        }
    }

    /// Phase-1 cost of basic variable at column `j`: ±1 outside bounds.
    fn phase1_cost(&self, j: usize) -> f64 {
        let x = self.x[j];
        if x < self.lower[j] - self.opts.feas_tol {
            -1.0
        } else if x > self.upper[j] + self.opts.feas_tol {
            1.0
        } else {
            0.0
        }
    }

    /// Largest primal bound violation over basic variables. Phase 1
    /// terminates on this *max*, matching [`Self::phase1_cost`]'s
    /// per-variable test: an aggregate (sum) budget scaled by the row count
    /// lets a single tiny-RHS row hoard the whole allowance — on
    /// production-size windows a cold solve could then stop with one
    /// precedence row violated by its entire (microsecond-scale) bound,
    /// yielding a super-optimal infeasible vertex that warm solves, which
    /// skip phase 1, never reproduce.
    pub(crate) fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .map(|&j| {
                let j = j as usize;
                (self.lower[j] - self.x[j]).max(self.x[j] - self.upper[j]).max(0.0)
            })
            .fold(0.0, f64::max)
    }

    /// Whether the current (primal-feasible) basis is already optimal: one
    /// BTRAN of the basic costs and a reduced-cost pass with the *strict*
    /// phase-2 gates ([`Self::price_one`]'s `opt_tol` tests). When this
    /// holds, `dual_phase` would find no violated row and phase-2 pricing
    /// would return no candidate, so skipping both phases leaves the exact
    /// basis the full path would have ended with.
    fn optimal_already(&self) -> bool {
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j as usize]).collect();
        let y = self.btran_vec(SparseVec::from_dense(cb));
        (0..self.ncols).all(|j| self.price_one(j, || self.reduced_cost(false, &y, j)).is_none())
    }

    fn run(&mut self) -> LpResult<()> {
        if self.m == 0 {
            return self.solve_unconstrained();
        }
        // A rebound context whose warm basis is exactly the basis the cached
        // factorization was computed for (the common sweep case: the
        // previous cap's final basis fed straight back) keeps it — skipping
        // the one fixed-cost factorization every solve otherwise pays.
        if self.factor_is_current() {
            self.factor_reuses += 1;
            self.recompute_basic_values();
        } else if let Err(e) = self.refactor() {
            // A warm basis can have become singular (it was factored against
            // a different RHS era, or the caller handed over a stale
            // snapshot); fall back to the always-nonsingular slack basis
            // rather than fail.
            if !self.warm_started {
                return Err(e);
            }
            self.warm_rejected = true;
            self.reset_slack_basis();
            self.refactor()?;
        }
        let max_iters =
            self.opts.max_iterations.unwrap_or(20_000 + 100 * (self.m as u64 + self.ncols as u64));

        // Phase 1 — or, for a warm basis (dual feasible after a pure RHS
        // change), dual simplex restoration, which reaches primal
        // feasibility in a handful of pivots while keeping the reduced
        // costs optimal, so the phase-2 loop below terminates almost
        // immediately. `dual_phase` declining (false) is always safe: any
        // pivots it made leave a valid basis for the primal phases.
        let phase1_start = Instant::now();
        // Basis-interval skipping: a warm basis chained across a cap sweep
        // is often still optimal at the next cap (the caps sit inside one
        // parametric-ramp breakpoint interval). One BTRAN plus a strict
        // reduced-cost pass certifies that, answering without entering
        // either phase. The gates are exactly the ones `dual_phase` +
        // phase-2 pricing would apply, so the final basis — and therefore
        // the canonicalized, extracted solution — is unchanged bitwise.
        if self.warm_started && self.infeasibility() <= self.opts.feas_tol && self.optimal_already()
        {
            self.interval_skips += 1;
            self.phase1_iterations = self.iterations;
            self.phase1_time_s = phase1_start.elapsed().as_secs_f64();
            self.phase2_time_s = 0.0;
            return Ok(());
        }
        let dual_restored = if self.warm_started { self.dual_phase(max_iters)? } else { false };
        if !dual_restored {
            loop {
                if self.infeasibility() <= self.opts.feas_tol {
                    break;
                }
                if self.iterations >= max_iters {
                    return Err(LpError::IterationLimit { iterations: self.iterations });
                }
                match self.iterate(Objective::Phase1)? {
                    StepResult::Pivoted | StepResult::BoundFlip => {}
                    StepResult::Optimal => {
                        // Phase-1 optimum with residual infeasibility: no
                        // feasible point exists.
                        if self.infeasibility() > self.opts.feas_tol {
                            return Err(LpError::Infeasible);
                        }
                        break;
                    }
                    StepResult::Unbounded => {
                        // Cannot happen with the phase-1 blocking rule unless
                        // numerics failed; report as singular.
                        return Err(LpError::SingularBasis);
                    }
                }
            }
        }

        self.phase1_iterations = self.iterations;
        self.phase1_time_s = phase1_start.elapsed().as_secs_f64();

        // Phase 2.
        let phase2_start = Instant::now();
        self.degenerate_run = 0;
        loop {
            if self.iterations >= max_iters {
                return Err(LpError::IterationLimit { iterations: self.iterations });
            }
            match self.iterate(Objective::Phase2)? {
                StepResult::Pivoted | StepResult::BoundFlip => {}
                StepResult::Optimal => break,
                StepResult::Unbounded => return Err(LpError::Unbounded),
            }
        }
        self.phase2_time_s = phase2_start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Dual simplex restoration for warm starts.
    ///
    /// A basis that was optimal before a pure RHS change (the sweep's
    /// power-row bound rewrite) is still *dual* feasible: reduced costs do
    /// not depend on bounds. The dual simplex walks such a basis back to
    /// primal feasibility — each pivot drives one out-of-bounds basic
    /// variable exactly onto its violated bound — in roughly as many pivots
    /// as there are rows whose binding status changed, instead of the full
    /// primal phase-1 + phase-2 re-solve.
    ///
    /// Returns `Ok(true)` when primal feasibility was restored (phase 2
    /// then terminates almost immediately), `Ok(false)` when the basis is
    /// not dual feasible or the phase gave up — the caller falls back to
    /// the ordinary primal phases, for which any intermediate dual pivots
    /// left a valid basis — and `Err(Infeasible)` when a violated row
    /// admits no eligible entering column (a Farkas certificate that no
    /// feasible point exists).
    fn dual_phase(&mut self, max_iters: u64) -> LpResult<bool> {
        let feas = self.opts.feas_tol;
        let dual_tol = self.opts.opt_tol * 10.0;
        // Beyond a generous pivot allowance, the primal phases'
        // anti-cycling machinery is the safer path.
        let give_up = self.iterations + 4 * self.m as u64 + 100;

        // Reduced costs, computed once up front (with the dual-feasibility
        // gate) and then maintained incrementally across pivots:
        // d'_j = d_j − θ·α_j with θ = d_q/α_q. Refreshed from scratch after
        // every refactorization to bound drift.
        let mut d = Vec::new();
        self.refresh_reduced_costs(&mut d);
        let dual_feasible = d.iter().zip(&self.stat).all(|(&dj, st)| match st {
            VStat::AtLower => dj >= -dual_tol,
            VStat::AtUpper => dj <= dual_tol,
            VStat::Free => dj.abs() <= dual_tol,
            VStat::Basic => true,
        });
        if !dual_feasible {
            return Ok(false); // not dual feasible: primal path
        }
        let mut row = PivotRow::default();
        // Dual Devex row pricing (sparse engine only): `devex[k]`
        // approximates ‖B⁻ᵀ·e_k‖², so violations are compared in the
        // steepest-edge norm instead of raw magnitude. The weights are
        // updated from the FTRAN column we compute anyway, so the better
        // pivot choice costs no extra solves. The dense oracle keeps the
        // historical largest-violation (Dantzig) rule.
        let devex_on = self.sparse() && self.prefer_dual_devex();
        self.dual_pricing_dantzig = !devex_on;
        let mut devex = vec![1.0f64; if devex_on { self.m } else { 0 }];
        let bfrt = self.sparse();
        // Per-pivot scratch, hoisted so the hot loop never allocates.
        let mut bps: Vec<(f64, f64, u32)> = Vec::new(); // (ratio, alpha, col)
        let mut flips: Vec<u32> = Vec::new();
        loop {
            if self.iterations >= max_iters.min(give_up) {
                return Ok(false);
            }

            // Leaving variable: largest bound violation among the basics
            // (largest viol²/weight under Devex).
            let mut leave: Option<(usize, f64, f64)> = None; // (slot, target, score)
            for (k, &jb) in self.basis.iter().enumerate() {
                let jb = jb as usize;
                let x = self.x[jb];
                let (lo, hi) = (self.lower[jb], self.upper[jb]);
                let (viol, target) = if x < lo - feas {
                    (lo - x, lo)
                } else if x > hi + feas {
                    (x - hi, hi)
                } else {
                    continue;
                };
                let score = if devex_on { viol * viol / devex[k] } else { viol };
                if leave.is_none_or(|(_, _, best)| score > best) {
                    leave = Some((k, target, score));
                }
            }
            let Some((slot, target, _)) = leave else {
                return Ok(true); // primal feasible
            };
            let jb = self.basis[slot] as usize;
            let need_up = target > self.x[jb];

            // Pivot row of B⁻¹: ρ = B⁻ᵀ·e_slot; α_j = ρ·a_j through the
            // pivot-row kernel.
            let rho = self.btran_unit(slot);

            // Dual ratio test: among columns whose allowed movement shifts
            // x_B[slot] toward `target` (moving x_j by t changes x_B[slot]
            // by −α_j·t), the smallest |d_j|/|α_j| keeps every reduced cost
            // on its feasible side. Ties prefer the larger pivot.
            //
            // The sparse engine extends this with the **bound-flipping
            // ratio test** (long-step dual): a breakpoint belonging to a
            // boxed column may be crossed — the column flips to its
            // opposite bound (its reduced cost changes sign exactly there,
            // so the other bound becomes dual-feasible) and the walk
            // continues while the violated row still has infeasibility
            // left to absorb. One long dual step then does the work of
            // many short Dantzig steps, which is decisive on this crate's
            // LPs: the configuration-mixture columns are all boxed. The
            // dense oracle keeps the historical single-breakpoint rule.
            bps.clear();
            flips.clear();
            self.pivot_row(&rho, &mut row);
            let mut best = None;
            if bfrt {
                for &ju in row.touched() {
                    let aj = row.alpha(ju as usize);
                    if self.dual_eligible(ju as usize, aj, need_up) {
                        bps.push((d[ju as usize].abs() / aj.abs(), aj, ju));
                    }
                }
            } else {
                best = self.dual_ratio_test(&row, &d, need_up);
            }
            if bfrt && !bps.is_empty() {
                // Walk the breakpoints in dual-step order, flipping boxed
                // columns while the remaining violation exceeds what each
                // flip absorbs; the breakpoint that would overshoot (or
                // cannot flip) enters the basis. Extracted by repeated
                // min-selection rather than a sort: most pivots stop at
                // the first breakpoint, so the walk costs one scan plus
                // one more per flip taken. The selection key (ratio, then
                // larger |α|, then column index) is a total order, so the
                // result is deterministic regardless of extraction order.
                let mut slope = (target - self.x[jb]).abs();
                loop {
                    let mut imin = 0;
                    for (i, bp) in bps.iter().enumerate().skip(1) {
                        let better = match bp.0.total_cmp(&bps[imin].0) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                match bp.1.abs().total_cmp(&bps[imin].1.abs()) {
                                    std::cmp::Ordering::Greater => true,
                                    std::cmp::Ordering::Less => false,
                                    std::cmp::Ordering::Equal => bp.2 < bps[imin].2,
                                }
                            }
                        };
                        if better {
                            imin = i;
                        }
                    }
                    let bp = bps[imin];
                    let j = bp.2 as usize;
                    let range = self.upper[j] - self.lower[j];
                    let cut = bp.1.abs() * range;
                    if bps.len() == 1
                        || self.stat[j] == VStat::Free
                        || !range.is_finite()
                        || slope <= cut + feas
                    {
                        best = Some((j, bp.1, bp.0));
                        break;
                    }
                    slope -= cut;
                    flips.push(bp.2);
                    bps.swap_remove(imin);
                }
            }
            let Some((q, alpha_q, _)) = best else {
                // The violated row cannot be moved toward its bound by any
                // nonbasic column: no feasible point exists.
                return Err(LpError::Infeasible);
            };

            let w = self.ftran_col(q);
            let wk = w.values[slot];
            if wk.abs() <= self.opts.pivot_tol {
                // ρ-row and FTRAN disagree: stale etas. Refactor and retry,
                // or hand over to the primal phases if already fresh.
                if self.etas.is_empty() {
                    return Ok(false);
                }
                self.refactor()?;
                self.refresh_reduced_costs(&mut d);
                continue;
            }
            let dir = match self.stat[q] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                // Free: pick the direction that moves x_B[slot] (rate
                // −dir·wk) toward the target.
                _ => {
                    if (target - self.x[jb]) * -wk > 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            // Long-step flips land first (they move x_B — including the
            // violated entry — so the pivot step below sees the updated
            // values and still lands x_B[slot] exactly on `target`).
            if !flips.is_empty() {
                self.apply_dual_flips(&flips);
            }
            // Step that lands x_B[slot] exactly on `target`.
            let mut t = (target - self.x[jb]) / (-dir * wk);
            if bfrt && t >= -feas {
                // Flip roundoff can leave a sub-tolerance negative step;
                // take the degenerate pivot instead of abandoning the dual.
                t = t.max(0.0);
            }
            if !t.is_finite() || t < 0.0 {
                return Ok(false);
            }

            self.iterations += 1;
            for k in nz_indices(&w) {
                let wkv = w.values[k];
                if wkv != 0.0 {
                    self.x[self.basis[k] as usize] -= t * dir * wkv;
                }
            }
            self.x[q] += t * dir;
            self.x[jb] = target; // exact landing, no roundoff residue
            self.stat[jb] = if target == self.lower[jb] { VStat::AtLower } else { VStat::AtUpper };
            self.basis[slot] = q as u32;
            self.stat[q] = VStat::Basic;

            self.record_eta(&w, slot, wk);

            // Devex weight update from the FTRAN column: the slot that q
            // enters gets the reference weight carried through the pivot,
            // every other slot is bumped to at least its projection through
            // this pivot. A runaway weight means the reference framework
            // has degraded; restart it from the current basis.
            if devex_on {
                let gr = (devex[slot] / (wk * wk)).max(1.0);
                if gr > 1e7 {
                    devex.fill(1.0);
                } else {
                    for k in nz_indices(&w) {
                        if k != slot {
                            let wv = w.values[k];
                            let cand = wv * wv * gr;
                            if cand > devex[k] {
                                devex[k] = cand;
                            }
                        }
                    }
                    devex[slot] = gr;
                }
            }

            // Incremental dual update; θ is the new reduced cost of the
            // leaving variable (α of the leaving column in its own pivot
            // row is exactly 1).
            let theta = d[q] / alpha_q;
            row.update_duals(&mut d, theta);
            d[q] = 0.0;
            d[jb] = -theta;

            if self.etas.len() >= self.opts.refactor_every {
                self.refactor()?;
                self.refresh_reduced_costs(&mut d);
            }
        }
    }

    /// Handles the degenerate `m == 0` case: every variable goes to its
    /// cost-preferred bound.
    fn solve_unconstrained(&mut self) -> LpResult<()> {
        for j in 0..self.ncols {
            let c = self.cost[j];
            if c > 0.0 {
                if !self.lower[j].is_finite() {
                    return Err(LpError::Unbounded);
                }
                self.x[j] = self.lower[j];
                self.stat[j] = VStat::AtLower;
            } else if c < 0.0 {
                if !self.upper[j].is_finite() {
                    return Err(LpError::Unbounded);
                }
                self.x[j] = self.upper[j];
                self.stat[j] = VStat::AtUpper;
            }
        }
        self.reduced = self.cost.clone();
        Ok(())
    }

    /// One pricing + ratio-test + update step against objective `obj`.
    pub(crate) fn iterate(&mut self, obj: Objective) -> LpResult<StepResult> {
        let phase1 = obj == Objective::Phase1;
        // Duals for the current (phase-dependent) basic costs.
        let cb: Vec<f64> = self
            .basis
            .iter()
            .map(|&j| if phase1 { self.phase1_cost(j as usize) } else { self.cost[j as usize] })
            .collect();
        let y = self.btran_vec(SparseVec::from_dense(cb));

        let bland = self.degenerate_run >= self.opts.bland_trigger;
        let enter = match obj {
            Objective::Coordinate(j) => {
                let (cols, d) = self.row_reduced_costs(&y, &[j]);
                self.price(bland, &cols, |_, i, _| d[i])
            }
            _ => {
                let all = std::mem::take(&mut self.all_cols);
                let enter = self.price(bland, &all, |s, _, k| s.reduced_cost(phase1, &y, k));
                self.all_cols = all;
                enter
            }
        };

        let Some((q, _dq, dir)) = enter else {
            return Ok(StepResult::Optimal);
        };

        let w = self.ftran_col(q);

        // Ratio test: the entering variable moves by `t ≥ 0` in direction
        // `dir`; basic variable at slot k changes at rate `−dir·w[k]`.
        let feas = self.opts.feas_tol;
        let mut t_max = f64::INFINITY;
        let mut leave: Option<(usize, f64)> = None; // (basis slot, target bound)
        let mut leave_pivot: f64 = 0.0;
        for k in nz_indices(&w) {
            let wk = w.values[k];
            if wk.abs() <= self.opts.pivot_tol {
                continue;
            }
            let jb = self.basis[k] as usize;
            let delta = -dir * wk;
            let xk = self.x[jb];
            let (lo, hi) = (self.lower[jb], self.upper[jb]);
            // Determine the blocking bound in the movement direction. In
            // phase 1 an infeasible variable blocks at its violated bound
            // (it may travel to feasibility but not through it); a variable
            // infeasible in the *trailing* direction has no block.
            let target = if delta > 0.0 {
                if phase1 && xk > hi + feas {
                    f64::INFINITY
                } else if phase1 && xk < lo - feas {
                    lo
                } else {
                    hi
                }
            } else if phase1 && xk < lo - feas {
                f64::NEG_INFINITY
            } else if phase1 && xk > hi + feas {
                hi
            } else {
                lo
            };
            if !target.is_finite() {
                continue;
            }
            let t = (target - xk) / delta;
            let t = t.max(0.0);
            let better = match leave {
                None => t < t_max,
                // Prefer larger pivots among (near-)ties for stability.
                Some(_) => t < t_max - 1e-12 || (t < t_max + 1e-12 && wk.abs() > leave_pivot.abs()),
            };
            if better {
                t_max = t;
                leave = Some((k, target));
                leave_pivot = wk;
            }
        }

        // The entering variable's own range also limits the step.
        let own_range = self.upper[q] - self.lower[q];
        let own_limit = if self.stat[q] == VStat::Free { f64::INFINITY } else { own_range };

        self.iterations += 1;

        if own_limit < t_max {
            // Bound flip: entering variable jumps to its opposite bound.
            let t = own_limit;
            if !t.is_finite() {
                return Ok(StepResult::Unbounded);
            }
            for k in nz_indices(&w) {
                let wkv = w.values[k];
                if wkv != 0.0 {
                    self.x[self.basis[k] as usize] -= t * dir * wkv;
                }
            }
            self.x[q] += t * dir;
            self.stat[q] = match self.stat[q] {
                VStat::AtLower => VStat::AtUpper,
                VStat::AtUpper => VStat::AtLower,
                s => s,
            };
            self.track_degeneracy(t);
            return Ok(StepResult::BoundFlip);
        }

        let Some((slot, target)) = leave else {
            return Ok(StepResult::Unbounded);
        };
        let t = t_max;

        // Numerically tiny pivot with stale etas: refactor and retry the
        // whole step against the fresh factorization.
        if leave_pivot.abs() < self.opts.pivot_tol * 10.0 && !self.etas.is_empty() {
            self.refactor()?;
            self.iterations -= 1;
            return self.iterate(obj);
        }

        // Apply the step.
        for k in nz_indices(&w) {
            let wkv = w.values[k];
            if wkv != 0.0 {
                self.x[self.basis[k] as usize] -= t * dir * wkv;
            }
        }
        self.x[q] += t * dir;

        let leaving = self.basis[slot] as usize;
        self.x[leaving] = target;
        self.stat[leaving] =
            if (target - self.lower[leaving]).abs() <= (target - self.upper[leaving]).abs() {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
        self.basis[slot] = q as u32;
        self.stat[q] = VStat::Basic;

        let pivot = w.values[slot];
        self.record_eta(&w, slot, pivot);
        if self.etas.len() >= self.opts.refactor_every {
            self.refactor()?;
        }

        self.track_degeneracy(t);
        Ok(StepResult::Pivoted)
    }

    /// Applies a batch of bound flips chosen by the long-step dual ratio
    /// test: every column jumps to its opposite bound, and the basic
    /// values absorb the combined movement through a single FTRAN of the
    /// aggregated flip column `Δb = Σ a_j·δ_j`.
    fn apply_dual_flips(&mut self, flips: &[u32]) {
        let mut delta_b = vec![0.0; self.m];
        for &ju in flips {
            let j = ju as usize;
            let range = self.upper[j] - self.lower[j];
            let (delta, new_stat, new_x) = match self.stat[j] {
                VStat::AtLower => (range, VStat::AtUpper, self.upper[j]),
                _ => (-range, VStat::AtLower, self.lower[j]),
            };
            for (r, v) in self.a.col(j) {
                delta_b[r as usize] += v * delta;
            }
            self.x[j] = new_x;
            self.stat[j] = new_stat;
        }
        self.factor_solve_dense(&mut delta_b);
        let mut v = SparseVec::from_dense(delta_b);
        self.apply_etas_ftran(&mut v);
        for (k, &dv) in v.values.iter().enumerate() {
            if dv != 0.0 {
                self.x[self.basis[k] as usize] -= dv;
            }
        }
    }

    /// Records the product-form eta for a pivot at basis slot `slot` with
    /// pivot column `w = B⁻¹·a_q` (entries stored slots-ascending: `w`'s
    /// pattern is sorted and the dense walk is in index order).
    pub(crate) fn record_eta(&mut self, w: &SparseVec, slot: usize, pivot: f64) {
        let mut entries = Vec::new();
        for k in nz_indices(w) {
            let wk = w.values[k];
            if k != slot && wk != 0.0 {
                entries.push((k as u32, wk));
            }
        }
        self.etas.push(Eta { pos: slot, entries, pivot });
    }

    /// Number of product-form etas stacked on the current factorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Computes the (phase-dependent) reduced cost of column `j` against
    /// dual values `y`.
    #[inline]
    pub(crate) fn reduced_cost(&self, phase1: bool, y: &SparseVec, j: usize) -> f64 {
        let mut d = if phase1 { 0.0 } else { self.cost[j] };
        for (r, v) in self.a.col(j) {
            d -= y.values[r as usize] * v;
        }
        d
    }

    /// Recomputes the full reduced-cost vector of the phase-2 objective
    /// (`0` on basic columns) from a fresh BTRAN of the basic costs — the
    /// baseline the dual phase and the cap ramp maintain incrementally,
    /// re-established after every refactorization.
    pub(crate) fn refresh_reduced_costs(&self, d: &mut Vec<f64>) {
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j as usize]).collect();
        let y = self.btran_vec(SparseVec::from_dense(cb));
        d.clear();
        d.resize(self.ncols, 0.0);
        for (j, dj) in d.iter_mut().enumerate() {
            if self.stat[j] != VStat::Basic {
                *dj = self.reduced_cost(false, &y, j);
            }
        }
    }

    /// Dual ratio-test eligibility of nonbasic column `j` with pivot-row
    /// entry `aj`: moving `x_j` off its bound by `t` changes the leaving
    /// basic variable by `−α_j·t`, which must push it toward its violated
    /// bound (`need_up`: upward). Tiny entries are never pivots.
    fn dual_eligible(&self, j: usize, aj: f64, need_up: bool) -> bool {
        if aj.abs() <= self.opts.pivot_tol {
            return false;
        }
        match self.stat[j] {
            VStat::AtLower => (aj < 0.0) == need_up,
            VStat::AtUpper => (aj > 0.0) == need_up,
            VStat::Free => true,
            VStat::Basic => false,
        }
    }

    /// Single-breakpoint dual ratio test over a computed pivot row: among
    /// eligible columns the smallest `|d_j|/|α_j|`, which keeps every
    /// reduced cost on its feasible side; near-ties prefer the larger
    /// pivot. Returns `(col, α_col, ratio)`.
    pub(crate) fn dual_ratio_test(
        &self,
        row: &PivotRow,
        d: &[f64],
        need_up: bool,
    ) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for &ju in row.touched() {
            let j = ju as usize;
            let aj = row.alpha(j);
            if !self.dual_eligible(j, aj, need_up) {
                continue;
            }
            let ratio = d[j].abs() / aj.abs();
            let better = match best {
                None => true,
                Some((_, ba, br)) => {
                    ratio < br - 1e-12 || (ratio < br + 1e-12 && aj.abs() > ba.abs())
                }
            };
            if better {
                best = Some((j, aj, ratio));
            }
        }
        best
    }

    /// Prices column `j` with reduced cost `d()`: `Some((reduced cost,
    /// direction))` when eligible to enter, `None` otherwise.
    #[inline]
    fn price_one(&self, j: usize, d: impl FnOnce() -> f64) -> Option<(f64, f64)> {
        if !self.can_enter(j) {
            return None;
        }
        let d = d();
        self.entering_dir(j, d).map(|dir| (d, dir))
    }

    /// Phase-2 reduced costs for an objective whose nonzero costs sit on
    /// the `costed` columns only — the lexicographic phase's objectives.
    /// Returns the columns that can enter and that `y`'s nonzero rows touch
    /// or that are costed, ascending, with their reduced costs. The
    /// uncosted ones have `d_k = 0 − α_k` with `α = yᵀA` from the
    /// pivot-row kernel: bit-equal to the column dot up to the sign of zero
    /// (see [`PivotRow`]). The costed ones get the column dot. Every other
    /// column that can enter has `d = 0` exactly: never eligible, never
    /// frozen.
    pub(crate) fn row_reduced_costs(
        &mut self,
        y: &SparseVec,
        costed: &[usize],
    ) -> (Vec<u32>, Vec<f64>) {
        let mut row = std::mem::take(&mut self.coord_row);
        self.pivot_row(y, &mut row);
        let mut cols = row.touched().to_vec();
        let mut d: Vec<f64> = cols.iter().map(|&k| 0.0 - row.alpha(k as usize)).collect();
        self.coord_row = row;
        for &k in costed.iter().filter(|&&k| self.can_enter(k)) {
            let dk = self.reduced_cost(false, y, k);
            match cols.binary_search(&(k as u32)) {
                Ok(i) => d[i] = dk,
                Err(i) => {
                    cols.insert(i, k as u32);
                    d.insert(i, dk);
                }
            }
        }
        (cols, d)
    }

    /// Primal pricing eligibility of nonbasic column `j` with reduced cost
    /// `d`: the direction it enters in (`+1` up, `−1` down), if improving.
    #[inline]
    fn entering_dir(&self, j: usize, d: f64) -> Option<f64> {
        let tol = self.opts.opt_tol;
        match self.stat[j] {
            VStat::AtLower => (d < -tol).then_some(1.0),
            VStat::AtUpper => (d > tol).then_some(-1.0),
            VStat::Free => (d.abs() > tol).then_some(if d > 0.0 { -1.0 } else { 1.0 }),
            VStat::Basic => None,
        }
    }

    /// Selects the entering column among `cols` — ascending, and holding
    /// every column that may be eligible — as `(col, reduced cost,
    /// direction)`; `d(self, i, k)` is the reduced cost of `k = cols[i]`.
    ///
    /// Bland's rule (anti-cycling) and the dense engine scan in index
    /// order: Bland takes the lowest eligible index, the dense engine the
    /// largest `|d|` (Dantzig, first wins). The sparse engine uses
    /// **partial pricing**: column positions are paged `page` at a time,
    /// rotating from `pricing_cursor`, and the best candidate of the first
    /// page containing one enters; the cursor moves past that page.
    /// Optimality is only declared after a full wrap finds no candidate, so
    /// termination guarantees are unchanged. Pages count column positions,
    /// not list entries, so a shorter `cols` that leaves out only
    /// ineligible columns picks the same column and cursor at `O(|cols|)`.
    fn price(
        &mut self,
        bland: bool,
        cols: &[u32],
        d: impl Fn(&Self, usize, usize) -> f64,
    ) -> Option<(usize, f64, f64)> {
        let n = self.ncols;
        let partial = !bland && self.sparse();
        let start = if partial && self.pricing_cursor < n { self.pricing_cursor } else { 0 };
        let page = (n / 8).max(256).min(n);
        let split = cols.partition_point(|&k| (k as usize) < start);
        let mut enter: Option<(usize, f64, f64)> = None;
        let mut enter_page = 0;
        for i in (split..cols.len()).chain(0..split) {
            let k = cols[i] as usize;
            let pg = (k + n - start) % n / page;
            if partial && enter.is_some() && pg > enter_page {
                break;
            }
            let Some((dk, dir)) = self.price_one(k, || d(self, i, k)) else { continue };
            if bland {
                return Some((k, dk, dir));
            }
            if enter.is_none_or(|(_, best, _)| dk.abs() > best.abs()) {
                enter = Some((k, dk, dir));
                enter_page = pg;
            }
        }
        if partial {
            self.pricing_cursor = match enter {
                Some(_) => (start + (page * (enter_page + 1)).min(n)) % n,
                None => start,
            };
        }
        enter
    }

    fn track_degeneracy(&mut self, t: f64) {
        if t <= 1e-10 {
            self.degenerate_run += 1;
        } else {
            self.degenerate_run = 0;
        }
    }

    /// Builds the public [`Solution`] (final duals/reduced costs are
    /// recomputed against a fresh factorization for accuracy).
    pub(crate) fn extract(&mut self, problem: &Problem) -> Solution {
        let n = problem.num_vars();
        if self.m > 0 {
            // Canonicalize the basis slot order before the final
            // factorization: the extracted values then depend only on the
            // final basis *set*, not on the pivot path that produced it, so
            // warm-started and cold solves that reach the same optimal basis
            // return bit-identical results. (Slot order is internal — duals
            // and basic values are recomputed below.)
            self.basis.sort_unstable();
            if self.factor_is_current() {
                // Eta-free solve off a still-current factorization: the
                // sorted final basis is the factored one, so refactoring
                // would rebuild the identical factors. The basic values are
                // still recomputed from the nonbasic assignment (as
                // `refactor` would) to keep the extracted solution
                // independent of the pivot/flip path.
                self.factor_reuses += 1;
                self.recompute_basic_values();
            } else {
                let _ = self.refactor();
            }
            if self.sparse() {
                self.refine_basic_values();
            } else {
                // Engine-independent vertex coordinates: on ill-conditioned
                // bases (near-duplicate columns at degenerate vertices) the
                // refinement fixpoint inherits the factorization's roundoff,
                // so the dense engine re-derives its final basic values
                // against the same sparse kernel the default engine uses.
                // Pivoting, pricing and duals stay on the dense path — only
                // the extracted vertex is computed through shared arithmetic,
                // which is what makes sparse and dense solves bit-identical.
                // The dense engine is the differential oracle, so the extra
                // factorization is off the performance-critical path.
                match SparseLu::factor(&self.a, &self.basis, &SparseLuOptions::default()) {
                    Ok(lu) => {
                        let dense_factor = std::mem::replace(&mut self.factor, Factor::Sparse(lu));
                        self.recompute_basic_values();
                        self.refine_basic_values();
                        self.factor = dense_factor;
                    }
                    Err(_) => self.refine_basic_values(),
                }
            }
            let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j as usize]).collect();
            let y = self.btran_vec(SparseVec::from_dense(cb));
            self.reduced = (0..n)
                .map(|j| {
                    if self.stat[j] == VStat::Basic {
                        0.0
                    } else {
                        let mut d = self.cost[j];
                        for (r, v) in self.a.col(j) {
                            d -= y.values[r as usize] * v;
                        }
                        d
                    }
                })
                .collect();
            // Row dual = reduced cost of the logical column (see module docs).
            self.duals = (0..self.m)
                .map(|i| {
                    let j = n + i;
                    if self.stat[j] == VStat::Basic {
                        0.0
                    } else {
                        y.values[i]
                    }
                })
                .collect();
        } else {
            self.duals = Vec::new();
            if self.reduced.is_empty() {
                self.reduced = self.cost[..n].to_vec();
            } else {
                self.reduced.truncate(n);
            }
        }

        // Undo the equilibration: x_j = s_j x'_j, y_i = r_i y'_i,
        // d_j = d'_j / s_j (see the scaling derivation in `new`). The
        // `+ 0.0` normalizes -0.0 to +0.0 (exact for every other value):
        // the two engines can produce differently signed zeros, and the
        // determinism contract is *bitwise*.
        let values: Vec<f64> = (0..n).map(|j| self.x[j] * self.col_scale[j] + 0.0).collect();
        let duals: Vec<f64> =
            self.duals.iter().enumerate().map(|(i, &y)| y * self.row_scale[i] + 0.0).collect();
        let reduced: Vec<f64> =
            self.reduced.iter().enumerate().map(|(j, &d)| d / self.col_scale[j] + 0.0).collect();
        let internal_obj: f64 = (0..n).map(|j| self.cost[j] * self.x[j]).sum();
        Solution {
            status: Status::Optimal,
            objective: self.sign * internal_obj + 0.0,
            values,
            duals,
            reduced_costs: reduced,
            iterations: self.iterations,
            stats: SolveStats {
                iterations: self.iterations,
                phase1_iterations: self.phase1_iterations,
                refactorizations: self.refactorizations,
                factor_reuses: self.factor_reuses,
                warm_rejected: self.warm_rejected as u64,
                basis_nnz: self.basis_nnz,
                factor_nnz: self.factor_nnz,
                phase1_time_s: self.phase1_time_s,
                phase2_time_s: self.phase2_time_s,
                wall_time_s: 0.0, // stamped by solve_with_basis
                warm_started: self.warm_started,
                solves: 1,
                certified: 0,         // stamped by solve_with_basis after the check
                canonicalized: 0,     // stamped by solve_with_context after the phase
                ramp_breakpoints: 0,  // stamped by the parametric ramp
                ramp_steps: 0,        // stamped by the parametric ramp
                caps_interpolated: 0, // stamped by the parametric ramp
                pricing_dantzig: self.dual_pricing_dantzig as u64,
                basis_interval_skips: self.interval_skips,
            },
        }
    }
}

/// The objective an [`Simplex::iterate`] step prices against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Objective {
    /// The composite phase-1 infeasibility objective.
    Phase1,
    /// The phase-2 costs in `cost`.
    Phase2,
    /// The coordinate objective `e_j` of the lexicographic phase, with
    /// `cost` set to it: its duals are one pivot row, priced through
    /// [`Simplex::row_reduced_costs`].
    Coordinate(usize),
}

pub(crate) enum StepResult {
    Pivoted,
    BoundFlip,
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::{Bound, Problem, Sense};

    fn expr(terms: Vec<(crate::problem::VarId, f64)>) -> LinExpr {
        LinExpr::from(terms)
    }

    #[test]
    fn trivial_bounds_only() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0, 5.0, 1.0);
        let sol = solve(&p).unwrap();
        assert_eq!(sol.value(x), 2.0);
        assert_eq!(sol.objective, 2.0);
    }

    #[test]
    fn unconstrained_maximize_goes_to_upper() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 7.0, 3.0);
        let sol = solve(&p).unwrap();
        assert_eq!(sol.value(x), 7.0);
        assert_eq!(sol.objective, 21.0);
    }

    #[test]
    fn basis_compatibility_tracks_problem_shape() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 4.0, 3.0);
        let y = p.add_var(0.0, 4.0, 2.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Upper(4.0));
        let (_, basis) = solve_with_basis(&p, &SolverOptions::default(), None).unwrap();
        assert!(basis.compatible_with(&p));
        // Same shape, different bounds/RHS: still adoptable (the sweep case).
        let mut q = p.clone();
        q.set_constraint_bound(0, Bound::Upper(6.0));
        assert!(basis.compatible_with(&q));
        // Extra row or extra variable: the snapshot no longer fits.
        let mut extra_row = p.clone();
        extra_row.add_constraint(expr(vec![(x, 1.0)]), Bound::Upper(3.0));
        assert!(!basis.compatible_with(&extra_row));
        let mut extra_var = p.clone();
        extra_var.add_var(0.0, 1.0, 0.0);
        assert!(!basis.compatible_with(&extra_var));
    }

    #[test]
    fn simple_two_var_lp() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → (4,0), obj 12.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 2.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Upper(4.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, 3.0)]), Bound::Upper(6.0));
        let sol = solve(&p).unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-8);
        assert!((sol.value(x) - 4.0).abs() < 1e-8);
        assert!(sol.value(y).abs() < 1e-8);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + y s.t. x + y = 10, x - y = 4 → x=7, y=3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Equal(10.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(4.0));
        let sol = solve(&p).unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-8);
        assert!((sol.value(y) - 3.0).abs() < 1e-8);
        assert!((sol.objective - 10.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_is_reported() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint(expr(vec![(x, 1.0)]), Bound::Lower(2.0));
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_is_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Upper(1.0));
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variables_work() {
        // min |shape|: min x s.t. x >= -3 via free var and a row.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_constraint(expr(vec![(x, 1.0)]), Bound::Lower(-3.0));
        let sol = solve(&p).unwrap();
        assert!((sol.value(x) + 3.0).abs() < 1e-8);
    }

    #[test]
    fn range_rows_clamp_activity() {
        // max x + y with 1 <= x + y <= 3, 0<=x<=2, 0<=y<=2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 2.0, 1.0);
        let y = p.add_var(0.0, 2.0, 1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Range(1.0, 3.0));
        let sol = solve(&p).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Heavily degenerate: many redundant rows through the same vertex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        for _ in 0..10 {
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Upper(1.0));
            p.add_constraint(expr(vec![(x, 2.0), (y, 2.0)]), Bound::Upper(2.0));
        }
        let sol = solve(&p).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-8);
    }

    #[test]
    fn duality_gap_is_tiny_on_optimal() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 10.0, 2.0);
        let y = p.add_var(0.0, 10.0, 3.0);
        let z = p.add_var(0.0, 10.0, 1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0), (z, 1.0)]), Bound::Lower(5.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(1.0));
        p.add_constraint(expr(vec![(y, 1.0), (z, 2.0)]), Bound::Lower(3.0));
        let sol = solve(&p).unwrap();
        assert!(sol.duality_gap(&p) < 1e-7, "gap {}", sol.duality_gap(&p));
        assert!(p.max_violation(&sol.values) < 1e-7);
    }

    #[test]
    fn maximize_duality_gap_is_tiny() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 4.0, 3.0);
        let y = p.add_var(0.0, 4.0, 5.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 2.0)]), Bound::Upper(8.0));
        p.add_constraint(expr(vec![(x, 3.0), (y, 2.0)]), Bound::Upper(12.0));
        let sol = solve(&p).unwrap();
        assert!((sol.objective - 21.0).abs() < 1e-7, "obj {}", sol.objective);
        assert!(sol.duality_gap(&p) < 1e-7);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(3.0, 3.0, 1.0);
        let y = p.add_var(0.0, 10.0, 1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Lower(5.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.value(x), 3.0);
        assert!((sol.value(y) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn negative_lower_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(-5.0, 5.0, 1.0);
        let y = p.add_var(-5.0, 5.0, -1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Equal(0.0));
        let sol = solve(&p).unwrap();
        assert!((sol.objective + 10.0).abs() < 1e-8);
    }

    #[test]
    fn badly_scaled_lp_solves_with_equilibration() {
        // Coefficients spanning 10 orders of magnitude: equilibration keeps
        // the basis factorization healthy and the certificate tight.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 1e8, 1e-6);
        let y = p.add_var(0.0, 1e-2, 1e4);
        p.add_constraint(expr(vec![(x, 1e-5), (y, 1e4)]), Bound::Lower(2.0));
        p.add_constraint(expr(vec![(x, 1e-6), (y, -1e3)]), Bound::Upper(5.0));
        let sol = solve(&p).unwrap();
        // Optimum: satisfy the >= row with x (0.1 cost per unit of
        // activity vs 1.0 via y): x = 2e5, objective 0.2.
        assert!(p.max_violation(&sol.values) < 1e-6, "violation {}", p.max_violation(&sol.values));
        assert!((sol.objective - 0.2).abs() < 1e-9, "obj {}", sol.objective);
        assert!(sol.duality_gap(&p) < 1e-9, "gap {}", sol.duality_gap(&p));
        // Without equilibration the same instance drifts measurably
        // infeasible (tolerances compare against values 10 orders of
        // magnitude apart) — the motivation for scaling by default. In
        // debug/test builds the independent certificate checker catches the
        // drift and fails the solve; in release builds (no automatic
        // certification) the infeasible point is returned as before.
        let unscaled = solve_with(&p, &SolverOptions { scale: false, ..SolverOptions::default() });
        if cfg!(debug_assertions) {
            assert!(
                matches!(unscaled, Err(LpError::Certificate { .. })),
                "expected certification failure, got {unscaled:?}"
            );
        } else {
            let unscaled = unscaled.unwrap();
            assert!(p.max_violation(&unscaled.values) > p.max_violation(&sol.values));
        }
    }

    #[test]
    fn warm_start_reaches_same_optimum_with_fewer_pivots() {
        // A family of RHS-perturbed LPs mimicking the power-cap sweep: only
        // the cap row's bound changes between solves.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, 10.0, 2.0);
            let y = p.add_var(0.0, 10.0, 3.0);
            let z = p.add_var(0.0, 10.0, 1.0);
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0), (z, 1.0)]), Bound::Lower(5.0));
            p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(1.0));
            p.add_constraint(expr(vec![(y, 2.0), (z, 1.0)]), Bound::Upper(cap));
            (p, x, y, z)
        };
        let opts = SolverOptions::default();
        let (p0, ..) = build(8.0);
        let (cold0, basis) = solve_with_basis(&p0, &opts, None).unwrap();
        assert!(!cold0.stats.warm_started);
        assert!(cold0.stats.wall_time_s > 0.0);
        assert!(cold0.stats.refactorizations >= 1);

        // Re-solve at a different cap via set_constraint_bound + warm basis.
        let (mut p1, ..) = build(8.0);
        p1.set_constraint_bound(2, Bound::Upper(6.0));
        let (warm, _) = solve_with_basis(&p1, &opts, Some(&basis)).unwrap();
        assert!(warm.stats.warm_started);
        let (ref_cold, _) = solve_with_basis(&build(6.0).0, &opts, None).unwrap();
        assert!((warm.objective - ref_cold.objective).abs() < 1e-9);
        assert!(
            warm.iterations <= ref_cold.iterations,
            "warm {} > cold {}",
            warm.iterations,
            ref_cold.iterations
        );
    }

    #[test]
    fn context_reuse_is_bit_identical_and_reuses_factors() {
        // Same matrix re-solved at a family of RHS "caps" — the
        // SolverContext contract. Every contexted solve must return exactly
        // the bytes a fresh build returns.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, 10.0, 2.0);
            let y = p.add_var(0.0, 10.0, 3.0);
            let z = p.add_var(0.0, 10.0, 1.0);
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0), (z, 1.0)]), Bound::Lower(5.0));
            p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(1.0));
            p.add_constraint(expr(vec![(y, 2.0), (z, 1.0)]), Bound::Upper(cap));
            p
        };
        let opts = SolverOptions::default();
        let mut ctx = SolverContext::new();
        assert!(!ctx.is_primed());
        let mut basis: Option<Basis> = None;
        for cap in [8.0, 7.0, 6.0, 6.0] {
            let p = build(cap);
            let (fresh, _) = solve_with_basis(&p, &opts, None).unwrap();
            let (served, b) = solve_with_context(&p, &opts, basis.as_ref(), &mut ctx).unwrap();
            assert_eq!(served.objective.to_bits(), fresh.objective.to_bits(), "cap {cap}");
            for (a, f) in served.values.iter().zip(&fresh.values) {
                assert_eq!(a.to_bits(), f.to_bits(), "cap {cap}");
            }
            basis = Some(b);
        }
        assert!(ctx.is_primed());

        // Feeding the basis the cached factorization was computed for back
        // into the same context must skip refactorization entirely.
        let (sol, _) = solve_with_context(&build(6.0), &opts, basis.as_ref(), &mut ctx).unwrap();
        assert!(sol.stats.factor_reuses > 0, "cached factorization was not reused");

        // A different problem shape rebuilds instead of rebinding.
        let mut other = Problem::new(Sense::Minimize);
        let w = other.add_var(0.0, 1.0, 1.0);
        other.add_constraint(expr(vec![(w, 1.0)]), Bound::Lower(0.5));
        let (s2, _) = solve_with_context(&other, &opts, None, &mut ctx).unwrap();
        assert!((s2.objective - 0.5).abs() < 1e-9);
        ctx.clear();
        assert!(!ctx.is_primed());
    }

    #[test]
    fn warm_start_agrees_with_cold_on_infeasible_tightening() {
        // Tightening the cap row until the LP is infeasible must yield the
        // same verdict from the warm (dual simplex Farkas exit) and cold
        // (primal phase-1) paths.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, 10.0, 2.0);
            let y = p.add_var(0.0, 10.0, 3.0);
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Lower(5.0));
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Upper(cap));
            p
        };
        let opts = SolverOptions::default();
        let (_, basis) = solve_with_basis(&build(8.0), &opts, None).unwrap();

        let mut tight = build(8.0);
        tight.set_constraint_bound(1, Bound::Upper(3.0)); // conflicts with ≥ 5
        let warm_err = solve_with_basis(&tight, &opts, Some(&basis)).unwrap_err();
        let cold_err = solve_with_basis(&build(3.0), &opts, None).unwrap_err();
        assert!(matches!(warm_err, LpError::Infeasible), "warm: {warm_err:?}");
        assert!(matches!(cold_err, LpError::Infeasible), "cold: {cold_err:?}");
    }

    #[test]
    fn mismatched_warm_basis_falls_back_to_cold() {
        let mut small = Problem::new(Sense::Minimize);
        let x = small.add_var(0.0, 1.0, 1.0);
        small.add_constraint(expr(vec![(x, 1.0)]), Bound::Lower(0.5));
        let (_, small_basis) = solve_with_basis(&small, &SolverOptions::default(), None).unwrap();

        let mut big = Problem::new(Sense::Minimize);
        let a = big.add_var(0.0, 5.0, 1.0);
        let b = big.add_var(0.0, 5.0, 2.0);
        big.add_constraint(expr(vec![(a, 1.0), (b, 1.0)]), Bound::Lower(3.0));
        big.add_constraint(expr(vec![(a, 1.0), (b, -1.0)]), Bound::Upper(1.0));
        let (sol, _) =
            solve_with_basis(&big, &SolverOptions::default(), Some(&small_basis)).unwrap();
        assert!(!sol.stats.warm_started, "incompatible basis must be ignored");
        // min a + 2b s.t. a+b >= 3, a-b <= 1 → (a,b) = (2,1), objective 4.
        assert!((sol.objective - 4.0).abs() < 1e-8);
    }

    #[test]
    fn stats_are_populated_on_every_solve() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Equal(10.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(4.0));
        let (sol, basis) = solve_with_basis(&p, &SolverOptions::default(), None).unwrap();
        assert!(sol.stats.iterations > 0);
        assert!(sol.stats.wall_time_s > 0.0);
        assert_eq!(sol.stats.iterations, sol.iterations);
        assert!(sol.stats.phase1_iterations <= sol.stats.iterations);
        assert_eq!(sol.stats.solves, 1);
        assert_eq!(basis.dims(), (2, 4));

        let mut agg = crate::SolveStats::default();
        agg.absorb(&sol.stats);
        agg.absorb(&sol.stats);
        assert_eq!(agg.solves, 2);
        assert_eq!(agg.iterations, 2 * sol.stats.iterations);
    }

    #[test]
    fn moderately_sized_transport_lp() {
        // Classic transportation problem: 5 supplies x 7 demands.
        let supplies = [20.0, 30.0, 25.0, 15.0, 10.0];
        let demands = [10.0, 15.0, 20.0, 15.0, 10.0, 20.0, 10.0];
        let mut p = Problem::new(Sense::Minimize);
        let mut xs = vec![];
        for (i, _) in supplies.iter().enumerate() {
            for (j, _) in demands.iter().enumerate() {
                let c = ((i * 7 + j * 3) % 11) as f64 + 1.0;
                xs.push(p.add_var(0.0, f64::INFINITY, c));
            }
        }
        for (i, &s) in supplies.iter().enumerate() {
            let e = expr((0..demands.len()).map(|j| (xs[i * demands.len() + j], 1.0)).collect());
            p.add_constraint(e, Bound::Equal(s));
        }
        for (j, &d) in demands.iter().enumerate() {
            let e = expr((0..supplies.len()).map(|i| (xs[i * demands.len() + j], 1.0)).collect());
            p.add_constraint(e, Bound::Equal(d));
        }
        let sol = solve(&p).unwrap();
        assert!(p.max_violation(&sol.values) < 1e-6);
        assert!(sol.duality_gap(&p) < 1e-6);
    }

    /// A small corpus of structurally diverse LPs used by the engine
    /// differential tests below.
    fn differential_corpus() -> Vec<Problem> {
        let mut corpus = Vec::new();

        // Transportation problem (equalities, phase 1, many columns).
        let supplies = [20.0, 30.0, 25.0, 15.0, 10.0];
        let demands = [10.0, 15.0, 20.0, 15.0, 10.0, 20.0, 10.0];
        let mut p = Problem::new(Sense::Minimize);
        let mut xs = vec![];
        for (i, _) in supplies.iter().enumerate() {
            for (j, _) in demands.iter().enumerate() {
                let c = ((i * 7 + j * 3) % 11) as f64 + 1.0;
                xs.push(p.add_var(0.0, f64::INFINITY, c));
            }
        }
        for (i, &s) in supplies.iter().enumerate() {
            let e = expr((0..demands.len()).map(|j| (xs[i * demands.len() + j], 1.0)).collect());
            p.add_constraint(e, Bound::Equal(s));
        }
        for (j, &d) in demands.iter().enumerate() {
            let e = expr((0..supplies.len()).map(|i| (xs[i * demands.len() + j], 1.0)).collect());
            p.add_constraint(e, Bound::Equal(d));
        }
        corpus.push(p);

        // Bounded maximization with range rows and fixed variables.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_var(0.0, 4.0, 3.0);
        let b = p.add_var(0.0, 4.0, 5.0);
        let c = p.add_var(2.0, 2.0, 1.0);
        p.add_constraint(expr(vec![(a, 1.0), (b, 2.0)]), Bound::Upper(8.0));
        p.add_constraint(expr(vec![(a, 3.0), (b, 2.0), (c, 1.0)]), Bound::Upper(14.0));
        p.add_constraint(expr(vec![(a, 1.0), (b, 1.0)]), Bound::Range(1.0, 7.0));
        corpus.push(p);

        // Free variables and negative bounds.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = p.add_var(-5.0, 5.0, -1.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Lower(-3.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Upper(2.0));
        corpus.push(p);

        // Degenerate vertex with redundant rows.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        for _ in 0..6 {
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Upper(1.0));
            p.add_constraint(expr(vec![(x, 2.0), (y, 2.0)]), Bound::Upper(2.0));
        }
        corpus.push(p);

        corpus
    }

    #[test]
    fn sparse_and_dense_engines_agree_on_corpus() {
        for (i, p) in differential_corpus().iter().enumerate() {
            let sparse = solve_with(
                p,
                &SolverOptions { linear_algebra: LinearAlgebra::Sparse, ..Default::default() },
            )
            .unwrap();
            let dense = solve_with(
                p,
                &SolverOptions { linear_algebra: LinearAlgebra::Dense, ..Default::default() },
            )
            .unwrap();
            let scale = sparse.objective.abs().max(1.0);
            assert!(
                (sparse.objective - dense.objective).abs() / scale < 1e-9,
                "corpus[{i}]: sparse {} vs dense {}",
                sparse.objective,
                dense.objective
            );
            // Both engines must produce certifiable optima independently.
            assert!(sparse.duality_gap(p) < 1e-7, "corpus[{i}] sparse gap");
            assert!(dense.duality_gap(p) < 1e-7, "corpus[{i}] dense gap");
            assert!(p.max_violation(&sparse.values) < 1e-6, "corpus[{i}] sparse violation");
            assert!(p.max_violation(&dense.values) < 1e-6, "corpus[{i}] dense violation");
        }
    }

    #[test]
    fn engines_agree_on_infeasible_and_unbounded_verdicts() {
        let mut inf = Problem::new(Sense::Minimize);
        let x = inf.add_var(0.0, 1.0, 1.0);
        inf.add_constraint(expr(vec![(x, 1.0)]), Bound::Lower(2.0));
        let mut unb = Problem::new(Sense::Maximize);
        let x = unb.add_var(0.0, f64::INFINITY, 1.0);
        let y = unb.add_var(0.0, f64::INFINITY, 0.0);
        unb.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Upper(1.0));
        for la in [LinearAlgebra::Sparse, LinearAlgebra::Dense] {
            let opts = SolverOptions { linear_algebra: la, ..Default::default() };
            assert_eq!(solve_with(&inf, &opts).unwrap_err(), LpError::Infeasible, "{la:?}");
            assert_eq!(solve_with(&unb, &opts).unwrap_err(), LpError::Unbounded, "{la:?}");
        }
    }

    #[test]
    fn warm_basis_transfers_across_engines() {
        // A basis snapshot records a vertex, not factorization internals, so
        // a basis produced under one engine must warm-start the other.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 10.0, 2.0);
        let y = p.add_var(0.0, 10.0, 3.0);
        p.add_constraint(expr(vec![(x, 1.0), (y, 1.0)]), Bound::Lower(5.0));
        p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Upper(1.0));
        let sparse_opts =
            SolverOptions { linear_algebra: LinearAlgebra::Sparse, ..Default::default() };
        let dense_opts =
            SolverOptions { linear_algebra: LinearAlgebra::Dense, ..Default::default() };
        let (_, basis) = solve_with_basis(&p, &sparse_opts, None).unwrap();
        let (warm, _) = solve_with_basis(&p, &dense_opts, Some(&basis)).unwrap();
        assert!(warm.stats.warm_started);
        assert_eq!(warm.stats.warm_rejected, 0);
        let (cold, _) = solve_with_basis(&p, &dense_opts, None).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_rejection_is_counted() {
        let mut small = Problem::new(Sense::Minimize);
        let x = small.add_var(0.0, 1.0, 1.0);
        small.add_constraint(expr(vec![(x, 1.0)]), Bound::Lower(0.5));
        let (_, small_basis) = solve_with_basis(&small, &SolverOptions::default(), None).unwrap();

        let mut big = Problem::new(Sense::Minimize);
        let a = big.add_var(0.0, 5.0, 1.0);
        let b = big.add_var(0.0, 5.0, 2.0);
        big.add_constraint(expr(vec![(a, 1.0), (b, 1.0)]), Bound::Lower(3.0));
        let (rejected, _) =
            solve_with_basis(&big, &SolverOptions::default(), Some(&small_basis)).unwrap();
        assert_eq!(rejected.stats.warm_rejected, 1, "mismatched basis must be counted");
        assert!(!rejected.stats.warm_started);

        // A clean cold solve and an accepted warm solve both report zero.
        let (cold, basis) = solve_with_basis(&big, &SolverOptions::default(), None).unwrap();
        assert_eq!(cold.stats.warm_rejected, 0);
        let (warm, _) = solve_with_basis(&big, &SolverOptions::default(), Some(&basis)).unwrap();
        assert_eq!(warm.stats.warm_rejected, 0);
        assert!(warm.stats.warm_started);
    }

    #[test]
    fn factorization_telemetry_is_populated() {
        for la in [LinearAlgebra::Sparse, LinearAlgebra::Dense] {
            let opts = SolverOptions { linear_algebra: la, ..Default::default() };
            let p = &differential_corpus()[0]; // transport LP, m = 12
            let sol = solve_with(p, &opts).unwrap();
            assert!(sol.stats.refactorizations >= 1, "{la:?}");
            assert!(sol.stats.basis_nnz > 0, "{la:?}");
            assert!(
                sol.stats.factor_nnz >= sol.stats.refactorizations * 12,
                "{la:?}: factors must at least hold the diagonal"
            );
            if la == LinearAlgebra::Dense {
                // Dense factors always store m² entries per refactorization.
                assert_eq!(sol.stats.factor_nnz, sol.stats.refactorizations * 12 * 12);
            } else {
                // The transport basis is sparse; Markowitz must not fill in
                // anywhere near the dense m² bound.
                assert!(
                    sol.stats.factor_nnz < sol.stats.refactorizations * 12 * 12 / 2,
                    "sparse factor_nnz {} suspiciously dense",
                    sol.stats.factor_nnz
                );
            }
        }
    }

    #[test]
    fn sparse_warm_equals_sparse_cold_bitwise() {
        // The bit-identity invariant must hold within the sparse engine:
        // warm and cold solves of the same problem land on identical output
        // after the final refactor + refinement, regardless of pivot path.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, 10.0, 2.0);
            let y = p.add_var(0.0, 10.0, 3.0);
            let z = p.add_var(0.0, 10.0, 1.0);
            p.add_constraint(expr(vec![(x, 1.0), (y, 1.0), (z, 1.0)]), Bound::Lower(5.0));
            p.add_constraint(expr(vec![(x, 1.0), (y, -1.0)]), Bound::Equal(1.0));
            p.add_constraint(expr(vec![(y, 2.0), (z, 1.0)]), Bound::Upper(cap));
            p
        };
        let opts = SolverOptions { linear_algebra: LinearAlgebra::Sparse, ..Default::default() };
        let (_, basis) = solve_with_basis(&build(8.0), &opts, None).unwrap();
        let mut warm_p = build(8.0);
        warm_p.set_constraint_bound(2, Bound::Upper(6.0));
        let (warm, _) = solve_with_basis(&warm_p, &opts, Some(&basis)).unwrap();
        let (cold, _) = solve_with_basis(&build(6.0), &opts, None).unwrap();
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        for (w, c) in warm.values.iter().zip(&cold.values) {
            assert_eq!(w.to_bits(), c.to_bits());
        }
    }
}

#[cfg(test)]
mod pivot_row_tests {
    //! The pivot-row kernel's two branches must agree bit for bit (up to
    //! the sign of zero) with each other and with the column dot, on both
    //! engines' pivot rows; so must the lexicographic phase's row reduced
    //! costs, and the ramp built on the kernel must match cold solves.
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::{Bound, Problem, Sense, VarId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Equal bits, or both zero of either sign.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    /// The column dot `Σ_r y_r·a_rj`, rows ascending, as pricing computed it.
    fn col_dot(a: &CscMatrix, y: &SparseVec, j: usize) -> f64 {
        a.col(j).fold(0.0, |s, (r, v)| s + y.values[r as usize] * v)
    }

    /// Runs both branches on `y` and checks them against each other and
    /// against the column dot over every live column.
    fn check_branches(a: &CscMatrix, y: &SparseVec, live: &[bool]) -> Result<(), TestCaseError> {
        let mut scatter = PivotRow::default();
        scatter.begin(a, y);
        scatter.scatter(a, y, |j| live[j]);
        let mut scan = PivotRow::default();
        scan.begin(a, y);
        scan.scan(a, y, |j| live[j]);
        prop_assert_eq!(scatter.touched(), scan.touched());
        let mut touched = vec![false; a.num_cols()];
        for &ju in scan.touched() {
            let j = ju as usize;
            touched[j] = true;
            let (s, c) = (scatter.alpha(j), scan.alpha(j));
            prop_assert!(same(s, c), "col {j}: scatter {s:e} vs scan {c:e}");
            prop_assert!(same(s, col_dot(a, y, j)), "col {j}: scatter {s:e} vs column dot");
        }
        for j in 0..a.num_cols() {
            let hits = a.col(j).any(|(r, _)| y.values[r as usize] != 0.0);
            prop_assert_eq!(touched[j], live[j] && hits, "col {}", j);
        }
        Ok(())
    }

    /// A random `y` over `m` rows: pattern-tracked or dense, with explicit
    /// zeros inside the pattern and values spanning many magnitudes.
    fn random_y(rng: &mut StdRng, m: usize, fill: f64, dense: bool) -> SparseVec {
        let mut y = SparseVec::zeros(m);
        for r in 0..m {
            if rng.gen_f64() < fill {
                let v = if rng.gen_f64() < 0.1 {
                    0.0
                } else {
                    (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_range(-8i32..8))
                };
                y.values[r] = v;
                y.pattern.push(r as u32);
            }
        }
        if dense {
            y.pattern.clear();
            y.dense = true;
        }
        y
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn branches_agree_on_random_sparse_matrices(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1usize..40);
            let n = rng.gen_range(1usize..80);
            let density = rng.gen_f64() * 0.3;
            let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
            for col in cols.iter_mut() {
                for r in 0..m as u32 {
                    if rng.gen_f64() < density {
                        let scale = 10f64.powi(rng.gen_range(-6i32..6));
                        col.push((r, (rng.gen_f64() - 0.5) * scale));
                    }
                }
            }
            let a = CscMatrix::from_columns(m, &cols);
            let live: Vec<bool> = (0..n).map(|_| rng.gen_f64() < 0.8).collect();
            for fill in [0.05, 0.3, 1.0] {
                for dense in [false, true] {
                    check_branches(&a, &random_y(&mut rng, m, fill, dense), &live)?;
                }
            }
        }
    }

    /// The committed CoMD window (see `tests/seeds/README.md`) at its
    /// middle grid cap, with its power rows and cap grid.
    fn comd_window() -> (Problem, Vec<usize>, Vec<f64>) {
        let text = include_str!("../../../tests/seeds/comd-window.lp");
        let num = |t: &str| t.parse::<f64>().unwrap();
        let mut p = Problem::new(Sense::Minimize);
        let mut power_rows = Vec::new();
        let mut caps = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (key, val) = line.split_once('=').unwrap();
            let list = || val.trim_matches(['[', ']']).split(", ");
            match key {
                "power_rows" => power_rows = list().map(|t| t.parse::<usize>().unwrap()).collect(),
                "caps" => caps = list().map(num).collect(),
                "sense" => assert_eq!(val, "Minimize"),
                "var" => {
                    let v: Vec<f64> = val.split(' ').map(num).collect();
                    p.add_var(v[0], v[1], v[2]);
                }
                "row" => {
                    let (bounds, terms) = val.split_once(" | ").unwrap();
                    let (lo, hi) = bounds.split_once(' ').unwrap();
                    let (lo, hi) = (num(lo), num(hi));
                    let bound = match (lo.is_finite(), hi.is_finite()) {
                        _ if lo == hi => Bound::Equal(lo),
                        (false, _) => Bound::Upper(hi),
                        (_, false) => Bound::Lower(lo),
                        _ => Bound::Range(lo, hi),
                    };
                    let terms: Vec<(VarId, f64)> = terms
                        .split(' ')
                        .map(|t| {
                            let (j, v) = t.split_once(':').unwrap();
                            (VarId::from_index(j.parse().unwrap()), num(v))
                        })
                        .collect();
                    p.add_constraint(LinExpr::from(terms), bound);
                }
                _ => panic!("unknown line {line}"),
            }
        }
        for &row in &power_rows {
            p.set_constraint_bound(row, Bound::Upper(caps[caps.len() / 2]));
        }
        (p, power_rows, caps)
    }

    /// The window solved to its phase-2 optimum under `engine`, before the
    /// canonical phase.
    fn solved_window(engine: LinearAlgebra) -> Simplex {
        let opts = SolverOptions { linear_algebra: engine, ..SolverOptions::default() };
        let mut s = Simplex::new(&comd_window().0, opts);
        s.run().unwrap();
        s
    }

    /// Both engines, with the phase's eta file and right after a fresh
    /// refactorization (the ramp's state past `refactor_every` pivots).
    #[test]
    fn branches_agree_on_a_comd_window() {
        for engine in [LinearAlgebra::Sparse, LinearAlgebra::Dense] {
            let mut s = solved_window(engine);
            branches_agree_on(&s);
            s.refactor().unwrap();
            branches_agree_on(&s);
        }
    }

    fn branches_agree_on(s: &Simplex) {
        let live: Vec<bool> = (0..s.ncols).map(|j| s.can_enter(j)).collect();
        let all = vec![true; s.ncols];
        // Every real pivot row ρ = B⁻ᵀe_k, as the dual phase and the ramp
        // price it, plus the objective's duals as the canonical phase does.
        for k in 0..s.m {
            let rho = s.btran_unit(k);
            check_branches(&s.a, &rho, &live).unwrap();
            check_branches(&s.a, &rho, &all).unwrap();
        }
        let cb: Vec<f64> = s.basis.iter().map(|&j| s.cost[j as usize]).collect();
        check_branches(&s.a, &s.btran_vec(SparseVec::from_dense(cb)), &all).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for fill in [0.02, 0.2, 1.0] {
            for dense in [false, true] {
                check_branches(&s.a, &random_y(&mut rng, s.m, fill, dense), &live).unwrap();
            }
        }
    }

    /// The ramp walks the window's cap grid on both engines, crossing
    /// breakpoints through `ramp_pivot`, with no fallback and every cap
    /// bit-equal to a cold solve. Certification stays off, so a wrong pivot
    /// row could not hide behind a failed certificate and a per-cap retry
    /// in release builds.
    #[test]
    fn ramp_matches_cold_solves_on_a_comd_window() {
        let (mut p, power_rows, caps) = comd_window();
        for engine in [LinearAlgebra::Sparse, LinearAlgebra::Dense] {
            let opts = SolverOptions { linear_algebra: engine, ..SolverOptions::default() };
            let mut ctx = SolverContext::new();
            let out = crate::solve_cap_ramp(&mut p, &power_rows, &caps, &opts, None, &mut ctx);
            assert_eq!(out.fallback_caps, 0, "{engine:?}");
            assert!(!out.breakpoints.is_empty(), "{engine:?}");
            for (point, &cap) in out.points.iter().zip(&caps) {
                for &row in &power_rows {
                    p.set_constraint_bound(row, Bound::Upper(cap));
                }
                let cold = solve_with(&p, &opts).unwrap();
                let (ramp, _) = point.as_ref().unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ramp.values), bits(&cold.values), "{engine:?} cap {cap}");
            }
        }
    }

    /// Every objective of the lexicographic phase on the solved window —
    /// the original costs and each `e_j` of a basic structural — gets the
    /// column-dot reduced cost on every column that can enter (exactly zero
    /// off the returned columns), and pricing over those columns picks the
    /// column, and leaves the cursor, that pricing every column by its
    /// column dot does: both engines, several cursors, Bland on and off.
    #[test]
    fn row_pricing_matches_the_column_scan_on_a_comd_window() {
        for engine in [LinearAlgebra::Sparse, LinearAlgebra::Dense] {
            let mut s = solved_window(engine);
            let n = s.ncols - s.m;
            let all: Vec<u32> = (0..s.ncols as u32).collect();
            let mut objectives = vec![s.cost.clone()];
            for &j in s.basis.iter().filter(|&&j| (j as usize) < n) {
                objectives.push((0..s.ncols).map(|k| (k == j as usize) as u8 as f64).collect());
            }
            for cost in objectives {
                s.cost = cost;
                let costed: Vec<usize> = (0..s.ncols).filter(|&k| s.cost[k] != 0.0).collect();
                let cb: Vec<f64> = s.basis.iter().map(|&b| s.cost[b as usize]).collect();
                let y = s.btran_vec(SparseVec::from_dense(cb));
                let (cols, d) = s.row_reduced_costs(&y, &costed);
                assert!(cols.windows(2).all(|w| w[0] < w[1]));
                let mut row_d = vec![0.0; s.ncols];
                for (&k, &dk) in cols.iter().zip(&d) {
                    row_d[k as usize] = dk;
                }
                for k in (0..s.ncols).filter(|&k| s.can_enter(k)) {
                    let dot = s.reduced_cost(false, &y, k);
                    assert!(same(row_d[k], dot), "{engine:?} {costed:?} col {k}: {dot}");
                }
                for cursor in [0, s.ncols / 2, s.ncols - 1, s.ncols + 3] {
                    for bland in [false, true] {
                        s.pricing_cursor = cursor;
                        let scan = s.price(bland, &all, |s, _, k| s.reduced_cost(false, &y, k));
                        let scan_cursor = s.pricing_cursor;
                        s.pricing_cursor = cursor;
                        let row = s.price(bland, &cols, |_, i, _| d[i]);
                        let pick = |e: Option<(usize, f64, f64)>| e.map(|(q, _, dir)| (q, dir));
                        assert_eq!(pick(row), pick(scan), "{engine:?} {costed:?} {cursor}");
                        assert_eq!(s.pricing_cursor, scan_cursor);
                    }
                }
            }
        }
    }
}
