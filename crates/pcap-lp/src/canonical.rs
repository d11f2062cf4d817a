//! Canonical-optimum selection: a lexicographic secondary phase.
//!
//! A degenerate LP has a *face* of optimal solutions, and the primal
//! simplex stops at whichever of its vertices the pivot path happened to
//! reach — so a warm-started solve and a cold solve of the same problem can
//! legitimately return different answers. That is poison for everything
//! downstream that assumes a solve is a pure function of the problem:
//! bitwise warm-vs-cold certification, content-addressed result caches,
//! and dual-price-driven policies all need *the* optimum, not *an* optimum.
//!
//! This module walks from the first-found optimum to the **lexicographically
//! minimal optimal vertex** (structural variables, index ascending):
//!
//! 1. **Restrict to the optimal face.** Compute reduced costs against the
//!    original objective from the current factorization. A nonbasic column
//!    with a decisively nonzero reduced cost is at its bound in *every*
//!    optimal solution (complementary slackness), so it is frozen there by
//!    temporarily setting `lower = upper`. Frozen columns are skipped by
//!    pricing, which confines all further pivots to the optimal face.
//! 2. **Minimize each structural coordinate in index order.** For each
//!    unfixed structural column `j`, re-price with the throwaway objective
//!    `e_j` — whose duals are one pivot row, so pricing touches only the
//!    columns that row reaches (see [`Simplex::row_reduced_costs`]) — and
//!    run ordinary phase-2 pivots to optimality: `x_j` reaches its minimum
//!    over the current face. Then freeze the `e_j`-optimal face the same
//!    way — every direction that could change `x_j` is pinned, so later
//!    coordinates are minimized subject to all earlier ones staying
//!    minimal. That is exactly lexicographic minimization.
//! 3. **Stop when the face is a point.** Freezing returns the number of
//!    movable nonbasic columns left; when it hits zero no pivot can change
//!    any value and the remaining coordinates are already determined.
//!
//! Every frozen value is a *bound* value (original or inherited), never an
//! intermediate basic value, so the frozen data — and with it the final
//! vertex — is a deterministic function of the problem, not of the pivot
//! path, the warm basis, or the linear-algebra engine.
//!
//! The same vertex can still be *represented* by different bases when it is
//! degenerate: a column sitting exactly on a bound may be basic in one
//! pivot path and nonbasic in another, and `extract` refines basic values
//! against whichever basis it was handed — two bases for the same vertex
//! can round an interior coordinate to adjacent floats. So after the vertex
//! is pinned, [`Simplex::canonicalize_basis`] determinizes the basis *set*:
//! a greedy matroid-exchange pass that converges to the lexicographically
//! minimal basis representing the vertex, from any starting basis. Only
//! then does `extract`'s freshly factored, slot-sorted refactorization with
//! compensated iterative refinement turn "same vertex" into "same bits".
//!
//! On a non-degenerate problem step 1 freezes every nonbasic column and the
//! phase costs one BTRAN plus one pricing scan. Columns with an infinite
//! lower bound are left untouched (their coordinate minimum may not exist);
//! the phase reports whether it ran to completion so callers can surface
//! partial canonicalization instead of silently claiming determinism.

use crate::error::LpResult;
use crate::simplex::{Objective, Simplex, StepResult, VStat};
use crate::sparse::{nz_indices, SparseVec};

impl Simplex {
    /// Runs the canonical secondary phase on an optimal basis. Returns
    /// `Ok(true)` when the solution was driven to the canonical vertex,
    /// `Ok(false)` when the phase was skipped or gave up (iteration budget,
    /// unbounded coordinate direction under numerical noise) — the basis is
    /// then still primal optimal, merely not canonical.
    pub(crate) fn canonicalize(&mut self) -> LpResult<bool> {
        if self.m == 0 {
            // `solve_unconstrained` already places every column
            // deterministically at its cost-preferred bound.
            return Ok(true);
        }
        // Sort the basis slots before refactoring: `extract` sorts anyway,
        // so when no mini-phase pivot fires (every non-degenerate solve)
        // its final factorization becomes a factor reuse of this one.
        self.basis.sort_unstable();
        if !self.factor_is_current() {
            self.refactor()?;
        }

        let saved_cost = self.cost.clone();
        let saved_lower = self.lower.clone();
        let saved_upper = self.upper.clone();

        let result = self.lex_min_phase();

        self.cost = saved_cost;
        self.lower = saved_lower;
        self.upper = saved_upper;

        match result {
            Ok(true) => {
                // The vertex is canonical; now make its representation so.
                let budget = self.iterations + 2_000 + 20 * (self.m as u64 + self.ncols as u64);
                self.canonicalize_basis(budget)
            }
            other => other,
        }
    }

    /// The lexicographic minimization proper; runs with `cost`/bounds
    /// scratched freely (the caller restores them).
    fn lex_min_phase(&mut self) -> LpResult<bool> {
        let n = self.ncols - self.m;
        // Decisively-nonzero threshold for freezing: looser than `opt_tol`
        // (which pricing already enforces) so a column the primal phase
        // considered "optimal enough" is not kept movable by noise.
        let face_tol = (self.opts.opt_tol * 10.0).max(1e-9);
        // Generous but hard budget: the mini-phases are tiny, but a
        // degenerate cycle here must degrade to "not canonical", not hang.
        let budget = self.iterations + 2_000 + 20 * (self.m as u64 + self.ncols as u64);

        // Step 1: freeze the optimal face of the *original* objective.
        let costed: Vec<usize> = (0..self.ncols).filter(|&k| self.cost[k] != 0.0).collect();
        let mut movable = self.freeze_off_face(face_tol, &costed);
        if movable == 0 {
            return Ok(true);
        }

        // Step 2: minimize structural coordinates in index order.
        for j in 0..n {
            if self.lower[j] == self.upper[j] {
                continue; // fixed or already frozen: its value is pinned
            }
            if !self.lower[j].is_finite() {
                // No finite coordinate minimum is guaranteed; skipping is
                // deterministic (bounds are problem data), but the vertex
                // is then only canonical in the remaining coordinates.
                continue;
            }
            if self.stat[j] == VStat::AtLower {
                // Pricing `e_j` with `j` nonbasic gives `y = 0` and reduced
                // costs `d_k = δ_kj`: `x_j` already sits at its coordinate
                // minimum (d_j = +1 at the lower bound is optimal with zero
                // pivots) and the face-freeze would pin exactly `j`. Do that
                // directly — it skips two BTRANs and two pricing passes for
                // what is, on these LPs, the vast majority of columns.
                self.freeze_at_value(j);
                movable -= 1;
                if movable == 0 {
                    return Ok(true);
                }
                continue;
            }
            self.cost.iter_mut().for_each(|c| *c = 0.0);
            self.cost[j] = 1.0;
            self.degenerate_run = 0;
            loop {
                if self.iterations >= budget {
                    return Ok(false);
                }
                match self.iterate(Objective::Coordinate(j))? {
                    StepResult::Pivoted | StepResult::BoundFlip => {}
                    StepResult::Optimal => break,
                    // Impossible with a finite lower bound on the objective
                    // coordinate unless numerics failed; give up gracefully.
                    StepResult::Unbounded => return Ok(false),
                }
            }
            movable = self.freeze_off_face(face_tol, &[j]);
            if movable == 0 {
                return Ok(true);
            }
        }
        Ok(true)
    }

    /// Determinizes which basis *set* represents the (already canonical)
    /// vertex. At a degenerate vertex some basic columns sit exactly on a
    /// bound; each such column is interchangeable with any nonbasic column
    /// whose tableau entry in its row is nonzero, and which partition the
    /// pivot path left behind is arbitrary. This pass converges to the
    /// lexicographically minimal basis: scan nonbasic candidates `j`
    /// ascending and swap `j` in for the **largest**-index at-bound basic
    /// column in its fundamental circuit with index above `j`.
    ///
    /// Column independence is a linear matroid, so this is the classic
    /// greedy exchange for the minimum-weight basis under the (all-distinct)
    /// weights `w(j) = j`: every basis element below the scan cursor is
    /// final (later swaps only remove columns above the current candidate),
    /// a removed column re-enters the candidate stream when the cursor
    /// reaches it, and the pass terminates at the unique no-improving-swap
    /// basis — independent of which basis the pivot path arrived with.
    ///
    /// Exchanges are degenerate (the entering column stays at its bound
    /// value), so the vertex is untouched except that the leaving column is
    /// snapped onto the bound it sits within `feas_tol` of — exactly the
    /// determinization wanted, since a refined basic value carries basis-
    /// dependent roundoff while the bound itself is problem data. Columns
    /// strictly between their bounds are never ambiguous and never leave.
    ///
    /// The greedy ignores reduced costs — the lex-min basis of the matroid
    /// need not be dual feasible — so a **repair phase** follows: basic
    /// values are recomputed against the (now canonical) basis and ordinary
    /// phase-2 pivots run to optimality under the original objective. Every
    /// repair pivot is degenerate (the vertex is optimal, so no improving
    /// direction has positive step), and every input to the repair — basis
    /// set, slot order, statuses, recomputed values, pricing cursor — is by
    /// then a function of the vertex alone, so the repaired basis is the
    /// same whichever basis the pivot path arrived with. This two-step
    /// shape (canonical start, deterministic walk) sidesteps the trap of
    /// filtering exchanges by reduced cost: at a primal-degenerate vertex
    /// different optimal bases carry *different duals* (dual degeneracy),
    /// so any reduced-cost test is itself path-dependent.
    ///
    /// Cost: nothing at all on non-degenerate solves (no at-bound basic
    /// columns), one hyper-sparse FTRAN per scanned candidate plus the
    /// repair pivots otherwise. Returns `Ok(false)` on a budget bail-out,
    /// mirroring the lexicographic phase.
    fn canonicalize_basis(&mut self, budget: u64) -> LpResult<bool> {
        // Highest at-bound basic column: candidates above it cannot improve
        // the basis, so it bounds the scan (and shrinks as swaps land).
        let mut max_amb: i64 = -1;
        for &jb in &self.basis {
            if self.snap_bound(jb as usize).is_some() {
                max_amb = max_amb.max(jb as i64);
            }
        }
        if max_amb < 0 {
            return Ok(true); // vertex is non-degenerate: the basis is forced
        }
        // Exchange pivots must leave a basis the LU can factor comfortably;
        // `pivot_tol` alone admits near-singular bases whose refined values
        // would carry basis-dependent noise — defeating the whole point.
        let exch_tol = self.opts.pivot_tol.max(1e-6);
        let mut swapped = false;
        let mut j = 0usize;
        while (j as i64) < max_amb {
            if self.stat[j] != VStat::Basic {
                let w = self.ftran_col(j);
                let mut best: Option<(usize, usize, f64)> = None;
                for k in nz_indices(&w) {
                    let wk = w.values[k];
                    if wk.abs() <= exch_tol {
                        continue;
                    }
                    let jb = self.basis[k] as usize;
                    if jb <= j || self.snap_bound(jb).is_none() {
                        continue;
                    }
                    if best.is_none_or(|(c, _, _)| jb > c) {
                        best = Some((jb, k, wk));
                    }
                }
                if let Some((jb, slot, pivot)) = best {
                    swapped = true;
                    let bound = self.snap_bound(jb).unwrap();
                    self.record_eta(&w, slot, pivot);
                    self.basis[slot] = j as u32;
                    self.stat[j] = VStat::Basic;
                    self.x[jb] = bound;
                    self.stat[jb] =
                        if bound == self.lower[jb] { VStat::AtLower } else { VStat::AtUpper };
                    if self.eta_count() >= self.opts.refactor_every {
                        self.refactor()?;
                    }
                    max_amb = -1;
                    for &b in &self.basis {
                        let b = b as usize;
                        if b > j && self.snap_bound(b).is_some() {
                            max_amb = max_amb.max(b as i64);
                        }
                    }
                }
            }
            j += 1;
        }
        if !swapped {
            return Ok(true); // already the canonical representation
        }
        // Repair: the lex-min basis may be dual infeasible. Re-base every
        // repair input on the canonical representation (sorted slots, fresh
        // factorization, recomputed + refined values, pricing cursor at 0)
        // and pivot to optimality; all steps are degenerate, and the walk —
        // hence the final basis — depends only on the canonical vertex.
        self.basis.sort_unstable();
        self.refactor()?;
        self.refine_basic_values();
        self.pricing_cursor = 0;
        self.degenerate_run = 0;
        loop {
            if self.iterations >= budget {
                return Ok(false);
            }
            match self.iterate(Objective::Phase2)? {
                StepResult::Pivoted | StepResult::BoundFlip => {}
                StepResult::Optimal => return Ok(true),
                StepResult::Unbounded => return Ok(false),
            }
        }
    }

    /// The finite bound `x_j` sits on (within `feas_tol`), if any — i.e.
    /// whether a *basic* `j` is degenerate and interchangeable. Lower bound
    /// wins when both match (fixed columns), matching `VStat::AtLower`.
    fn snap_bound(&self, j: usize) -> Option<f64> {
        let x = self.x[j];
        let tol = self.opts.feas_tol;
        let lo = self.lower[j];
        if lo.is_finite() && (x - lo).abs() <= tol * (1.0 + lo.abs()) {
            return Some(lo);
        }
        let hi = self.upper[j];
        if hi.is_finite() && (x - hi).abs() <= tol * (1.0 + hi.abs()) {
            return Some(hi);
        }
        None
    }

    /// Freezes every nonbasic column whose reduced cost against the
    /// *current* (phase) objective is decisively nonzero: such a column
    /// sits at its bound in every optimum of that objective over the
    /// current feasible set, so pinning `lower = upper = x_j` (a bound
    /// value by construction) restricts all further pivots to the optimal
    /// face without disturbing the solution. Returns how many nonbasic
    /// columns remain movable — zero means the face is a single point.
    ///
    /// `costed` lists every column with a nonzero cost, so the reduced
    /// costs come through the pivot-row kernel (see
    /// [`Simplex::row_reduced_costs`]).
    fn freeze_off_face(&mut self, face_tol: f64, costed: &[usize]) -> usize {
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j as usize]).collect();
        let y = self.btran_vec(SparseVec::from_dense(cb));
        let (cols, d) = self.row_reduced_costs(&y, costed);
        for (&k, dk) in cols.iter().zip(d) {
            if dk.abs() > face_tol {
                self.freeze_at_value(k as usize);
            }
        }
        (0..self.ncols).filter(|&k| self.can_enter(k)).count()
    }

    /// Pins column `k` at its current (bound) value: `lower = upper = x_k`.
    fn freeze_at_value(&mut self, k: usize) {
        let xk = self.x[k];
        self.lower[k] = xk;
        self.upper[k] = xk;
    }
}
