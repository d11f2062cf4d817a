//! Property-based tests for the simplex and branch-and-bound solvers.
//!
//! Strategy: generate random bounded LPs (so feasibility w.r.t. bounds is
//! decidable and objectives are finite), solve, and certify the answer via
//! strong duality plus independent primal feasibility checks. Small binary
//! MIPs are cross-checked against exhaustive enumeration.

use pcap_lp::{solve, solve_mip, Bound, BranchOptions, LinExpr, LpError, Problem, Sense, VarId};
use proptest::prelude::*;

/// One random row: (terms, row-kind selector, rhs shift).
type RandomRow = (Vec<(usize, f64)>, u8, f64);

/// A compact description of a random LP instance.
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    costs: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<RandomRow>,
    maximize: bool,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..7, 1usize..8, any::<bool>()).prop_flat_map(|(nvars, nrows, maximize)| {
        let costs = proptest::collection::vec(-5.0..5.0f64, nvars);
        let bounds = proptest::collection::vec((-4.0..0.0f64, 0.0..4.0f64), nvars);
        let row =
            (proptest::collection::vec((0..nvars, -3.0..3.0f64), 1..=nvars), 0u8..3, -3.0..3.0f64);
        let rows = proptest::collection::vec(row, nrows);
        (costs, bounds, rows).prop_map(move |(costs, bounds, rows)| RandomLp {
            nvars,
            costs,
            bounds,
            rows,
            maximize,
        })
    })
}

fn build(lp: &RandomLp) -> Problem {
    let sense = if lp.maximize { Sense::Maximize } else { Sense::Minimize };
    let mut p = Problem::new(sense);
    let vars: Vec<VarId> =
        (0..lp.nvars).map(|j| p.add_var(lp.bounds[j].0, lp.bounds[j].1, lp.costs[j])).collect();
    for (terms, kind, rhs) in &lp.rows {
        let expr = LinExpr::from(terms.iter().map(|&(j, c)| (vars[j], c)).collect::<Vec<_>>());
        // Center rows near the bound box so a healthy fraction is feasible.
        let bound = match kind % 3 {
            0 => Bound::Upper(rhs.abs() + 1.0),
            1 => Bound::Lower(-rhs.abs() - 1.0),
            _ => Bound::Range(-rhs.abs() - 2.0, rhs.abs() + 2.0),
        };
        p.add_constraint(expr, bound);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every optimal solution must be primal feasible and carry a dual
    /// certificate with (near-)zero duality gap.
    #[test]
    fn lp_optimal_solutions_are_certified(lp in random_lp()) {
        let p = build(&lp);
        match solve(&p) {
            Ok(sol) => {
                prop_assert!(p.max_violation(&sol.values) < 1e-6,
                    "violation {}", p.max_violation(&sol.values));
                prop_assert!(sol.duality_gap(&p) < 1e-6,
                    "gap {} obj {} dual {}", sol.duality_gap(&p), sol.objective,
                    sol.dual_objective(&p));
                // Objective must agree with an independent evaluation.
                let obj = p.objective_value(&sol.values);
                prop_assert!((obj - sol.objective).abs() < 1e-7);
            }
            Err(LpError::Infeasible) => {} // legitimate outcome
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// With all-finite bounds the LP can never be unbounded.
    #[test]
    fn bounded_boxes_never_unbounded(lp in random_lp()) {
        let p = build(&lp);
        prop_assert!(!matches!(solve(&p), Err(LpError::Unbounded)));
    }

    /// Tightening the power-style budget row can only worsen the optimum
    /// (monotonicity — the core sanity property the scheduling experiments
    /// rely on).
    #[test]
    fn budget_tightening_is_monotone(
        costs in proptest::collection::vec(0.1..5.0f64, 3..6),
        caps in (2.0..10.0f64, 0.2..1.0f64),
    ) {
        let n = costs.len();
        let (loose, shrink) = caps;
        let tight = loose * shrink;
        let mut objs = vec![];
        for cap in [loose, tight] {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<VarId> = costs.iter().map(|&c| p.add_var(0.0, 2.0, c)).collect();
            let e = LinExpr::from((0..n).map(|j| (vars[j], 1.0)).collect::<Vec<_>>());
            p.add_constraint(e, Bound::Upper(cap));
            objs.push(solve(&p).unwrap().objective);
        }
        prop_assert!(objs[1] <= objs[0] + 1e-9, "tight {} loose {}", objs[1], objs[0]);
    }

    /// Branch-and-bound on small binary knapsacks matches brute force.
    #[test]
    fn mip_matches_enumeration(
        values in proptest::collection::vec(0.1..10.0f64, 2..7),
        weights in proptest::collection::vec(0.1..5.0f64, 2..7),
        cap in 1.0..10.0f64,
    ) {
        let n = values.len().min(weights.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..n).map(|j| p.add_bin_var(values[j])).collect();
        let e = LinExpr::from((0..n).map(|j| (vars[j], weights[j])).collect::<Vec<_>>());
        p.add_constraint(e, Bound::Upper(cap));
        let sol = solve_mip(&p, &BranchOptions::default()).unwrap();

        // Brute force over the 2^n subsets.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let w: f64 = (0..n).filter(|j| mask & (1 << j) != 0).map(|j| weights[j]).sum();
            if w <= cap {
                let v: f64 = (0..n).filter(|j| mask & (1 << j) != 0).map(|j| values[j]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "bb {} brute {}", sol.objective, best);
        // Integrality of the reported point.
        for &v in &vars {
            let x = sol.value(v);
            prop_assert!((x - x.round()).abs() < 1e-6);
        }
    }

    /// The LP relaxation bound always dominates the MIP optimum.
    #[test]
    fn relaxation_bounds_mip(
        values in proptest::collection::vec(0.1..10.0f64, 2..6),
        weights in proptest::collection::vec(0.5..5.0f64, 2..6),
        cap in 1.0..8.0f64,
    ) {
        let n = values.len().min(weights.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..n).map(|j| p.add_bin_var(values[j])).collect();
        let e = LinExpr::from((0..n).map(|j| (vars[j], weights[j])).collect::<Vec<_>>());
        p.add_constraint(e, Bound::Upper(cap));

        let mip = solve_mip(&p, &BranchOptions::default()).unwrap();
        // Relaxation: same problem without integrality.
        let mut relaxed = Problem::new(Sense::Maximize);
        let rvars: Vec<VarId> = (0..n).map(|j| relaxed.add_var(0.0, 1.0, values[j])).collect();
        let re = LinExpr::from((0..n).map(|j| (rvars[j], weights[j])).collect::<Vec<_>>());
        relaxed.add_constraint(re, Bound::Upper(cap));
        let lp = solve(&relaxed).unwrap();
        prop_assert!(lp.objective >= mip.objective - 1e-7,
            "lp {} mip {}", lp.objective, mip.objective);
    }
}
