//! # pcap-lp — linear and mixed-integer linear programming
//!
//! A self-contained LP/MILP solver used as the optimization substrate for the
//! power-constrained scheduling formulations of Bailey et al. (SC 2015).
//! The paper relies on a commercial solver; this crate replaces it with:
//!
//! * a **bounded-variable revised simplex** method ([`simplex`]) over two
//!   interchangeable linear-algebra engines — a sparse default ([`sparse`]:
//!   CSC constraint matrix, Markowitz LU with threshold pivoting,
//!   hyper-sparse FTRAN/BTRAN) and a dense-LU oracle ([`dense`]), both with
//!   product-form (eta) updates and periodic refactorization, a two-pass
//!   tolerance ratio test, and Bland's rule as an anti-cycling fallback;
//! * a **branch-and-bound** wrapper ([`branch`]) for mixed integer-linear
//!   programs such as the paper's flow ILP (appendix) and the discrete
//!   configuration variant of the scheduling LP.
//!
//! The modelling API is deliberately small: build a [`Problem`], add
//! variables with bounds/costs via [`Problem::add_var`], add linear
//! constraints via [`Problem::add_constraint`], and call [`solve`] (or
//! [`solve_with`] for custom [`SolverOptions`]).
//!
//! ```
//! use pcap_lp::{Problem, Sense, Bound, LinExpr, solve};
//!
//! // minimize x + 2y  s.t.  x + y >= 2,  0 <= x,y <= 10
//! let mut p = Problem::new(Sense::Minimize);
//! let x = p.add_var(0.0, 10.0, 1.0);
//! let y = p.add_var(0.0, 10.0, 2.0);
//! p.add_constraint(LinExpr::from(vec![(x, 1.0), (y, 1.0)]), Bound::Lower(2.0));
//! let sol = solve(&p).unwrap();
//! assert!((sol.objective - 2.0).abs() < 1e-9);
//! assert!((sol.value(x) - 2.0).abs() < 1e-9);
//! ```
//!
//! ## Numerical conventions
//!
//! All tolerances live in [`SolverOptions`]. The solver certifies optimality
//! through strong duality: [`Solution`] carries row duals and reduced costs,
//! and `Solution::duality_gap` reports the primal/dual objective mismatch,
//! which the test-suite property checks drive to ~1e-7.

pub mod branch;
pub mod canonical;
pub mod certificate;
pub mod dense;
pub mod error;
pub mod expr;
pub mod parametric;
pub mod problem;
pub mod simplex;
pub mod solution;
pub mod sparse;

pub use branch::{solve_mip, BranchOptions, MipSolution};
pub use certificate::{certify, certify_with, Certificate, CertificateError, CertifyOptions};
pub use error::{LpError, LpResult};
pub use expr::LinExpr;
pub use parametric::{solve_cap_ramp, RampOutcome};
pub use problem::{Bound, Problem, Sense, VarId, VarKind};
pub use simplex::{
    solve, solve_with, solve_with_basis, solve_with_context, Basis, LinearAlgebra, SolverContext,
    SolverOptions,
};
pub use solution::{Solution, SolveStats, Status};
pub use sparse::{CscMatrix, SparseLu, SparseLuOptions};
