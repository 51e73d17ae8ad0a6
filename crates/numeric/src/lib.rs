//! # pas-numeric
//!
//! Numerical substrate for the `power-aware-scheduling` workspace.
//!
//! The algorithms in Bunde's *Power-aware scheduling for makespan and flow*
//! (SPAA 2006) need a small, well-tested numerical toolkit:
//!
//! * **Root finding** ([`roots`]) — safeguarded bisection and a
//!   Newton–bisection hybrid. The makespan frontier for general convex
//!   power functions, the flow solver's outer binary search, and the
//!   multiprocessor energy-equalization all reduce to inverting monotone
//!   scalar functions.
//! * **Polynomials** ([`poly`]) — dense univariate polynomials with exact
//!   (rational-coefficient-friendly) Horner evaluation, derivatives, and
//!   root isolation. Theorem 8 of the paper exhibits a degree-12 integer
//!   polynomial whose Galois group is unsolvable; we reproduce that
//!   polynomial and verify numerically that our flow solver converges to
//!   one of its real roots.
//! * **Compensated summation** ([`sum`]) — Neumaier summation so energy
//!   totals over many schedule slices do not drift.
//! * **Numeric differentiation** ([`diff`]) — Richardson-extrapolated
//!   central differences, used to cross-check the closed-form first and
//!   second derivatives of the makespan/energy tradeoff (Figures 2 and 3
//!   of the paper).
//! * **Sturm chains** ([`sturm`]) — certified real-root counting, used
//!   to prove the Theorem-8 root inventory complete.
//! * **Comparisons** ([`compare`]) — absolute/relative tolerance helpers.
//! * **Timeline engine** ([`timeline`]) — coordinate-compressed event
//!   axis, Fenwick prefix-sum accumulator, and a sorted-disjoint interval
//!   set. The shared substrate for the deadline stack's critical-interval
//!   queries (YDS/AVR/OA, paper §2) and any other sweep over job windows.
//! * **Kinetic tournament** ([`kinetic`]) — a certificate-based
//!   segment-tree tournament maintaining `argmax_d prefix(d)/(d − t)`
//!   under weight updates and monotone time advance, the `O(log n)`
//!   amortized re-planning core of Optimal Available (`deadline::oa` in
//!   `pas-core`); its max-prefix aggregate doubles as AVR's
//!   density-step maximum.
//! * **Sorted loads** ([`loads`]) — an incrementally sorted load vector
//!   with prefix sums and an `O(log m)` waterfill lower bound, the
//!   search-state core of the §5 `L_α`-norm branch and bound
//!   (`multi::partition` in `pas-core`).
//!
//! The toolkit deliberately restricts itself to field operations and root
//! extraction plus iteration: Theorem 8 shows exact flow optimization is
//! impossible with those operations, and keeping the substrate minimal
//! keeps that distinction honest.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod compare;
pub mod diff;
pub mod kinetic;
pub mod loads;
pub mod poly;
pub mod rational;
pub mod roots;
pub mod sturm;
pub mod sum;
pub mod timeline;

pub use compare::{approx_eq, approx_eq_abs, approx_eq_rel};
pub use kinetic::{Critical, KineticTournament};
pub use loads::SortedLoads;
pub use poly::Polynomial;
pub use rational::Rational;
pub use roots::{bisect, find_decreasing_root, invert_monotone, newton_bisect, Bracket, RootError};
pub use sturm::SturmChain;
pub use sum::NeumaierSum;
pub use timeline::{EventAxis, Fenwick, IntervalSet, TimeKey};
