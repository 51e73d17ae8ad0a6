//! Solve budgets and certified graceful degradation.
//!
//! Theorem 11 makes the exact multiprocessor assignment NP-hard, so a
//! caller with a latency obligation needs the branch and bound to be
//! *interruptible*: stop at a wall-clock or node budget and hand back
//! the best incumbent **with a certified bound gap**, rather than either
//! running unbounded or returning an unqualified heuristic. Today only
//! tests call the budgeted search (`tests/resilience.rs`,
//! `tests/partition_equivalence.rs`); every library caller runs it
//! unlimited.
//!
//! The contract of [`Budgeted`]:
//!
//! * [`Budgeted::Exact`] — the search ran to completion; the value is
//!   the true optimum (bit-identical to the unbudgeted entry point —
//!   the gate only adds an integer counter to the search, never a
//!   float).
//! * [`Budgeted::Degraded`] — the budget ran out. The value is the best
//!   incumbent found; [`Degradation::lower_bound`] is a *sound* lower
//!   bound on the true optimum (min over the incumbent and every
//!   abandoned subtree's waterfill relaxation), so
//!   `optimum ∈ [lower_bound, value]` and
//!   [`Degradation::bound_gap`]` = value − lower_bound ≥ 0` certifies
//!   how far from optimal the answer can possibly be.
//!
//! A zero budget degrades immediately to the seeded heuristic incumbent
//! (LPT + local search) with the root relaxation as the bound — i.e.
//! the ladder bottoms out at "heuristic with a certificate", never at a
//! panic or a hang.

use std::time::{Duration, Instant};

/// Resource limits for an exact search.
///
/// `None` in a field means that resource is unlimited. The default is
/// [`SolveBudget::UNLIMITED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Wall-clock limit. Checked at node granularity (every ~2048
    /// nodes), so the search returns within the budget plus a few
    /// thousand node expansions — well inside 2× for budgets above a
    /// millisecond.
    pub wall: Option<Duration>,
    /// Search-node limit (deterministic, unlike wall time).
    pub nodes: Option<u64>,
}

impl SolveBudget {
    /// No limits: the search runs to proven optimality.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        wall: None,
        nodes: None,
    };

    /// Limit wall-clock time only.
    pub fn wall(limit: Duration) -> Self {
        SolveBudget {
            wall: Some(limit),
            nodes: None,
        }
    }

    /// Limit explored search nodes only (deterministic).
    pub fn nodes(limit: u64) -> Self {
        SolveBudget {
            wall: None,
            nodes: Some(limit),
        }
    }
}

/// What a budget exhaustion cost: the incumbent, its certificate, and
/// the effort spent.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation<T> {
    /// Best incumbent found before the budget ran out.
    pub value: T,
    /// Sound lower bound on the true optimum (never above the
    /// incumbent's objective).
    pub lower_bound: f64,
    /// Certified optimality gap: incumbent objective − `lower_bound`,
    /// always ≥ 0. Zero means the incumbent is optimal even though the
    /// search could not finish proving it.
    pub bound_gap: f64,
    /// Search nodes expanded.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Result of a budgeted search: exact, or degraded-with-certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum Budgeted<T> {
    /// The search completed; this is the proven optimum.
    Exact(T),
    /// The budget ran out; best incumbent plus certified gap.
    Degraded(Degradation<T>),
}

impl<T> Budgeted<T> {
    /// The payload, discarding the exact/degraded distinction.
    pub fn into_value(self) -> T {
        match self {
            Budgeted::Exact(v) => v,
            Budgeted::Degraded(d) => d.value,
        }
    }

    /// Borrow the payload.
    pub fn value(&self) -> &T {
        match self {
            Budgeted::Exact(v) => v,
            Budgeted::Degraded(d) => &d.value,
        }
    }

    /// Whether the budget ran out before optimality was proven.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Budgeted::Degraded(_))
    }

    /// The degradation certificate, when degraded.
    pub fn degradation(&self) -> Option<&Degradation<T>> {
        match self {
            Budgeted::Degraded(d) => Some(d),
            Budgeted::Exact(_) => None,
        }
    }
}

/// How often ticks consult the wall clock (`Instant::now` is ~20ns but
/// nodes are ~100ns; every node would be a measurable tax).
const WALL_CHECK_PERIOD: u64 = 2048;

/// Sequential budget gate: counts nodes, polls the wall clock
/// periodically, tracks the min abandoned bound.
#[derive(Debug)]
pub(crate) struct BudgetGate {
    node_limit: Option<u64>,
    deadline: Option<Instant>,
    start: Instant,
    nodes: u64,
    exhausted: bool,
    min_abandoned: f64,
}

impl BudgetGate {
    pub(crate) fn new(budget: &SolveBudget) -> Self {
        let start = Instant::now();
        BudgetGate {
            node_limit: budget.nodes,
            deadline: budget.wall.map(|w| start + w),
            start,
            nodes: 0,
            exhausted: false,
            min_abandoned: f64::INFINITY,
        }
    }

    /// Account one search node. `false` means the budget is exhausted:
    /// the caller must stop descending and report the subtree it is
    /// abandoning via [`BudgetGate::abandon`].
    pub(crate) fn tick(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if let Some(limit) = self.node_limit {
            if self.nodes >= limit {
                self.exhausted = true;
                return false;
            }
        }
        self.nodes += 1;
        if let Some(deadline) = self.deadline {
            // First node and then every WALL_CHECK_PERIOD nodes.
            if self.nodes % WALL_CHECK_PERIOD == 1 && Instant::now() >= deadline {
                self.exhausted = true;
                return false;
            }
        }
        true
    }

    /// Record the relaxation bound of a subtree abandoned because of
    /// exhaustion (NOT because of pruning). The minimum over these,
    /// combined with the incumbent, is the certified lower bound.
    pub(crate) fn abandon(&mut self, bound: f64) {
        if bound < self.min_abandoned {
            self.min_abandoned = bound;
        }
    }

    pub(crate) fn nodes(&self) -> u64 {
        self.nodes
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// `min(incumbent, min abandoned bound)` is the certified lower
    /// bound; this is the abandoned half.
    pub(crate) fn min_abandoned(&self) -> f64 {
        self.min_abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_gate_never_exhausts() {
        let mut g = BudgetGate::new(&SolveBudget::UNLIMITED);
        for _ in 0..100_000 {
            assert!(g.tick());
        }
        assert!(!g.exhausted());
        assert_eq!(g.nodes(), 100_000);
        assert_eq!(g.min_abandoned(), f64::INFINITY);
    }

    #[test]
    fn node_limit_is_exact_and_sticky() {
        let mut g = BudgetGate::new(&SolveBudget::nodes(5));
        for _ in 0..5 {
            assert!(g.tick());
        }
        assert!(!g.tick());
        assert!(!g.tick(), "exhaustion is sticky");
        assert!(g.exhausted());
        assert_eq!(g.nodes(), 5);
        g.abandon(3.0);
        g.abandon(7.0);
        assert_eq!(g.min_abandoned(), 3.0);
    }

    #[test]
    fn zero_wall_budget_exhausts_on_first_tick() {
        let mut g = BudgetGate::new(&SolveBudget::wall(Duration::ZERO));
        assert!(!g.tick());
        assert!(g.exhausted());
    }

    #[test]
    fn budgeted_accessors() {
        let e: Budgeted<i32> = Budgeted::Exact(7);
        assert!(!e.is_degraded());
        assert_eq!(*e.value(), 7);
        assert_eq!(e.into_value(), 7);
        let d: Budgeted<i32> = Budgeted::Degraded(Degradation {
            value: 9,
            lower_bound: 4.0,
            bound_gap: 5.0,
            nodes: 17,
            elapsed: Duration::from_millis(3),
        });
        assert!(d.is_degraded());
        assert_eq!(d.degradation().unwrap().nodes, 17);
        assert_eq!(d.into_value(), 9);
    }

    #[test]
    fn budget_constructors() {
        let nodes = SolveBudget {
            wall: None,
            nodes: Some(1),
        };
        assert_eq!(SolveBudget::nodes(1), nodes);
        let second = Duration::from_secs(1);
        let wall = SolveBudget {
            wall: Some(second),
            nodes: None,
        };
        assert_eq!(SolveBudget::wall(second), wall);
        assert_eq!(SolveBudget::default(), SolveBudget::UNLIMITED);
    }
}
