//! Symbolic (exact-rational) `IncMerge`: the paper's §4 closing remark,
//! executed.
//!
//! *"Only an exact algorithm such as IncMerge can give closed-form
//! solutions suitable for symbolic computation, however."* — for
//! rational releases/works and integer `α`, everything IncMerge touches
//! except the budget-driven final speed is rational: exact-fit block
//! speeds `W/(r_{j+1} − r_i)`, block energies `W·σ^{α−1}`, the server
//! problem's total energy, and the frontier **breakpoints**
//! `Σ_prefix + W_last·σ_pred^{α−1}`. This module runs the algorithm over
//! [`Rational`] and returns those closed forms exactly — on the paper's
//! instance the breakpoints come out as the *integers* 17 and 8, not
//! floats near them.

use crate::error::CoreError;
use pas_numeric::rational::Rational;

/// A job with exact rational release and work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactJob {
    /// Release time.
    pub release: Rational,
    /// Work requirement (positive).
    pub work: Rational,
}

/// An exact block of the symbolic solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactBlock {
    /// First job index (sorted order).
    pub first: usize,
    /// Last job index (inclusive).
    pub last: usize,
    /// Total work.
    pub work: Rational,
    /// Block start (= first job's release).
    pub start: Rational,
    /// Exact-fit speed (`None` for the budget-driven final block of the
    /// frontier construction).
    pub speed: Option<Rational>,
}

/// Validate and sort exact jobs by release.
///
/// # Errors
/// [`CoreError::VerificationFailed`] on empty input, non-positive work
/// or negative release.
fn prepare(jobs: &[ExactJob]) -> Result<Vec<ExactJob>, CoreError> {
    if jobs.is_empty() {
        return Err(CoreError::VerificationFailed {
            reason: "exact instance needs at least one job".to_string(),
        });
    }
    for j in jobs {
        if !j.work.is_positive() || j.release < Rational::ZERO {
            return Err(CoreError::VerificationFailed {
                reason: format!("invalid exact job {j:?}"),
            });
        }
    }
    let mut sorted = jobs.to_vec();
    sorted.sort_by_key(|j| j.release);
    Ok(sorted)
}

/// Exact-fit speed of a window, `None` when the window is empty
/// (infinite speed — the caller treats it as "merge immediately").
fn exact_fit_speed(work: Rational, start: Rational, end: Rational) -> Option<Rational> {
    let d = end.checked_sub(&start).expect("rational range");
    if d.is_positive() {
        Some(work / d)
    } else {
        None
    }
}

/// Energy of `work` at `speed` under `P = σ^α`: `W·σ^{α−1}` — exact.
fn energy(work: Rational, speed: Rational, alpha: u32) -> Rational {
    work * speed.checked_pow(alpha - 1).expect("rational power")
}

/// Solve the **server problem symbolically**: the unique optimal block
/// partition finishing exactly at `deadline` under `P = σ^α`, with the
/// exact rational speeds and the exact total energy.
///
/// # Errors
/// [`CoreError::UnreachableTarget`] when `deadline` is not after the
/// last release; [`CoreError::VerificationFailed`] for invalid jobs.
pub fn server_exact(
    jobs: &[ExactJob],
    alpha: u32,
    deadline: Rational,
) -> Result<(Vec<ExactBlock>, Rational), CoreError> {
    assert!(alpha >= 2, "integer alpha must be at least 2");
    let jobs = prepare(jobs)?;
    let n = jobs.len();
    if deadline <= jobs[n - 1].release {
        return Err(CoreError::UnreachableTarget {
            reason: format!(
                "deadline {deadline} is not after the last release {}",
                jobs[n - 1].release
            ),
        });
    }
    // IncMerge with the deadline as a sentinel release — the f64 version
    // in `incmerge::server`, transcribed over Rational. Infinite-speed
    // (zero-window) segments are represented with `speed: None` and
    // always merge.
    #[derive(Clone)]
    struct Seg {
        first: usize,
        last: usize,
        work: Rational,
        start: Rational,
        window_end: Rational,
    }
    let speed_of = |s: &Seg| exact_fit_speed(s.work, s.start, s.window_end);
    let mut stack: Vec<Seg> = Vec::with_capacity(n);
    for (k, job) in jobs.iter().enumerate() {
        stack.push(Seg {
            first: k,
            last: k,
            work: job.work,
            start: job.release,
            window_end: if k + 1 < n {
                jobs[k + 1].release
            } else {
                deadline
            },
        });
        while stack.len() >= 2 {
            let top_speed = speed_of(&stack[stack.len() - 1]);
            let prev_speed = speed_of(&stack[stack.len() - 2]);
            let must_merge = match (top_speed, prev_speed) {
                (_, None) => true,        // predecessor infinite: absorb
                (None, Some(_)) => false, // top infinite: it is faster
                (Some(t), Some(p)) => t < p,
            };
            if must_merge {
                let top = stack.pop().expect("len >= 2");
                let prev = stack.pop().expect("len >= 1");
                stack.push(Seg {
                    first: prev.first,
                    last: top.last,
                    work: prev.work + top.work,
                    start: prev.start,
                    window_end: top.window_end,
                });
            } else {
                break;
            }
        }
    }
    let mut total = Rational::ZERO;
    let mut blocks = Vec::with_capacity(stack.len());
    for s in &stack {
        let speed = speed_of(s).ok_or_else(|| CoreError::VerificationFailed {
            reason: "zero-length window survived merging".to_string(),
        })?;
        total = total + energy(s.work, speed, alpha);
        blocks.push(ExactBlock {
            first: s.first,
            last: s.last,
            work: s.work,
            start: s.start,
            speed: Some(speed),
        });
    }
    Ok((blocks, total))
}

/// Compute the frontier **breakpoints symbolically**: the exact energies
/// at which the optimal configuration changes, in decreasing order.
///
/// Runs the frontier construction of
/// [`Frontier::build`](crate::makespan::frontier::Frontier::build) over
/// rational arithmetic: breakpoint `k` is
/// `Σ_{prefix} W_b·σ_b^{α−1} + W_last·σ_pred^{α−1}` — all rational.
///
/// # Errors
/// [`CoreError::VerificationFailed`] for invalid jobs.
pub fn breakpoints_exact(jobs: &[ExactJob], alpha: u32) -> Result<Vec<Rational>, CoreError> {
    assert!(alpha >= 2, "integer alpha must be at least 2");
    let jobs = prepare(jobs)?;
    let n = jobs.len();
    // Phase 1: exact-fit blocks for jobs 0..n-1 (f64 frontier, transcribed).
    #[derive(Clone)]
    struct Seg {
        work: Rational,
        start: Rational,
        window_end: Rational,
    }
    let speed_of = |s: &Seg| exact_fit_speed(s.work, s.start, s.window_end);
    let mut stack: Vec<Seg> = Vec::with_capacity(n);
    for k in 0..n - 1 {
        stack.push(Seg {
            work: jobs[k].work,
            start: jobs[k].release,
            window_end: jobs[k + 1].release,
        });
        while stack.len() >= 2 {
            let top_speed = speed_of(&stack[stack.len() - 1]);
            let prev_speed = speed_of(&stack[stack.len() - 2]);
            let must_merge = match (top_speed, prev_speed) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(t), Some(p)) => t < p,
            };
            if must_merge {
                let top = stack.pop().expect("len >= 2");
                let prev = stack.pop().expect("len >= 1");
                stack.push(Seg {
                    work: prev.work + top.work,
                    start: prev.start,
                    window_end: top.window_end,
                });
            } else {
                break;
            }
        }
    }
    // Walk configurations from fastest to slowest, collecting the merge
    // energies of blocks with finite predecessor speed.
    let prefix_energies: Vec<Rational> = {
        let mut acc = Rational::ZERO;
        let mut out = vec![Rational::ZERO];
        for s in &stack {
            if let Some(speed) = speed_of(s) {
                acc = acc + energy(s.work, speed, alpha);
            }
            out.push(acc);
        }
        out
    };
    let mut breakpoints = Vec::new();
    let mut last_work = jobs[n - 1].work;
    for k in (1..=stack.len()).rev() {
        let pred = &stack[k - 1];
        if let Some(pred_speed) = speed_of(pred) {
            let merge_energy = prefix_energies[k] + energy(last_work, pred_speed, alpha);
            breakpoints.push(merge_energy);
        }
        last_work = last_work + pred.work;
    }
    Ok(breakpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn paper_jobs() -> Vec<ExactJob> {
        vec![
            ExactJob {
                release: r(0, 1),
                work: r(5, 1),
            },
            ExactJob {
                release: r(5, 1),
                work: r(2, 1),
            },
            ExactJob {
                release: r(6, 1),
                work: r(1, 1),
            },
        ]
    }

    #[test]
    fn breakpoints_are_exactly_the_integers_17_and_8() {
        // The paper's "configuration changes occur at energy 8 and 17",
        // now as exact integers rather than floats near them.
        let bp = breakpoints_exact(&paper_jobs(), 3).unwrap();
        assert_eq!(bp, vec![Rational::from_int(17), Rational::from_int(8)]);
    }

    #[test]
    fn server_at_thirteen_halves_gives_exactly_17() {
        // Deadline 13/2 = the E=17 configuration endpoint: blocks at
        // speeds 1, 2, 2 — total energy exactly 17.
        let (blocks, total) = server_exact(&paper_jobs(), 3, r(13, 2)).unwrap();
        assert_eq!(total, Rational::from_int(17));
        let speeds: Vec<Rational> = blocks.iter().map(|b| b.speed.unwrap()).collect();
        assert_eq!(speeds, vec![r(1, 1), r(2, 1), r(2, 1)]);
    }

    #[test]
    fn server_matches_float_solver() {
        use crate::makespan::incmerge;
        use pas_power::PolyPower;
        use pas_workload::Instance;
        let jobs = paper_jobs();
        let inst = Instance::from_pairs(&[(0.0, 5.0), (5.0, 2.0), (6.0, 1.0)]).unwrap();
        for (dn, dd) in [(7i128, 1i128), (8, 1), (15, 2), (20, 1)] {
            let (_, exact) = server_exact(&jobs, 3, r(dn, dd)).unwrap();
            let float = incmerge::server(&inst, &PolyPower::CUBE, dn as f64 / dd as f64)
                .unwrap()
                .energy(&PolyPower::CUBE);
            assert!(
                (exact.to_f64() - float).abs() < 1e-9 * float.max(1.0),
                "deadline {dn}/{dd}: exact {exact} vs float {float}"
            );
        }
    }

    /// Small rational instances (the paper's, plus a deterministic family
    /// with quarter-step releases, some simultaneous, and third-step
    /// works) as exact jobs and as the matching float instance.
    fn rational_instances() -> Vec<(Vec<ExactJob>, pas_workload::Instance)> {
        let mut out = vec![paper_jobs()];
        for seed in 0..12i128 {
            let mut release = Rational::ZERO;
            let jobs = (0..3 + seed % 4)
                .map(|k| {
                    release = release + r((seed * 5 + k * 3) % 7, 4);
                    ExactJob {
                        release,
                        work: r(1 + (seed * 7 + k * 11) % 9, 3),
                    }
                })
                .collect();
            out.push(jobs);
        }
        out.into_iter()
            .map(|jobs| {
                let pairs: Vec<(f64, f64)> = jobs
                    .iter()
                    .map(|j| (j.release.to_f64(), j.work.to_f64()))
                    .collect();
                let inst = pas_workload::Instance::from_pairs(&pairs).unwrap();
                (jobs, inst)
            })
            .collect()
    }

    #[test]
    fn float_solvers_stay_as_close_to_exact_as_measured() {
        use crate::makespan::incmerge;
        use pas_power::PolyPower;
        let model = PolyPower::CUBE;
        // At rational deadline D the exact server energy E* is rational:
        // the float server must spend E* at D, and the float laptop
        // given E* must finish at D.
        let (mut server_err, mut laptop_err) = (0.0f64, 0.0f64);
        for (jobs, inst) in rational_instances() {
            let last = jobs.iter().map(|j| j.release).max().unwrap();
            for (dn, dd) in [
                (1i128, 4i128),
                (1, 2),
                (1, 1),
                (3, 2),
                (2, 1),
                (3, 1),
                (5, 1),
                (8, 1),
            ] {
                let deadline = last + r(dn, dd);
                let (_, exact) = server_exact(&jobs, 3, deadline).unwrap();
                let (d, e) = (deadline.to_f64(), exact.to_f64());
                let srv = incmerge::server(&inst, &model, d).unwrap().energy(&model);
                server_err = server_err.max((srv - e).abs() / e);
                let lap = incmerge::laptop(&inst, &model, e).unwrap().makespan();
                laptop_err = laptop_err.max((lap - d).abs() / d);
            }
        }
        // The worst relative errors of the IncMerge that kept a running
        // energy ledger (4.32e-16 and 1.04e-15): the prefix-sum phase 2
        // must be no further from exact.
        assert!(
            server_err <= 4.33e-16,
            "server drifted {server_err:e} from exact"
        );
        assert!(
            laptop_err <= 1.04e-15,
            "laptop drifted {laptop_err:e} from exact"
        );
    }

    #[test]
    fn breakpoints_match_float_frontier_on_rational_instances() {
        use crate::makespan::frontier::Frontier;
        use pas_power::PolyPower;
        use pas_workload::Instance;
        // A second instance with awkward fractions.
        let jobs = vec![
            ExactJob {
                release: r(0, 1),
                work: r(7, 2),
            },
            ExactJob {
                release: r(3, 1),
                work: r(5, 3),
            },
            ExactJob {
                release: r(9, 2),
                work: r(1, 1),
            },
            ExactJob {
                release: r(6, 1),
                work: r(2, 1),
            },
        ];
        let inst =
            Instance::from_pairs(&[(0.0, 3.5), (3.0, 5.0 / 3.0), (4.5, 1.0), (6.0, 2.0)]).unwrap();
        let exact = breakpoints_exact(&jobs, 3).unwrap();
        let float = Frontier::build(&inst, &PolyPower::new(3.0)).breakpoints();
        assert_eq!(exact.len(), float.len());
        for (e, f) in exact.iter().zip(&float) {
            assert!(
                (e.to_f64() - f).abs() < 1e-9 * f.max(1.0),
                "exact {e} vs float {f}"
            );
        }
    }

    #[test]
    fn simultaneous_releases_merge_exactly() {
        let jobs = vec![
            ExactJob {
                release: r(0, 1),
                work: r(1, 1),
            },
            ExactJob {
                release: r(0, 1),
                work: r(2, 1),
            },
        ];
        let (blocks, total) = server_exact(&jobs, 3, r(3, 1)).unwrap();
        // One block, 3 work over 3 time at speed 1: energy exactly 3.
        assert_eq!(blocks.len(), 1);
        assert_eq!(total, Rational::from_int(3));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(server_exact(&[], 3, r(1, 1)).is_err());
        let jobs = paper_jobs();
        assert!(server_exact(&jobs, 3, r(6, 1)).is_err()); // at last release
        let bad = vec![ExactJob {
            release: r(0, 1),
            work: r(0, 1),
        }];
        assert!(server_exact(&bad, 3, r(1, 1)).is_err());
    }

    #[test]
    fn alpha_two_works() {
        // α = 2: energies are W·σ — still rational.
        let (_, total) = server_exact(&paper_jobs(), 2, r(13, 2)).unwrap();
        // blocks (5 @ 1), (2 @ 2), (1 @ 2): 5 + 4 + 2 = 11.
        assert_eq!(total, Rational::from_int(11));
    }
}
