//! Deterministic parallel restart runtime shared by every restart-based solver.
//!
//! Restarts of the portfolio's members (greedy descent, simulated annealing,
//! tabu search) and the samples of `qhdcd_qhd::QhdSolver` are embarrassingly
//! parallel, but a naive parallelisation is
//! *non-deterministic*: if all restarts draw from one shared RNG, the
//! trajectory of restart `k` depends on how many draws earlier restarts
//! consumed, which depends on scheduling. This runtime makes parallel restarts
//! **bit-identical regardless of thread count** by construction:
//!
//! 1. **Per-restart streams.** Restart `k` runs on its own `ChaCha8Rng` seeded
//!    with [`restart_stream_seed`]`(root_seed, k)` — a SplitMix64 mix of the
//!    root seed and the restart index. A restart's trajectory is a pure
//!    function of `(model, root_seed, k)`. A kernel may ignore the stream if
//!    its restart is already a pure function of `k`: `QhdSolver` seeds sample
//!    `k` with its own `seed + k`.
//! 2. **One engine per worker.** Each worker thread owns a single
//!    [`LocalFieldState`] reused across its restarts (`set_solution` rebuilds
//!    the cached fields in O(n + nnz) without reallocating); `QhdSolver`
//!    descends each sample's candidates on it.
//! 3. **Ordered reduction.** The best restart is selected by the total order
//!    `(energy, restart index)` — strictly lower energy wins, ties go to the
//!    lowest restart index — so the reduction result does not depend on which
//!    worker finished first.
//!
//! # Anytime budgets
//!
//! [`run_restarts`] takes a [`Budget`] (deadline, cooperative [`CancelToken`]s,
//! deterministic restart cap) and checks it at every restart boundary; kernels
//! additionally observe it at sweep boundaries. The anytime contract:
//!
//! * On budget expiry the runtime returns the best-so-far incumbent and marks
//!   the run truncated rather than erroring.
//! * A restart whose kernel was interrupted mid-trajectory (its result depends
//!   on *when* the budget expired, i.e. on wall clock) is **excluded** from the
//!   completed set and from the reduction — unless no restart completed at
//!   all, in which case the best interrupted result is returned as a
//!   best-effort incumbent with `restarts_completed == 0`.
//! * Consequently the reduced result is a pure function of the completed
//!   restart set whenever at least one restart completed; [`run_restart_set`]
//!   replays any such set and is pinned bit-identical across worker counts.
//! * [`Budget::with_restart_cap`] truncates the schedule itself (the first
//!   `cap` restart indices), which makes the *set* — not just the reduction —
//!   independent of wall clock: the lever the determinism tests use.
//!
//! # Panic isolation
//!
//! A panicking restart kernel no longer aborts the process: the panic is
//! caught at the restart boundary, the restart is marked failed, and the
//! surviving restarts are still reduced deterministically (a failed restart
//! simply drops out of the completed set). Only when *every* restart that ran
//! panicked does the runtime return [`QuboError::RestartPanicked`]. Kernels
//! re-install their starting state via `set_solution` (a full O(n + nnz)
//! rebuild), so a worker's engine is safe to reuse after an unwound restart.

use qhdcd_qubo::{LocalFieldState, QuboError, QuboModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use qhdcd_qubo::{Budget, CancelToken, Completion};

/// The result a restart kernel reports back to the runtime.
#[derive(Debug, Clone)]
pub struct RestartRun {
    /// Best solution found during this restart's trajectory.
    pub solution: Vec<bool>,
    /// Energy of [`RestartRun::solution`] (accumulated incrementally).
    pub energy: f64,
    /// Solver-specific work counter for this restart (sweeps, moves, …).
    pub iterations: u64,
    /// `true` if the kernel exited early because the budget expired. The
    /// runtime excludes interrupted restarts from the completed set (their
    /// trajectory depends on wall clock) unless no restart completed at all.
    pub interrupted: bool,
}

/// Outcome of a full portfolio of restarts.
#[derive(Debug, Clone)]
pub struct PortfolioRun {
    /// Best solution over all completed restarts (best-effort from an
    /// interrupted restart when `restarts_completed == 0`).
    pub solution: Vec<bool>,
    /// Energy of [`PortfolioRun::solution`].
    pub energy: f64,
    /// Index of the restart that produced the best solution.
    pub best_restart: usize,
    /// Total work counter summed over all restarts that ran (including
    /// interrupted ones — work performed is work performed).
    pub iterations: u64,
    /// Number of restarts that ran to their natural end. May be fewer than
    /// requested when the budget preempts the schedule or restarts panic.
    pub restarts_completed: u64,
    /// Number of restarts whose kernel panicked (isolated, not aborted).
    pub restarts_failed: u64,
    /// `true` if the budget (deadline, cancellation, or restart cap) cut the
    /// schedule short. Panicked restarts alone do not mark a run truncated.
    pub truncated: bool,
}

impl PortfolioRun {
    /// The [`Completion`] marker solvers put on their
    /// [`SolveReport`](qhdcd_qubo::SolveReport): `Truncated` carries the
    /// completed-restart count whenever the budget cut the schedule short.
    pub fn completion(&self) -> Completion {
        if self.truncated {
            Completion::Truncated { completed_restarts: self.restarts_completed }
        } else {
            Completion::Full
        }
    }
}

/// Renders a caught panic payload for the structured error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Derives the RNG stream seed of restart `restart` from the portfolio's root
/// seed: one SplitMix64 scramble of the root advanced by `restart + 1` gamma
/// steps. Distinct restarts get well-separated ChaCha key schedules, and the
/// mapping is pure, so a restart's trajectory never depends on scheduling.
pub fn restart_stream_seed(root: u64, restart: u64) -> u64 {
    let mut z = root.wrapping_add(restart.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resolves a thread-count knob: `0` means "all available parallelism", any
/// other value is taken literally; the result is clamped to the restart count.
pub fn resolve_threads(threads: usize, restarts: usize) -> usize {
    let resolved = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    };
    resolved.clamp(1, restarts.max(1))
}

/// Splits `0..items` into at most `workers` contiguous, non-empty ranges of
/// (near-)equal size — the deterministic work partition shared by every
/// data-parallel loop in the workspace (restart batches here, the mean-field
/// variable sweep in `qhdcd-qhd`). Contiguity is what makes per-worker slices
/// of per-item arrays splittable with `split_at_mut`, and the partition is a
/// pure function of `(items, workers)`, so it never depends on scheduling.
pub fn shard_ranges(items: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.clamp(1, items.max(1));
    let chunk = items.div_ceil(workers);
    (0..workers)
        .filter_map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(items);
            (lo < hi).then_some(lo..hi)
        })
        .collect()
}

/// Per-worker accumulator: local bests by `(energy, restart index)` plus work
/// counters, merged across workers in worker order.
#[derive(Default)]
struct WorkerResult {
    best: Option<(f64, usize, Vec<bool>)>,
    best_interrupted: Option<(f64, usize, Vec<bool>)>,
    iterations: u64,
    completed: u64,
    failed: Vec<(usize, String)>,
    budget_hit: bool,
}

/// Runs the restarts named by `indices` (ascending) and merges worker results
/// in worker order. `exempt` is the restart allowed to run even on an
/// already-exhausted budget so a result always exists.
fn run_over_indices<K>(
    model: &QuboModel,
    indices: &[usize],
    threads: usize,
    root_seed: u64,
    budget: &Budget,
    kernel: &K,
) -> WorkerResult
where
    K: Fn(usize, &mut ChaCha8Rng, &mut LocalFieldState<'_>, &Budget) -> RestartRun + Sync,
{
    let threads = resolve_threads(threads, indices.len());
    let exempt = indices.first().copied();

    let run_worker = |range: std::ops::Range<usize>| -> WorkerResult {
        let mut state = LocalFieldState::new(model, vec![false; model.num_variables()]);
        let mut result = WorkerResult::default();
        for &k in &indices[range] {
            // The first scheduled restart always runs so a result exists even
            // with an expired budget (the kernel itself still observes the
            // budget and exits early); every other restart is skipped once the
            // budget is exhausted.
            if Some(k) != exempt && budget.is_exhausted() {
                result.budget_hit = true;
                break;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(restart_stream_seed(root_seed, k as u64));
            // Panic isolation: a panicking kernel unwinds to here, the restart
            // is marked failed, and the worker moves on. The engine is safe to
            // reuse because every kernel re-installs its start with a full
            // `set_solution` rebuild.
            let run = catch_unwind(AssertUnwindSafe(|| kernel(k, &mut rng, &mut state, budget)));
            match run {
                Ok(run) => {
                    result.iterations += run.iterations;
                    // Restart indices ascend within a worker, so a strict
                    // comparison implements the (energy, index) tie-break.
                    if run.interrupted {
                        result.budget_hit = true;
                        if result.best_interrupted.as_ref().is_none_or(|(e, _, _)| run.energy < *e)
                        {
                            result.best_interrupted = Some((run.energy, k, run.solution));
                        }
                    } else {
                        result.completed += 1;
                        if result.best.as_ref().is_none_or(|(e, _, _)| run.energy < *e) {
                            result.best = Some((run.energy, k, run.solution));
                        }
                    }
                }
                Err(payload) => {
                    result.failed.push((k, panic_message(payload.as_ref())));
                }
            }
        }
        result
    };

    let worker_results: Vec<WorkerResult> = if threads == 1 {
        vec![run_worker(0..indices.len())]
    } else {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = shard_ranges(indices.len(), threads)
                .into_iter()
                .map(|range| scope.spawn(move |_| run_worker(range)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("restart workers do not panic")).collect()
        })
        .expect("restart scope does not panic")
    };

    // Workers hold ascending restart ranges, so merging in worker order with a
    // strict comparison keeps the lowest-index tie-break global.
    let mut merged = WorkerResult::default();
    for worker in worker_results {
        merged.iterations += worker.iterations;
        merged.completed += worker.completed;
        merged.budget_hit |= worker.budget_hit;
        merged.failed.extend(worker.failed);
        if let Some((energy, k, solution)) = worker.best {
            if merged.best.as_ref().is_none_or(|(e, _, _)| energy < *e) {
                merged.best = Some((energy, k, solution));
            }
        }
        if let Some((energy, k, solution)) = worker.best_interrupted {
            if merged.best_interrupted.as_ref().is_none_or(|(e, _, _)| energy < *e) {
                merged.best_interrupted = Some((energy, k, solution));
            }
        }
    }
    merged
}

/// Reduces a merged worker result to the public [`PortfolioRun`].
fn finish(merged: WorkerResult, cap_truncated: bool) -> Result<PortfolioRun, QuboError> {
    let restarts_failed = merged.failed.len() as u64;
    if let Some((energy, best_restart, solution)) = merged.best {
        Ok(PortfolioRun {
            solution,
            energy,
            best_restart,
            iterations: merged.iterations,
            restarts_completed: merged.completed,
            restarts_failed,
            truncated: cap_truncated || merged.budget_hit,
        })
    } else if let Some((energy, best_restart, solution)) = merged.best_interrupted {
        // No restart completed: return the best interrupted trajectory as a
        // best-effort incumbent. `restarts_completed == 0` flags that this
        // result is *not* covered by the completed-set purity guarantee.
        Ok(PortfolioRun {
            solution,
            energy,
            best_restart,
            iterations: merged.iterations,
            restarts_completed: 0,
            restarts_failed,
            truncated: true,
        })
    } else {
        let (restart, message) = merged
            .failed
            .first()
            .cloned()
            .expect("no result implies at least one panicked restart");
        Err(QuboError::RestartPanicked { restart, message })
    }
}

/// Runs `restarts` independent restarts of `kernel` over `threads` worker
/// threads under `budget` and reduces to the best result.
///
/// The kernel receives the restart index, the restart's private RNG stream,
/// the worker's shared [`LocalFieldState`] (in an arbitrary previous state —
/// kernels must install their own start via `set_solution`) and the budget
/// (to be observed at sweep boundaries, reporting an early exit via
/// [`RestartRun::interrupted`]). Results are bit-identical for any `threads`
/// value as long as the budget never expires; see the module docs for the
/// construction and for the anytime/panic-isolation semantics.
///
/// # Errors
///
/// [`QuboError::RestartPanicked`] only when every restart that ran
/// panicked; any surviving restart yields `Ok` with the panics counted in
/// [`PortfolioRun::restarts_failed`].
pub fn run_restarts<K>(
    model: &QuboModel,
    restarts: usize,
    threads: usize,
    root_seed: u64,
    budget: &Budget,
    kernel: &K,
) -> Result<PortfolioRun, QuboError>
where
    K: Fn(usize, &mut ChaCha8Rng, &mut LocalFieldState<'_>, &Budget) -> RestartRun + Sync,
{
    let restarts = restarts.max(1);
    // The restart cap truncates the schedule itself: the first `cap` indices
    // run, wall clock plays no part. `Some(0)` is lifted to 1 so a result
    // always exists.
    let scheduled = match budget.restart_cap() {
        Some(cap) => restarts.min((cap.max(1)).min(usize::MAX as u64) as usize),
        None => restarts,
    };
    let cap_truncated = scheduled < restarts;
    let indices: Vec<usize> = (0..scheduled).collect();
    finish(run_over_indices(model, &indices, threads, root_seed, budget, kernel), cap_truncated)
}

/// Replays exactly the restart set `indices` (ascending, non-empty) with an
/// unlimited budget and reduces by `(energy, restart index)`.
///
/// This is the purity witness for the anytime contract: a truncated
/// [`run_restarts`] outcome with `restarts_completed >= 1` equals the
/// `run_restart_set` replay of its completed set, bit-identical for every
/// `threads` value.
///
/// # Errors
///
/// [`QuboError::RestartPanicked`] when every replayed restart panicked.
///
/// # Panics
///
/// Panics if `indices` is empty or not strictly ascending (the reduction's
/// lowest-index tie-break requires ascending order).
pub fn run_restart_set<K>(
    model: &QuboModel,
    indices: &[usize],
    threads: usize,
    root_seed: u64,
    kernel: &K,
) -> Result<PortfolioRun, QuboError>
where
    K: Fn(usize, &mut ChaCha8Rng, &mut LocalFieldState<'_>, &Budget) -> RestartRun + Sync,
{
    assert!(!indices.is_empty(), "run_restart_set needs at least one restart index");
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "run_restart_set indices must be strictly ascending"
    );
    let budget = Budget::unlimited();
    finish(run_over_indices(model, indices, threads, root_seed, &budget, kernel), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use rand::Rng;

    fn model(n: usize, seed: u64) -> QuboModel {
        random_qubo(&RandomQuboConfig {
            num_variables: n,
            density: 0.2,
            coefficient_range: 1.0,
            seed,
        })
        .unwrap()
    }

    /// A toy kernel: random start, first-improvement descent, budget
    /// observed at sweep boundaries.
    fn descent_kernel(
        _k: usize,
        rng: &mut ChaCha8Rng,
        state: &mut LocalFieldState<'_>,
        budget: &Budget,
    ) -> RestartRun {
        let x: Vec<bool> = (0..state.num_variables()).map(|_| rng.gen()).collect();
        state.set_solution(&x).expect("same model");
        let outcome = crate::local_search::descend_state(state, 100, budget);
        RestartRun {
            solution: state.solution().to_vec(),
            energy: state.energy(),
            iterations: outcome.sweeps,
            interrupted: outcome.interrupted,
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_pure() {
        let a = restart_stream_seed(42, 0);
        let b = restart_stream_seed(42, 1);
        let c = restart_stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, restart_stream_seed(42, 0));
    }

    #[test]
    fn thread_resolution_clamps_to_restarts() {
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(1, 100), 1);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(3, 0), 1);
    }

    #[test]
    fn shard_ranges_cover_exactly_once_and_are_contiguous() {
        for (items, workers) in [(0usize, 3usize), (1, 1), (5, 2), (7, 3), (8, 8), (3, 10)] {
            let ranges = shard_ranges(items, workers);
            assert!(ranges.len() <= workers.max(1));
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor, "items={items} workers={workers}");
                assert!(r.end > r.start);
                cursor = r.end;
            }
            assert_eq!(cursor, items, "items={items} workers={workers}");
        }
        assert!(shard_ranges(0, 4).is_empty());
        // The partition is a pure function of its inputs.
        assert_eq!(shard_ranges(100, 7), shard_ranges(100, 7));
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let m = model(60, 5);
        let runs: Vec<PortfolioRun> = [1usize, 2, 3, 8]
            .iter()
            .map(|&t| run_restarts(&m, 12, t, 7, &Budget::unlimited(), &descent_kernel).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.solution, runs[0].solution);
            assert_eq!(r.energy.to_bits(), runs[0].energy.to_bits());
            assert_eq!(r.best_restart, runs[0].best_restart);
            assert_eq!(r.iterations, runs[0].iterations);
            assert_eq!(r.restarts_completed, 12);
            assert_eq!(r.restarts_failed, 0);
            assert!(!r.truncated);
            assert_eq!(r.completion(), Completion::Full);
        }
    }

    #[test]
    fn reduction_prefers_the_lowest_restart_index_on_ties() {
        // A kernel that returns the same energy for every restart: the winner
        // must be restart 0 for every thread count.
        let m = model(10, 1);
        let tie_kernel =
            |_k: usize, _rng: &mut ChaCha8Rng, state: &mut LocalFieldState<'_>, _b: &Budget| {
                state.set_solution(&[false; 10]).expect("same model");
                RestartRun {
                    solution: state.solution().to_vec(),
                    energy: 0.0,
                    iterations: 1,
                    interrupted: false,
                }
            };
        for threads in [1, 2, 5] {
            let run = run_restarts(&m, 5, threads, 0, &Budget::unlimited(), &tie_kernel).unwrap();
            assert_eq!(run.best_restart, 0, "threads={threads}");
        }
    }

    #[test]
    fn an_expired_deadline_returns_a_best_effort_incumbent() {
        let m = model(20, 2);
        for threads in [1usize, 4] {
            let budget = Budget::unlimited()
                .deadline_at(std::time::Instant::now() - std::time::Duration::from_millis(1));
            let run = run_restarts(&m, 50, threads, 3, &budget, &descent_kernel).unwrap();
            // Only the first restart is exempt from the budget check; its
            // kernel observes the exhausted budget at the first sweep boundary
            // and exits interrupted, so nothing counts as completed — but a
            // valid best-effort incumbent is still returned.
            assert_eq!(run.restarts_completed, 0, "threads={threads}");
            assert!(run.truncated, "threads={threads}");
            assert_eq!(run.best_restart, 0, "threads={threads}");
            assert_eq!(run.solution.len(), 20);
            assert_eq!(run.completion(), Completion::Truncated { completed_restarts: 0 });
        }
    }

    #[test]
    fn a_cancel_token_stops_the_schedule() {
        let m = model(20, 2);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().cancelled_by(&token);
        let run = run_restarts(&m, 50, 1, 3, &budget, &descent_kernel).unwrap();
        assert!(run.truncated);
        assert_eq!(run.restarts_completed, 0);
        assert_eq!(run.solution.len(), 20);
    }

    #[test]
    fn restart_cap_truncates_deterministically_across_thread_counts() {
        let m = model(40, 9);
        // A capped run equals an uncapped run scheduled with exactly that many
        // restarts, bit-identically, for every thread count.
        let reference = run_restarts(&m, 5, 1, 7, &Budget::unlimited(), &descent_kernel).unwrap();
        for threads in [1usize, 2, 8] {
            let capped = run_restarts(
                &m,
                12,
                threads,
                7,
                &Budget::unlimited().with_restart_cap(5),
                &descent_kernel,
            )
            .unwrap();
            assert_eq!(capped.solution, reference.solution, "threads={threads}");
            assert_eq!(capped.energy.to_bits(), reference.energy.to_bits());
            assert_eq!(capped.best_restart, reference.best_restart);
            assert_eq!(capped.restarts_completed, 5);
            assert!(capped.truncated);
            assert_eq!(capped.completion(), Completion::Truncated { completed_restarts: 5 });
        }
        // A cap at or above the schedule is not a truncation.
        let uncapped =
            run_restarts(&m, 5, 1, 7, &Budget::unlimited().with_restart_cap(5), &descent_kernel)
                .unwrap();
        assert!(!uncapped.truncated);
    }

    #[test]
    fn run_restart_set_replays_a_completed_set_bit_identically() {
        let m = model(40, 9);
        let runs: Vec<PortfolioRun> = [1usize, 2, 3]
            .iter()
            .map(|&t| run_restart_set(&m, &[1, 4, 7, 9], t, 7, &descent_kernel).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.solution, runs[0].solution);
            assert_eq!(r.energy.to_bits(), runs[0].energy.to_bits());
            assert_eq!(r.best_restart, runs[0].best_restart);
            assert_eq!(r.iterations, runs[0].iterations);
        }
        // The replay of the full prefix equals the plain run.
        let full = run_restarts(&m, 4, 1, 7, &Budget::unlimited(), &descent_kernel).unwrap();
        let replay = run_restart_set(&m, &[0, 1, 2, 3], 2, 7, &descent_kernel).unwrap();
        assert_eq!(full.solution, replay.solution);
        assert_eq!(full.energy.to_bits(), replay.energy.to_bits());
    }

    #[test]
    fn a_panicking_restart_is_isolated_and_survivors_reduce_deterministically() {
        let m = model(30, 4);
        let panicky =
            |k: usize, rng: &mut ChaCha8Rng, state: &mut LocalFieldState<'_>, budget: &Budget| {
                if k == 3 {
                    panic!("injected restart fault");
                }
                descent_kernel(k, rng, state, budget)
            };
        let survivors =
            run_restart_set(&m, &[0, 1, 2, 4, 5, 6, 7], 1, 11, &descent_kernel).unwrap();
        for threads in [1usize, 2, 8] {
            let run = run_restarts(&m, 8, threads, 11, &Budget::unlimited(), &panicky).unwrap();
            assert_eq!(run.restarts_failed, 1, "threads={threads}");
            assert_eq!(run.restarts_completed, 7);
            assert!(!run.truncated, "a panic alone is not a budget truncation");
            // The reduction over the surviving set matches its replay exactly.
            assert_eq!(run.solution, survivors.solution, "threads={threads}");
            assert_eq!(run.energy.to_bits(), survivors.energy.to_bits());
            assert_eq!(run.best_restart, survivors.best_restart);
        }
    }

    #[test]
    fn all_restarts_panicking_surfaces_a_structured_error() {
        let m = model(10, 1);
        let always_panic =
            |_k: usize, _rng: &mut ChaCha8Rng, _state: &mut LocalFieldState<'_>, _b: &Budget| {
                panic!("injected total fault");
            };
        let err = run_restarts(&m, 4, 2, 0, &Budget::unlimited(), &always_panic).unwrap_err();
        let QuboError::RestartPanicked { restart, ref message } = err else {
            panic!("unexpected error {err:?}");
        };
        assert_eq!(restart, 0);
        assert!(message.contains("injected total fault"));
        assert!(err.to_string().contains("restart 0 panicked"));
    }
}
