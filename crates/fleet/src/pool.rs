//! In-tree scoped worker pool for the scenario and fleet engines.
//!
//! `std::thread` only — tier-1 stays offline, no external runtime. Jobs
//! are claimed work-stealing style from a shared atomic cursor, but every
//! result lands in the slot of its *submission* index, so the returned
//! vector is in submission order regardless of worker count or completion
//! order. That ordered reassembly is what makes every bench table print
//! byte-identical output at any `HAWKEYE_BENCH_THREADS` setting.
//!
//! Scheduler quanta follow the work: each worker's
//! [`hawkeye_kernel::sched_stats`] counts are credited to the submitting
//! thread before [`run_ordered`] returns, so a caller's snapshot delta
//! counts exactly the jobs it submitted at any worker count.
//!
//! This module moved here from `hawkeye-bench` (which re-exports it) so
//! the fleet orchestrator can fan host groups across the same pool
//! without a dependency cycle.

use hawkeye_kernel::sched_stats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A unit of work for the pool.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Worker count for this process: the `HAWKEYE_BENCH_THREADS` override
/// when set (clamped to ≥ 1; constrained CI runners pin it to 1), else
/// [`std::thread::available_parallelism`]. An unparsable override warns
/// once on stderr and is ignored.
pub fn worker_threads() -> usize {
    if let Some(n) = hawkeye_metrics::env::parse::<usize>("HAWKEYE_BENCH_THREADS") {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `jobs` on up to `threads` scoped workers and returns the results
/// in submission order. `threads <= 1` runs inline on the caller's
/// thread — same results, no pool. Either way the jobs' scheduler quanta
/// end up on the caller's [`sched_stats`] counters.
pub fn run_ordered<T: Send>(jobs: Vec<Job<T>>, threads: usize) -> Vec<T> {
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<Job<T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                s.spawn(|| {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = jobs[i].lock().expect("job slot").take().expect("claimed once");
                        let result = job();
                        *slots[i].lock().expect("result slot") = Some(result);
                    }
                    // A scoped worker is a fresh thread: its counters hold
                    // exactly the quanta of the jobs it ran.
                    sched_stats::snapshot()
                })
            })
            .collect();
        for w in workers {
            let (total, skipped) = w.join().expect("worker panicked");
            sched_stats::add(total, skipped);
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 8, 32] {
            let jobs: Vec<Job<usize>> = (0..100usize)
                .map(|i| {
                    Box::new(move || {
                        // Uneven work so completion order differs from
                        // submission order under real parallelism.
                        let mut acc = i;
                        for _ in 0..((i * 7919) % 1000) {
                            acc = (acc * 31 + 1) % 1_000_003;
                        }
                        let _ = acc;
                        i
                    }) as Job<usize>
                })
                .collect();
            let out = run_ordered(jobs, threads);
            assert_eq!(out, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job_sets() {
        assert!(run_ordered::<u32>(vec![], 8).is_empty());
        let one: Vec<Job<u32>> = vec![Box::new(|| 7)];
        assert_eq!(run_ordered(one, 8), vec![7]);
    }

    #[test]
    fn job_quanta_are_credited_to_the_submitting_thread() {
        use hawkeye_kernel::workload::script;
        use hawkeye_kernel::{BasePagesOnly, KernelConfig, MemOp, Simulator};
        let jobs = || -> Vec<Job<()>> {
            (1..=6u64)
                .map(|i| {
                    Box::new(move || {
                        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
                        sim.spawn(script("c", vec![MemOp::Compute { cycles: i * 40_000_000 }]));
                        sim.run();
                    }) as Job<()>
                })
                .collect()
        };
        // Inline reference: every job on this thread, no pool.
        let before = sched_stats::snapshot();
        for job in jobs() {
            job();
        }
        let after = sched_stats::snapshot();
        let inline = (after.0 - before.0, after.1 - before.1);
        assert!(inline.0 > 0, "the simulations ran quanta");
        for threads in [1, 4] {
            let before = sched_stats::snapshot();
            run_ordered(jobs(), threads);
            let after = sched_stats::snapshot();
            assert_eq!((after.0 - before.0, after.1 - before.1), inline, "threads={threads}");
        }
    }

    #[test]
    fn env_override_parses() {
        // Only exercises the parse path indirectly: worker_threads never
        // returns 0 whatever the environment says.
        assert!(worker_threads() >= 1);
    }
}
