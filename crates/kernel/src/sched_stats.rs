//! Thread-scoped event-skip scheduler counters.
//!
//! The run loop tracks, per [`crate::Simulator`], how many scheduler
//! quanta elapsed and how many of those were charged in closed form by
//! the event-skip scheduler instead of executed. Simulators add their
//! local counters to the *calling thread's* totals when a run call
//! returns, and the worker pool (`hawkeye_fleet::pool::run_ordered`)
//! credits each job's quanta back to the thread that submitted it. A
//! harness therefore reads exactly the work it ran or submitted as the
//! difference of two [`snapshot`]s, whatever else runs concurrently in
//! the process (the bench suite's wall-clock artifacts, the CI
//! skip-efficiency gate).
//!
//! The counters are host-side instrumentation only: they are never part
//! of deterministic simulation output (reports, traces, metric
//! registries) — skipping changes *how* quanta are charged, not what any
//! simulated observable reads.

use std::cell::Cell;

thread_local! {
    static QUANTA: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Adds `total` quanta, `skipped` of them charged in closed form, to this
/// thread's totals. The simulator calls this when a run call returns; the
/// worker pool calls it to credit a job's quanta to its submitter.
pub fn add(total: u64, skipped: u64) {
    QUANTA.with(|q| {
        let (t, s) = q.get();
        q.set((t + total, s + skipped));
    });
}

/// `(quanta_total, quanta_skipped)` accumulated on this thread since it
/// started: its own simulator runs plus the quanta of every pool job it
/// submitted. Callers take the difference of two snapshots.
pub fn snapshot() -> (u64, u64) {
    QUANTA.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_visible_only_on_the_adding_thread() {
        let (t0, s0) = snapshot();
        add(10, 7);
        assert_eq!(snapshot(), (t0 + 10, s0 + 7));
        let other = std::thread::spawn(|| {
            add(3, 1);
            snapshot()
        })
        .join()
        .expect("thread ran");
        assert_eq!(other, (3, 1), "a fresh thread starts from zero");
        assert_eq!(snapshot(), (t0 + 10, s0 + 7), "other threads never leak in");
    }
}
