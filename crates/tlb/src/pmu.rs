//! Performance-monitoring counters (Table 4 methodology).
//!
//! The paper measures MMU overhead as
//! `(DTLB_LOAD_MISSES_WALK_DURATION + DTLB_STORE_MISSES_WALK_DURATION) *
//! 100 / CPU_CLK_UNHALTED`. The simulator keeps exactly those counters per
//! process: walk durations are charged by the [`crate::Mmu`]; unhalted
//! cycles are charged by the kernel as a process executes.
//!
//! HawkEye-PMU samples a *window* (recent overhead) rather than lifetime
//! totals, so counters support snapshot-and-reset windows.

use hawkeye_metrics::{Cycles, Histogram, LogHistogram, MetricsSink};
use hawkeye_trace::{TraceEvent, TraceSink};

/// One process's counter set.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    load_walk: Cycles,
    store_walk: Cycles,
    unhalted: Cycles,
    walks: u64,
}

/// A snapshot of one measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PmuWindow {
    /// `DTLB_LOAD_MISSES_WALK_DURATION` for the window.
    pub load_walk: Cycles,
    /// `DTLB_STORE_MISSES_WALK_DURATION` for the window.
    pub store_walk: Cycles,
    /// `CPU_CLK_UNHALTED` for the window.
    pub unhalted: Cycles,
    /// Page walks observed.
    pub walks: u64,
}

impl PmuWindow {
    /// MMU overhead per Table 4, as a fraction (0.0–1.0). Returns 0 for an
    /// empty window.
    pub fn mmu_overhead(&self) -> f64 {
        if self.unhalted == Cycles::ZERO {
            return 0.0;
        }
        (self.load_walk + self.store_walk).get() as f64 / self.unhalted.get() as f64
    }

    /// Folds another counter set into this one. Every PMU counter is
    /// additive, so merging per-core (or per-pid) windows is exactly the
    /// counter file a single shared PMU would have recorded — this is
    /// how multi-core machines assemble per-core views from per-process
    /// counters (and how they would fold per-core files back into a
    /// machine-wide one).
    pub fn merge(&mut self, other: &PmuWindow) {
        self.load_walk += other.load_walk;
        self.store_walk += other.store_walk;
        self.unhalted += other.unhalted;
        self.walks += other.walks;
    }
}

/// Per-process performance counters.
///
/// # Examples
///
/// ```
/// use hawkeye_tlb::Pmu;
/// use hawkeye_metrics::Cycles;
///
/// let mut pmu = Pmu::new();
/// pmu.record_walk(1, Cycles::new(300), false);
/// pmu.record_unhalted(1, Cycles::new(1000));
/// assert!((pmu.lifetime(1).mmu_overhead() - 0.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pmu {
    /// Per-pid counter files, sorted by pid. A handful of processes run
    /// per machine, so an inline sorted Vec beats a tree: the per-walk
    /// charge path is a short scan over one cache line.
    lifetime: Vec<(u32, Counters)>,
    window: Vec<(u32, Counters)>,
    /// Event journal handle; disabled (no-op) unless a trace scope attaches.
    trace: TraceSink,
    /// The registry's `walk_cycles` histogram (no-op unless a registry
    /// scope attaches).
    walk_cycles: Histogram,
    /// Walk durations accumulated since the last [`Pmu::flush_metrics`].
    /// Even a lock-free registry observation costs a few atomic adds per
    /// walk — too much for the per-touch path — so walks land here and
    /// merge into `walk_cycles` once per quantum. Merging
    /// is exactly equivalent to per-walk observation (all histogram state
    /// is additive), so registry readers see identical values.
    pending_walks: LogHistogram,
}

/// `table[pid]`, inserting zeroed counters at the sorted position when
/// absent.
#[inline]
fn entry(table: &mut Vec<(u32, Counters)>, pid: u32) -> &mut Counters {
    match table.iter().position(|(p, _)| *p >= pid) {
        Some(i) if table[i].0 == pid => &mut table[i].1,
        Some(i) => {
            table.insert(i, (pid, Counters::default()));
            &mut table[i].1
        }
        None => {
            table.push((pid, Counters::default()));
            &mut table.last_mut().expect("just pushed").1
        }
    }
}

#[inline]
fn get(table: &[(u32, Counters)], pid: u32) -> Option<&Counters> {
    table.iter().find(|(p, _)| *p == pid).map(|(_, c)| c)
}

impl Pmu {
    /// Creates an empty counter file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the event-journal sink used for `QuantumEnd` snapshots.
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Install the cycle-attribution sink feeding the `walk_cycles`
    /// per-walk duration histogram.
    pub fn set_metrics_sink(&mut self, metrics: MetricsSink) {
        self.walk_cycles = metrics.histogram("walk_cycles");
    }

    /// Charges a page-walk duration to `pid` (`store` selects the store
    /// counter, mirroring the two Table 4 events).
    pub fn record_walk(&mut self, pid: u32, duration: Cycles, store: bool) {
        for c in [entry(&mut self.lifetime, pid), entry(&mut self.window, pid)] {
            if store {
                c.store_walk += duration;
            } else {
                c.load_walk += duration;
            }
            c.walks += 1;
        }
        self.pending_walks.observe(duration.get());
    }

    /// Merges the walk durations accumulated since the last flush into
    /// the registry's `walk_cycles` histogram. The simulator calls this
    /// once per quantum (and at run-loop exit); anything reading the
    /// registry afterwards sees exactly what per-walk observation would
    /// have produced.
    pub fn flush_metrics(&mut self) {
        if self.pending_walks.count() > 0 {
            self.walk_cycles.merge(&self.pending_walks);
            self.pending_walks = LogHistogram::new();
        }
    }

    /// Charges executed cycles (`CPU_CLK_UNHALTED`) to `pid`.
    pub fn record_unhalted(&mut self, pid: u32, cycles: Cycles) {
        entry(&mut self.lifetime, pid).unhalted += cycles;
        entry(&mut self.window, pid).unhalted += cycles;
    }

    /// Lifetime counters for `pid` (zeroes if never seen).
    pub fn lifetime(&self, pid: u32) -> PmuWindow {
        Self::to_window(get(&self.lifetime, pid))
    }

    /// Current-window counters for `pid` without resetting.
    pub fn window(&self, pid: u32) -> PmuWindow {
        Self::to_window(get(&self.window, pid))
    }

    /// Returns the current window for `pid` and starts a new one —
    /// HawkEye-PMU's periodic sampling.
    pub fn sample_window(&mut self, pid: u32) -> PmuWindow {
        let w = Self::to_window(get(&self.window, pid));
        self.window.retain(|(p, _)| *p != pid);
        self.trace.emit(
            pid,
            TraceEvent::QuantumEnd {
                load_walk: w.load_walk.get(),
                store_walk: w.store_walk.get(),
                unhalted: w.unhalted.get(),
                walks: w.walks,
            },
        );
        w
    }

    /// Drops all state for an exited process.
    pub fn remove(&mut self, pid: u32) {
        self.lifetime.retain(|(p, _)| *p != pid);
        self.window.retain(|(p, _)| *p != pid);
    }

    /// All pids with lifetime counters, ascending.
    pub fn pids(&self) -> Vec<u32> {
        self.lifetime.iter().map(|(p, _)| *p).collect()
    }

    fn to_window(c: Option<&Counters>) -> PmuWindow {
        c.map(|c| PmuWindow {
            load_walk: c.load_walk,
            store_walk: c.store_walk,
            unhalted: c.unhalted,
            walks: c.walks,
        })
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_formula_matches_table4() {
        let mut pmu = Pmu::new();
        pmu.record_walk(3, Cycles::new(100), false);
        pmu.record_walk(3, Cycles::new(50), true);
        pmu.record_unhalted(3, Cycles::new(1000));
        let w = pmu.lifetime(3);
        assert_eq!(w.walks, 2);
        // (C1 + C2) / C3 = 150/1000
        assert!((w.mmu_overhead() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn window_resets_but_lifetime_accumulates() {
        let mut pmu = Pmu::new();
        pmu.record_walk(1, Cycles::new(10), false);
        pmu.record_unhalted(1, Cycles::new(100));
        let w1 = pmu.sample_window(1);
        assert!((w1.mmu_overhead() - 0.1).abs() < 1e-12);
        // New window is empty.
        assert_eq!(pmu.window(1), PmuWindow::default());
        pmu.record_walk(1, Cycles::new(90), true);
        pmu.record_unhalted(1, Cycles::new(100));
        let w2 = pmu.sample_window(1);
        assert!((w2.mmu_overhead() - 0.9).abs() < 1e-12);
        // Lifetime saw everything.
        assert!((pmu.lifetime(1).mmu_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive_and_partition_independent() {
        let mut pmu = Pmu::new();
        pmu.record_walk(1, Cycles::new(100), false);
        pmu.record_unhalted(1, Cycles::new(1000));
        pmu.record_walk(2, Cycles::new(50), true);
        pmu.record_unhalted(2, Cycles::new(500));
        pmu.record_walk(3, Cycles::new(25), false);
        pmu.record_unhalted(3, Cycles::new(250));
        // Merge per-pid counters in two different groupings (cores
        // {1,2}+{3} vs {1}+{2,3}); the machine-wide fold must agree.
        let fold = |groups: &[&[u32]]| {
            let mut total = PmuWindow::default();
            for g in groups {
                let mut core = PmuWindow::default();
                for pid in *g {
                    core.merge(&pmu.lifetime(*pid));
                }
                total.merge(&core);
            }
            total
        };
        let a = fold(&[&[1, 2], &[3]]);
        let b = fold(&[&[1], &[2, 3]]);
        assert_eq!(a, b);
        assert_eq!(a.walks, 3);
        assert_eq!(a.unhalted, Cycles::new(1750));
        assert!((a.mmu_overhead() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unknown_pid_reads_zero() {
        let pmu = Pmu::new();
        assert_eq!(pmu.lifetime(42).mmu_overhead(), 0.0);
        assert_eq!(pmu.window(42).walks, 0);
    }

    #[test]
    fn remove_clears_state() {
        let mut pmu = Pmu::new();
        pmu.record_unhalted(1, Cycles::new(5));
        assert_eq!(pmu.pids(), vec![1]);
        pmu.remove(1);
        assert!(pmu.pids().is_empty());
    }
}
