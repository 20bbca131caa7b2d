//! The cycle-attribution registry: named counters, gauges, and
//! log-bucketed histograms with a zero-cost disabled path.
//!
//! The paper's whole argument is an accounting one — MMU overhead is walk
//! cycles over `CPU_CLK_UNHALTED` (Table 4), and HawkEye's wins come from
//! *where* kernel cycles are spent (async pre-zeroing §3.1 vs. synchronous
//! zeroing, access-bit scans §3.4, promotion copies). The registry makes
//! that attribution exact: every charge to the simulated clock is tagged
//! with a [`Subsystem`], and per machine the CPU-side tags sum to the
//! unhalted counter ([`UNHALTED`]) — asserted in tests and checked by the
//! `hawkeye-analyze` residue pass.
//!
//! Wiring mirrors the trace layer (`hawkeye-trace`): emit sites hold a
//! cheap cloneable [`MetricsSink`] that early-returns on one branch when no
//! registry scope is active, so instrumentation can never perturb the
//! simulation (the registry-drift test pins this). Scoping is per-thread:
//! the bench scenario engine calls [`scope::begin`] before a scenario and
//! [`scope::end`] after; machines created inside the scope attach via
//! [`MetricsSink::attach_current`] and get per-scope machine ids in
//! creation order, keeping snapshots deterministic at any worker count.
//!
//! Storage is lock-free where it is hot. Each attached machine owns one
//! set of cells: fixed atomic slots for both ledgers (indexed by
//! [`Subsystem`]) and for [`UNHALTED`], plus named counter and histogram
//! cells that emit sites resolve once into [`Counter`] / [`Histogram`]
//! handles. A charge is a relaxed atomic add — no lock, no name lookup.
//! By-name calls find or register the same cells under a per-machine
//! lock, and gauges live under that lock. Readers ([`MetricsSink::snapshot`],
//! [`scope::end`]) fold the cells into a [`MachineMetrics`] in name order,
//! keeping only nonzero counters and observed histograms, which is
//! exactly what a map charged one call at a time would hold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::time::Cycles;

/// Counter name for `CPU_CLK_UNHALTED`: every cycle a process executes,
/// recorded once per scheduler quantum ([`MetricsSink::charge_unhalted`]).
/// The per-subsystem CPU ledger ([`Subsystem::cpu_key`]) must sum exactly
/// to this counter.
pub const UNHALTED: &str = "cycles.unhalted";

/// Where a simulated cycle went. One tag per charge to the clock.
///
/// The same taxonomy covers both ledgers:
/// * the **CPU ledger** (`cycles.cpu.*`) — cycles inside a process's
///   scheduler quantum, summing to [`UNHALTED`];
/// * the **daemon ledger** (`cycles.daemon.*`) — background kernel work
///   (khugepaged, kcompactd, the pre-zero thread), summing to the
///   kernel's `daemon_cycles` stat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// TLB-miss translation work: page walks plus L2-TLB lookup cycles.
    Walk,
    /// Fault handling and page-table maintenance: fault handlers, COW
    /// breaks, syscall entry, munmap/madvise bookkeeping, huge-page
    /// splits (demotion is a PTE rewrite).
    Fault,
    /// Page zeroing, synchronous (fault path) or asynchronous (§3.1).
    Zero,
    /// Page copies: promotion collapses and compaction migrations charge
    /// their copy portion here.
    Copy,
    /// Content scans: bloat-recovery zero-byte scans (§3.2).
    Scan,
    /// Compaction passes (migration bookkeeping).
    Compact,
    /// Zero-page de-duplication beyond the scan: demote + remap work.
    Dedup,
    /// Application compute: think time, in-core accesses, spin loops.
    Idle,
}

impl Subsystem {
    /// All subsystems, in report order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Walk,
        Subsystem::Fault,
        Subsystem::Zero,
        Subsystem::Copy,
        Subsystem::Scan,
        Subsystem::Compact,
        Subsystem::Dedup,
        Subsystem::Idle,
    ];

    /// Stable lower-case tag.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Walk => "walk",
            Subsystem::Fault => "fault",
            Subsystem::Zero => "zero",
            Subsystem::Copy => "copy",
            Subsystem::Scan => "scan",
            Subsystem::Compact => "compact",
            Subsystem::Dedup => "dedup",
            Subsystem::Idle => "idle",
        }
    }

    /// CPU-ledger counter name (`cycles.cpu.<tag>`): the name the
    /// ledger slot charged by [`MetricsSink::charge_cpu`] takes on read.
    pub fn cpu_key(self) -> &'static str {
        match self {
            Subsystem::Walk => "cycles.cpu.walk",
            Subsystem::Fault => "cycles.cpu.fault",
            Subsystem::Zero => "cycles.cpu.zero",
            Subsystem::Copy => "cycles.cpu.copy",
            Subsystem::Scan => "cycles.cpu.scan",
            Subsystem::Compact => "cycles.cpu.compact",
            Subsystem::Dedup => "cycles.cpu.dedup",
            Subsystem::Idle => "cycles.cpu.idle",
        }
    }

    /// Daemon-ledger counter name (`cycles.daemon.<tag>`): the name the
    /// ledger slot charged by [`MetricsSink::charge_daemon`] takes on read.
    pub fn daemon_key(self) -> &'static str {
        match self {
            Subsystem::Walk => "cycles.daemon.walk",
            Subsystem::Fault => "cycles.daemon.fault",
            Subsystem::Zero => "cycles.daemon.zero",
            Subsystem::Copy => "cycles.daemon.copy",
            Subsystem::Scan => "cycles.daemon.scan",
            Subsystem::Compact => "cycles.daemon.compact",
            Subsystem::Dedup => "cycles.daemon.dedup",
            Subsystem::Idle => "cycles.daemon.idle",
        }
    }
}

/// An HDR-style histogram over `u64` values with power-of-two buckets:
/// bucket 0 holds exact zeros, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
/// Integer bookkeeping throughout, so identical observation sequences
/// produce identical percentiles on any platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { counts: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (0–100), resolved to the upper bound of the
    /// bucket holding the rank-`⌈p/100·n⌉` observation, clamped to the
    /// observed `[min, max]`. Bucketed, hence approximate within a factor
    /// of 2 — and exactly reproducible.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let hi = if i == 0 { 0u64 } else { (((1u128 << i) - 1).min(u64::MAX as u128)) as u64 };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (the analyzer folds
    /// per-event observations machine by machine).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One machine's metrics: counters, gauges, and histograms, all keyed by
/// stable static names (BTreeMaps, so iteration — and hence every report —
/// is deterministic).
#[derive(Debug, Clone, Default)]
pub struct MachineMetrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl MachineMetrics {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Counter value (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// CPU-ledger cycles tagged `sub`.
    pub fn cpu_cycles(&self, sub: Subsystem) -> u64 {
        self.counter(sub.cpu_key())
    }

    /// Daemon-ledger cycles tagged `sub`.
    pub fn daemon_cycles(&self, sub: Subsystem) -> u64 {
        self.counter(sub.daemon_key())
    }

    /// Sum of the CPU ledger across all subsystems.
    pub fn cpu_total(&self) -> u64 {
        Subsystem::ALL.iter().map(|s| self.cpu_cycles(*s)).sum()
    }

    /// Sum of the daemon ledger across all subsystems.
    pub fn daemon_total(&self) -> u64 {
        Subsystem::ALL.iter().map(|s| self.daemon_cycles(*s)).sum()
    }

    /// The `CPU_CLK_UNHALTED` counter.
    pub fn unhalted(&self) -> u64 {
        self.counter(UNHALTED)
    }

    /// Unattributed CPU cycles: `unhalted − Σ cycles.cpu.*`. Exactly 0 for
    /// any machine driven by the simulator scheduler; machines driven by
    /// custom harnesses (the virtualization host) never record unhalted
    /// cycles and report a negative residue, which checks skip.
    pub fn residue(&self) -> i128 {
        self.unhalted() as i128 - self.cpu_total() as i128
    }
}

/// The per-scope registry: one [`MachineMetrics`] per machine, keyed by the
/// per-scope machine id (creation order).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    machines: BTreeMap<u32, MachineMetrics>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics of machine `id`, if it attached.
    pub fn machine(&self, id: u32) -> Option<&MachineMetrics> {
        self.machines.get(&id)
    }

    /// Mutable metrics of machine `id`, creating the slot if that machine
    /// never attached. The scenario engine posts engine-level counters
    /// (e.g. `trace.dropped_events` when a journal ring overflowed) here
    /// after a run, outside any instrumented scope.
    pub fn machine_entry(&mut self, id: u32) -> &mut MachineMetrics {
        self.machines.entry(id).or_default()
    }

    /// All machines in id (creation) order.
    pub fn machines(&self) -> impl Iterator<Item = (u32, &MachineMetrics)> + '_ {
        self.machines.iter().map(|(k, v)| (*k, v))
    }

    /// Number of machines that attached to the scope.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when no machine attached.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

/// A [`LogHistogram`] in atomic cells. `count` is not stored: it is the
/// sum of the bucket counts, so an observation costs one fewer add.
#[derive(Debug)]
struct HistCell {
    counts: [AtomicU64; 65],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCell {
    fn add_sum(&self, v: u64) {
        // Saturating, like `LogHistogram`: an add that wraps pins the sum.
        if self.sum.fetch_add(v, Relaxed).checked_add(v).is_none() {
            self.sum.store(u64::MAX, Relaxed);
        }
    }

    fn bound(&self, min: u64, max: u64) {
        // Loads first: the extremes rarely move, and a plain load is far
        // cheaper than the compare-exchange loop behind `fetch_min`.
        if min < self.min.load(Relaxed) {
            self.min.fetch_min(min, Relaxed);
        }
        if max > self.max.load(Relaxed) {
            self.max.fetch_max(max, Relaxed);
        }
    }

    fn observe(&self, v: u64) {
        self.counts[LogHistogram::bucket(v)].fetch_add(1, Relaxed);
        self.add_sum(v);
        self.bound(v, v);
    }

    fn merge(&self, h: &LogHistogram) {
        for (cell, &c) in self.counts.iter().zip(h.counts.iter()) {
            if c > 0 {
                cell.fetch_add(c, Relaxed);
            }
        }
        self.add_sum(h.sum);
        self.bound(h.min, h.max);
    }

    /// The histogram these cells hold, or `None` before any observation.
    fn load(&self) -> Option<LogHistogram> {
        let mut h = LogHistogram::new();
        for (c, cell) in h.counts.iter_mut().zip(self.counts.iter()) {
            *c = cell.load(Relaxed);
        }
        h.count = h.counts.iter().sum();
        if h.count == 0 {
            return None;
        }
        h.sum = self.sum.load(Relaxed);
        h.min = self.min.load(Relaxed);
        h.max = self.max.load(Relaxed);
        Some(h)
    }
}

/// Named cells of one machine, registered on first use.
#[derive(Debug, Default)]
struct Named {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    hists: BTreeMap<&'static str, Arc<HistCell>>,
    gauges: BTreeMap<&'static str, f64>,
}

/// One machine's live metric storage, shared by every clone of its sink.
#[derive(Debug, Default)]
struct Cells {
    cpu: [AtomicU64; 8],
    daemon: [AtomicU64; 8],
    unhalted: AtomicU64,
    named: Mutex<Named>,
}

impl Cells {
    fn named(&self) -> MutexGuard<'_, Named> {
        // Every update leaves the maps consistent, so a panic elsewhere
        // while the lock was held cannot corrupt them.
        self.named.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds the cells into the map a one-call-at-a-time registry would
    /// hold: counters present iff nonzero, histograms iff observed. Ledger
    /// slots take their `cycles.*` names here and nowhere else; a by-name
    /// charge to the same name merges into the same entry.
    fn fold(&self) -> MachineMetrics {
        let mut m = MachineMetrics::default();
        let mut add = |name: &'static str, v: u64| {
            if v != 0 {
                m.add(name, v);
            }
        };
        for s in Subsystem::ALL {
            add(s.cpu_key(), self.cpu[s as usize].load(Relaxed));
            add(s.daemon_key(), self.daemon[s as usize].load(Relaxed));
        }
        add(UNHALTED, self.unhalted.load(Relaxed));
        let named = self.named();
        for (&name, c) in &named.counters {
            add(name, c.load(Relaxed));
        }
        m.gauges = named.gauges.clone();
        m.hists = named.hists.iter().filter_map(|(&k, h)| Some((k, h.load()?))).collect();
        m
    }
}

/// Pre-resolved handle to one named counter of one machine
/// ([`MetricsSink::counter`]). An add is one relaxed atomic add; the
/// handle of a disabled sink is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `v`. No-op when disabled or `v == 0`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.0 {
            if v != 0 {
                c.fetch_add(v, Relaxed);
            }
        }
    }
}

/// Pre-resolved handle to one named histogram of one machine
/// ([`MetricsSink::histogram`]). The handle of a disabled sink is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// Records one observation. No-op when disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Merges a locally-accumulated batch of observations. Equivalent to
    /// observing every value in `h` individually — the bucket counts,
    /// count, sum, min and max are all additive — so hot paths can batch
    /// observations and publish them once. No-op when disabled or `h` is
    /// empty.
    #[inline]
    pub fn merge(&self, h: &LogHistogram) {
        if let Some(cell) = &self.0 {
            if h.count() > 0 {
                cell.merge(h);
            }
        }
    }
}

/// Cheap cloneable charge handle. Disabled sinks (the default) are a
/// no-op: every method early-returns on one branch, so instrumented code
/// runs identically whether or not a registry scope is active.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    cells: Option<Arc<Cells>>,
    machine: u32,
}

impl MetricsSink {
    /// A permanently-disabled sink.
    pub fn disabled() -> Self {
        MetricsSink::default()
    }

    /// Attach to the current thread's registry scope, if one is active,
    /// claiming the next machine id in that scope. Returns a disabled
    /// sink otherwise.
    pub fn attach_current() -> Self {
        match scope::attach() {
            Some((machine, cells)) => MetricsSink { cells: Some(cells), machine },
            None => MetricsSink::disabled(),
        }
    }

    /// True when charges reach a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// This sink's per-scope machine id (0 when disabled). Matches the
    /// trace layer's machine ids when both scopes wrap the same run.
    pub fn machine_id(&self) -> u32 {
        self.machine
    }

    /// The handle of counter `name`, registering it on first use (it
    /// stays out of every read until something nonzero is added).
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.cells.as_ref().map(|c| Arc::clone(c.named().counters.entry(name).or_default())))
    }

    /// The handle of histogram `name`, registering it on first use (it
    /// stays out of every read until its first observation).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.cells.as_ref().map(|c| Arc::clone(c.named().hists.entry(name).or_default())))
    }

    /// Adds `v` to counter `name`. No-op when disabled or `v == 0`.
    /// Hot paths hold a [`Counter`] instead.
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(c) = &self.cells {
            if v != 0 {
                c.named().counters.entry(name).or_default().fetch_add(v, Relaxed);
            }
        }
    }

    /// Sets gauge `name`. No-op when disabled.
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(c) = &self.cells {
            c.named().gauges.insert(name, v);
        }
    }

    /// Charges `c` cycles to the CPU ledger under `sub`. No-op when
    /// disabled or `c` is zero.
    #[inline]
    pub fn charge_cpu(&self, sub: Subsystem, c: Cycles) {
        if let Some(cells) = &self.cells {
            if c.get() != 0 {
                cells.cpu[sub as usize].fetch_add(c.get(), Relaxed);
            }
        }
    }

    /// Charges `c` cycles to the daemon ledger under `sub`. No-op when
    /// disabled or `c` is zero.
    #[inline]
    pub fn charge_daemon(&self, sub: Subsystem, c: Cycles) {
        if let Some(cells) = &self.cells {
            if c.get() != 0 {
                cells.daemon[sub as usize].fetch_add(c.get(), Relaxed);
            }
        }
    }

    /// Adds `c` executed cycles to the [`UNHALTED`] counter. No-op when
    /// disabled or `c` is zero.
    #[inline]
    pub fn charge_unhalted(&self, c: Cycles) {
        if let Some(cells) = &self.cells {
            if c.get() != 0 {
                cells.unhalted.fetch_add(c.get(), Relaxed);
            }
        }
    }

    /// A copy of this machine's metrics (None when disabled) — the
    /// `CycleSample` trace event reads its payload from here.
    pub fn snapshot(&self) -> Option<MachineMetrics> {
        self.cells.as_ref().map(|c| c.fold())
    }
}

/// Per-thread registry scopes, mirroring `hawkeye_trace::scope`. A scope
/// holds the cells of every machine whose sink attached on this thread
/// between `begin` and `end`.
pub mod scope {
    use super::{Arc, Cells, RefCell, Registry};

    thread_local! {
        static CURRENT: RefCell<Option<Vec<Arc<Cells>>>> = const { RefCell::new(None) };
    }

    /// Open a registry scope on this thread. Replaces any previous scope
    /// (its registry is discarded).
    pub fn begin() {
        CURRENT.with(|c| *c.borrow_mut() = Some(Vec::new()));
    }

    /// Close this thread's scope, returning its registry folded from
    /// every attached machine's cells. Sinks and handles still holding
    /// those cells keep writing into them, harmlessly: nothing reads
    /// them again.
    pub fn end() -> Option<Registry> {
        let machines = CURRENT.with(|c| c.borrow_mut().take())?;
        let machines = (0u32..).zip(machines.iter().map(|c| c.fold())).collect();
        Some(Registry { machines })
    }

    /// Close this thread's scope without reading it. Sinks already
    /// attached keep their machine's cells and stay readable through
    /// [`super::MetricsSink::snapshot`]; long-lived owners (the fleet
    /// orchestrator) use this so a machine's metrics outlive the
    /// `begin` bracket of the thread that created it.
    pub fn clear() {
        CURRENT.with(|c| c.borrow_mut().take());
    }

    /// True when a scope is open on this thread.
    pub fn active() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// Registers a new machine in this thread's scope, returning its id
    /// and cells (None when no scope is open).
    pub(super) fn attach() -> Option<(u32, Arc<Cells>)> {
        CURRENT.with(|c| {
            let mut c = c.borrow_mut();
            let machines = c.as_mut()?;
            let cells = Arc::new(Cells::default());
            machines.push(Arc::clone(&cells));
            Some((machines.len() as u32 - 1, cells))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_keys_are_stable() {
        assert_eq!(Subsystem::Walk.cpu_key(), "cycles.cpu.walk");
        assert_eq!(Subsystem::Idle.daemon_key(), "cycles.daemon.idle");
        assert_eq!(Subsystem::ALL.len(), 8);
        for s in Subsystem::ALL {
            assert!(s.cpu_key().ends_with(s.name()));
            assert!(s.daemon_key().ends_with(s.name()));
        }
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.0), 0, "p0 resolves to the zero bucket");
        assert!(h.percentile(50.0) >= 3 && h.percentile(50.0) <= 4);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn histogram_empty_reads_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn histogram_percentile_is_deterministic_and_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.percentile(50.0);
        // Bucketed: within a factor of 2 of the true median, clamped to
        // the observed range.
        assert!((500..=1000).contains(&p50), "p50 {p50}");
        assert_eq!(p50, h.percentile(50.0));
        assert!(h.percentile(99.0) >= p50);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.observe(10);
        b.observe(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.sum(), 1010);
    }

    #[test]
    fn disabled_sink_is_noop() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        sink.add("x", 5);
        sink.set_gauge("g", 1.0);
        sink.histogram("h").observe(7);
        sink.charge_cpu(Subsystem::Walk, Cycles::new(100));
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn attach_outside_scope_is_disabled() {
        assert!(!scope::active());
        let sink = MetricsSink::attach_current();
        assert!(!sink.is_enabled());
        assert!(scope::end().is_none());
    }

    #[test]
    fn scope_roundtrip_collects_charges() {
        scope::begin();
        assert!(scope::active());
        let a = MetricsSink::attach_current();
        let b = MetricsSink::attach_current();
        assert_eq!(a.machine_id(), 0);
        assert_eq!(b.machine_id(), 1);
        a.charge_cpu(Subsystem::Walk, Cycles::new(300));
        a.charge_cpu(Subsystem::Idle, Cycles::new(700));
        a.charge_unhalted(Cycles::new(1000));
        a.histogram("fault_cycles").observe(42);
        b.charge_daemon(Subsystem::Zero, Cycles::new(55));
        b.set_gauge("mem.utilization", 0.5);
        let reg = scope::end().expect("registry");
        assert!(!scope::active());
        assert_eq!(reg.len(), 2);
        let ma = reg.machine(0).expect("machine 0");
        assert_eq!(ma.cpu_total(), 1000);
        assert_eq!(ma.unhalted(), 1000);
        assert_eq!(ma.residue(), 0);
        assert_eq!(ma.hist("fault_cycles").expect("hist").count(), 1);
        let mb = reg.machine(1).expect("machine 1");
        assert_eq!(mb.daemon_total(), 55);
        assert_eq!(mb.daemon_cycles(Subsystem::Zero), 55);
        assert_eq!(mb.gauge("mem.utilization"), Some(0.5));
        // Stale sinks keep working after the scope closed.
        a.add(UNHALTED, 1);
        assert!(scope::end().is_none());
    }

    #[test]
    fn zero_charges_do_not_create_keys() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        sink.charge_cpu(Subsystem::Walk, Cycles::ZERO);
        sink.charge_daemon(Subsystem::Zero, Cycles::ZERO);
        sink.charge_unhalted(Cycles::ZERO);
        sink.add("nothing", 0);
        sink.counter("handle.zero").add(0);
        let _unused = sink.counter("handle.unused");
        let _unobserved = sink.histogram("hist.unobserved");
        sink.histogram("hist.empty_merge").merge(&LogHistogram::new());
        assert_eq!(sink.snapshot().expect("enabled").counters().count(), 0);
        let reg = scope::end().expect("registry");
        let m = reg.machine(0).expect("attached");
        assert_eq!(m.counters().count(), 0, "zero charges must leave no trace");
        assert_eq!(m.hists().count(), 0, "unobserved histograms must leave no trace");
        assert_eq!(m.gauges().count(), 0);
    }

    #[test]
    fn handle_and_by_name_charges_merge_into_one_entry() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        sink.counter("mem.zeroed_alloc_hits").add(3);
        sink.add("mem.zeroed_alloc_hits", 4);
        sink.histogram("fault_cycles").observe(10);
        sink.histogram("fault_cycles").observe(1000);
        let mut batch = LogHistogram::new();
        batch.observe(0);
        sink.histogram("fault_cycles").merge(&batch);
        // A ledger slot and a by-name charge to its key fold together.
        sink.charge_cpu(Subsystem::Fault, Cycles::new(5));
        sink.add(Subsystem::Fault.cpu_key(), 6);
        sink.charge_unhalted(Cycles::new(7));
        sink.add(UNHALTED, 4);
        let reg = scope::end().expect("registry");
        let m = reg.machine(0).expect("attached");
        assert_eq!(m.counter("mem.zeroed_alloc_hits"), 7);
        assert_eq!(m.counters().filter(|(k, _)| *k == "mem.zeroed_alloc_hits").count(), 1);
        let h = m.hist("fault_cycles").expect("observed");
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (3, 1010, 0, 1000));
        let mut expect = LogHistogram::new();
        for v in [10, 1000, 0] {
            expect.observe(v);
        }
        assert_eq!(*h, expect, "cells fold to the histogram direct observation builds");
        assert_eq!(m.cpu_cycles(Subsystem::Fault), 11);
        assert_eq!(m.unhalted(), 11);
        assert_eq!(m.residue(), 0);
    }

    #[test]
    fn handles_from_clones_of_one_sink_add_up() {
        scope::begin();
        let a = MetricsSink::attach_current();
        let b = a.clone();
        let other = MetricsSink::attach_current();
        a.counter("c").add(2);
        b.counter("c").add(5);
        a.histogram("h").observe(8);
        b.histogram("h").observe(2);
        a.charge_daemon(Subsystem::Scan, Cycles::new(1));
        b.charge_daemon(Subsystem::Scan, Cycles::new(2));
        other.counter("c").add(100);
        let reg = scope::end().expect("registry");
        let m = reg.machine(0).expect("machine 0");
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.hist("h").map(|h| (h.count(), h.sum())), Some((2, 10)));
        assert_eq!(m.daemon_cycles(Subsystem::Scan), 3);
        assert_eq!(reg.machine(1).expect("machine 1").counter("c"), 100);
    }

    #[test]
    fn snapshot_mid_scope_includes_handle_charges() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        let hits = sink.counter("mem.zeroed_alloc_hits");
        let faults = sink.histogram("fault_cycles");
        hits.add(9);
        faults.observe(40);
        sink.charge_cpu(Subsystem::Zero, Cycles::new(30));
        sink.charge_unhalted(Cycles::new(30));
        sink.set_gauge("mem.utilization", 0.25);
        let snap = sink.snapshot().expect("enabled");
        assert_eq!(snap.counter("mem.zeroed_alloc_hits"), 9);
        assert_eq!(snap.hist("fault_cycles").map(LogHistogram::count), Some(1));
        assert_eq!(snap.cpu_cycles(Subsystem::Zero), 30);
        assert_eq!(snap.residue(), 0);
        assert_eq!(snap.gauge("mem.utilization"), Some(0.25));
        // Charges after the snapshot reach the closed scope, not the copy.
        hits.add(1);
        let reg = scope::end().expect("registry");
        assert_eq!(reg.machine(0).expect("attached").counter("mem.zeroed_alloc_hits"), 10);
        assert_eq!(snap.counter("mem.zeroed_alloc_hits"), 9);
    }

    #[test]
    fn stale_handles_after_scope_end_do_no_harm() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        let c = sink.counter("c");
        let h = sink.histogram("h");
        c.add(1);
        let reg = scope::end().expect("registry");
        c.add(1);
        h.observe(3);
        sink.charge_cpu(Subsystem::Walk, Cycles::new(4));
        assert_eq!(reg.machine(0).expect("attached").counter("c"), 1);
        assert!(reg.machine(0).expect("attached").hist("h").is_none());
        // A fresh scope starts from nothing: stale cells never leak in.
        scope::begin();
        let fresh = MetricsSink::attach_current();
        assert_eq!(fresh.machine_id(), 0);
        let reg = scope::end().expect("registry");
        assert_eq!(reg.machine(0).expect("attached").counters().count(), 0);
        // Disabled handles are no-ops too.
        Counter::default().add(5);
        Histogram::default().observe(5);
        assert!(MetricsSink::disabled().counter("c").0.is_none());
    }

    #[test]
    fn cleared_scope_keeps_attached_sinks_readable() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        scope::clear();
        assert!(!scope::active());
        assert!(scope::end().is_none(), "clear closes the scope");
        sink.counter("steer.decisions").add(2);
        let snap = sink.snapshot().expect("cells outlive the scope");
        assert_eq!(snap.counter("steer.decisions"), 2);
    }
}
