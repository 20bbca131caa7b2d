//! Bloat recovery (§3.2).
//!
//! When allocated memory crosses the **high** watermark (85 %), a
//! rate-limited daemon activates and runs until allocation falls below the
//! **low** watermark (70 %). Each step it scans huge pages of the process
//! with the *lowest* estimated MMU overhead — the process that needs huge
//! pages least — looking for zero-filled base pages; huge pages with at
//! least `min_zero` zero-filled constituents are demoted and their zero
//! pages de-duplicated against the canonical zero page (returning
//! pre-zeroed frames to the allocator).
//!
//! Because a per-page scan stops at the first non-zero byte (≈ 10 bytes
//! for in-use pages, Fig. 3), the daemon's cost scales with the amount of
//! *bloat*, not with total RSS.

use hawkeye_kernel::{DedupOutcome, Machine};
use hawkeye_metrics::Cycles;
use hawkeye_policies::TokenBucket;
use hawkeye_vm::Hvpn;
use std::collections::BTreeMap;

/// The bloat-recovery daemon.
///
/// # Examples
///
/// ```
/// use hawkeye_core::BloatRecovery;
///
/// let b = BloatRecovery::new(0.85, 0.70, 100.0, 64);
/// assert!(!b.is_active());
/// ```
#[derive(Debug)]
pub struct BloatRecovery {
    high: f64,
    low: f64,
    min_zero: u32,
    budget: TokenBucket,
    active: bool,
    /// Per-process scan cursors over huge-mapped regions.
    cursors: BTreeMap<u32, u64>,
    recovered_pages: u64,
}

impl BloatRecovery {
    /// Creates the daemon with the given watermarks, scan rate (huge
    /// pages per simulated second) and de-dup threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high <= 1`.
    pub fn new(high: f64, low: f64, scans_per_sec: f64, min_zero: u32) -> Self {
        assert!(0.0 < low && low < high && high <= 1.0, "bad watermarks");
        BloatRecovery {
            high,
            low,
            min_zero,
            budget: TokenBucket::new(scans_per_sec),
            active: false,
            cursors: BTreeMap::new(),
            recovered_pages: 0,
        }
    }

    /// Whether the daemon is currently between the watermarks and working.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Zero pages de-duplicated so far.
    pub fn recovered_pages(&self) -> u64 {
        self.recovered_pages
    }

    /// Runs one tick at time `now`; `overhead_of(pid)` ranks processes
    /// (lowest scanned first). Returns zero pages recovered this tick.
    pub fn tick(
        &mut self,
        m: &mut Machine,
        now: Cycles,
        overhead_of: impl FnMut(u32) -> f64,
    ) -> u64 {
        self.tick_pressed(m, now, 0.0, overhead_of)
    }

    /// [`BloatRecovery::tick`] under external demotion pressure
    /// `0.0 ..= 1.0` (the fleet hook API's knob): pressure scales both
    /// watermarks down by `1 - pressure`, so `0.0` is the paper's
    /// behaviour and `1.0` keeps the daemon scanning regardless of
    /// utilization. Returns zero pages recovered this tick.
    pub fn tick_pressed(
        &mut self,
        m: &mut Machine,
        now: Cycles,
        pressure: f64,
        mut overhead_of: impl FnMut(u32) -> f64,
    ) -> u64 {
        let scale = 1.0 - pressure.clamp(0.0, 1.0);
        let (high, low) = (self.high * scale, self.low * scale);
        let util = m.utilization();
        if !self.active && util >= high {
            self.active = true;
        }
        if self.active && util <= low {
            self.active = false;
            self.cursors.clear();
        }
        if !self.active {
            self.budget.refill(now); // keep the bucket current but idle
            return 0;
        }
        self.budget.refill(now);
        let mut recovered = 0;
        // Processes are scanned lowest-estimated-overhead *first* (§3.2),
        // but each gets at most one full pass per tick so a huge-page-rich
        // idle process cannot starve the scan of the actually-bloated one.
        let mut pids: Vec<u32> = m
            .running_pids()
            .into_iter()
            .filter(|pid| m.process(*pid).map(|p| p.space().huge_pages() > 0).unwrap_or(false))
            .collect();
        pids.sort_by(|a, b| {
            overhead_of(*a).partial_cmp(&overhead_of(*b)).expect("finite overheads")
        });
        'outer: for pid in pids {
            let pass = m.process(pid).map(|p| p.space().huge_pages()).unwrap_or(0);
            for _ in 0..pass {
                if m.utilization() <= low {
                    self.active = false;
                    self.cursors.clear();
                    break 'outer;
                }
                if !self.budget.take(1.0) {
                    break 'outer;
                }
                let Some(hvpn) = self.next_huge_region(m, pid) else { break };
                if let Some(DedupOutcome::Deduped { zero_pages, .. }) =
                    m.dedup_zero_pages(pid, hvpn, self.min_zero)
                {
                    recovered += zero_pages as u64;
                }
            }
        }
        self.recovered_pages += recovered;
        m.metrics().add("scan.bloat_recovered_pages", recovered);
        recovered
    }

    /// Next huge-mapped region of `pid` at or after its cursor, wrapping
    /// once.
    fn next_huge_region(&mut self, m: &Machine, pid: u32) -> Option<Hvpn> {
        let p = m.process(pid)?;
        let cursor = self.cursors.get(&pid).copied().unwrap_or(0);
        let pt = p.space().page_table();
        // `huge_mappings` walks in VA order, so the first hit at or after
        // the cursor is the next region, and the first overall the wrap.
        let found = pt
            .huge_mappings()
            .map(|(h, _)| h)
            .find(|h| h.0 >= cursor)
            .or_else(|| pt.huge_mappings().next().map(|(h, _)| h));
        if let Some(h) = found {
            self.cursors.insert(pid, h.0 + 1);
        }
        found
    }

    /// Forgets an exited process's cursor.
    pub fn forget(&mut self, pid: u32) {
        self.cursors.remove(&pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_kernel::{workload::script, KernelConfig};
    use hawkeye_mem::{PageContent, Pfn};
    use hawkeye_vm::{VmaKind, Vpn};

    /// A machine at ~94% utilization where one process holds bloated huge
    /// pages (only the first `used` pages of each region are non-zero).
    fn bloated_machine(used: u64) -> (Machine, u32) {
        let mut cfg = KernelConfig::small();
        cfg.frames = 16 * 1024; // 64 MiB
        let mut m = Machine::new(cfg);
        let pid = m.spawn(script("w", vec![]));
        m.process_mut(pid).unwrap().space_mut().mmap(Vpn(0), 30 * 512, VmaKind::Anon).unwrap();
        for r in 0..30u64 {
            m.fault_map_huge(pid, Vpn(r * 512)).unwrap();
            let pfn = m.process(pid).unwrap().space().translate(Vpn(r * 512)).unwrap().pfn;
            for i in 0..used {
                m.pm_mut().frame_mut(Pfn(pfn.0 + i)).set_content(PageContent::non_zero(9));
            }
        }
        (m, pid)
    }

    #[test]
    fn inactive_below_high_watermark() {
        let (mut m, _) = bloated_machine(100);
        // Utilization ~94%... shrink by freeing nothing; instead use high
        // watermark above current utilization.
        let mut b = BloatRecovery::new(0.99, 0.70, 1000.0, 64);
        let r = b.tick(&mut m, Cycles::from_secs(1.0), |_| 0.0);
        assert_eq!(r, 0);
        assert!(!b.is_active());
    }

    #[test]
    fn recovers_bloat_until_low_watermark() {
        let (mut m, pid) = bloated_machine(64);
        let util0 = m.utilization();
        assert!(util0 > 0.85, "setup: pressure ({util0})");
        let mut b = BloatRecovery::new(0.85, 0.70, 1e6, 64);
        let mut total = 0;
        for s in 1..=20 {
            total += b.tick(&mut m, Cycles::from_secs(s as f64), |_| 0.0);
        }
        assert!(total > 0, "recovered nothing");
        assert!(m.utilization() <= 0.70 + 0.05, "util {}", m.utilization());
        assert!(!b.is_active(), "deactivates at the low watermark");
        // The process's touched data is intact: zero-cow + base mappings.
        let p = m.process(pid).unwrap();
        assert!(p.space().huge_pages() < 30);
        m.pm().check_invariants();
    }

    #[test]
    fn skips_well_utilized_huge_pages() {
        // Every page non-zero: nothing to recover, huge pages stay.
        let (mut m, pid) = bloated_machine(512);
        let mut b = BloatRecovery::new(0.85, 0.70, 1e6, 64);
        let mut total = 0;
        for s in 1..=5 {
            total += b.tick(&mut m, Cycles::from_secs(s as f64), |_| 0.0);
        }
        assert_eq!(total, 0);
        assert_eq!(m.process(pid).unwrap().space().huge_pages(), 30);
        assert!(b.is_active(), "still under pressure, still trying");
    }

    #[test]
    fn scans_lowest_overhead_process_first() {
        let (mut m, pid1) = bloated_machine(64);
        // Second process, also with a bloated huge page.
        let pid2 = m.spawn(script("w2", vec![]));
        m.process_mut(pid2)
            .unwrap()
            .space_mut()
            .mmap(Vpn(0), 512, VmaKind::Anon)
            .unwrap();
        m.fault_map_huge(pid2, Vpn(0)).unwrap();
        let mut b = BloatRecovery::new(0.85, 0.70, 1.0, 64);
        // Rate of 1 scan/sec: the single scan must hit pid2 (lower
        // overhead per our ranking closure).
        let overheads = move |pid: u32| if pid == pid1 { 0.9 } else { 0.1 };
        b.tick(&mut m, Cycles::from_secs(1.0), overheads);
        assert_eq!(m.process(pid2).unwrap().space().huge_pages(), 0, "pid2 scanned first");
        assert_eq!(m.process(pid1).unwrap().space().huge_pages(), 30);
    }

    #[test]
    #[should_panic(expected = "bad watermarks")]
    fn inverted_watermarks_rejected() {
        let _ = BloatRecovery::new(0.5, 0.9, 1.0, 1);
    }
}
