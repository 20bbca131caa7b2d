//! One fleet host: a cheap fast-path [`Simulator`] plus its tenants and
//! the detached trace/registry handles the orchestrator reads at epoch
//! boundaries.

use crate::hook::HostObs;
use hawkeye_kernel::rng::SplitMix64;
use hawkeye_kernel::workload::script;
use hawkeye_kernel::{HugePagePolicy, KernelConfig, MemOp, Simulator, Workload};
use hawkeye_metrics::registry;
use hawkeye_trace::{scope, Journal, TraceBuffer};
use hawkeye_vm::{VmaKind, Vpn};
use std::sync::{Arc, Mutex};

/// A tenant's workload shape, generated deterministically from the fleet
/// rng stream. The same spec replays identically on any host, which is
/// what makes migration (kill on the source, respawn on the destination)
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Huge regions the tenant maps (2 MiB each).
    pub regions: u64,
    /// Trailing hot regions it keeps re-touching.
    pub hot: u64,
    /// Think cycles between touches.
    pub think: u32,
    /// Hot-loop repetitions.
    pub repeats: u32,
    /// Trailing pure-compute cycles (tenant lingers before exiting).
    pub compute: u64,
}

impl TenantSpec {
    /// Draws a tenant from the rng stream: 8–22 MiB footprint, a hot tail,
    /// and a lifetime of a few epochs.
    pub fn generate(rng: &mut SplitMix64) -> Self {
        let regions = 4 + rng.below(8); // 8–22 MiB
        TenantSpec {
            regions,
            hot: 1 + rng.below(regions.min(4)),
            think: 20 + rng.below(60) as u32,
            repeats: 1 + rng.below(3) as u32,
            compute: 20_000_000 + rng.below(60) * 1_000_000,
        }
    }

    /// The tenant's op script. Every tenant starts at `Vpn(0)` of its own
    /// address space; the hot tail sits in the *upper* regions so host
    /// ballooning (which releases the lower half) does not fight the hot
    /// loop.
    pub fn workload(&self, name: String) -> Box<dyn Workload> {
        let pages = self.regions * 512;
        let hot_start = (self.regions - self.hot) * 512;
        script(
            name,
            vec![
                MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon },
                MemOp::TouchRange {
                    start: Vpn(0),
                    pages,
                    write: true,
                    think: self.think,
                    stride: 1,
                    repeats: 1,
                },
                MemOp::TouchRange {
                    start: Vpn(hot_start),
                    pages: self.hot * 512,
                    write: false,
                    think: self.think,
                    stride: 1,
                    repeats: self.repeats,
                },
                MemOp::Compute { cycles: self.compute },
            ],
        )
    }
}

struct Tenant {
    pid: u32,
    spec: TenantSpec,
}

/// Per-host counters the SLO tables aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// Tenants admitted (initial + churn + migrations in).
    pub spawned: u64,
    /// Tenants that ran to completion (or died to the OOM killer).
    pub finished: u64,
    /// Storm balloons applied to this host.
    pub balloons: u64,
    /// Cascade balloons applied to this host.
    pub cascade_balloons: u64,
    /// Tenants migrated away from this host.
    pub migrations_out: u64,
    /// Tenants migrated onto this host.
    pub migrations_in: u64,
}

/// One host: simulator + tenants + detached observability handles.
pub struct Host {
    pub(crate) sim: Simulator,
    trace: Option<Arc<Mutex<TraceBuffer>>>,
    cursor: u64,
    tenants: Vec<Tenant>,
    next_tenant: u64,
    /// Counters the orchestrator folds into the cohort SLOs.
    pub counters: HostCounters,
}

impl Host {
    /// Boots a host. A trace scope and a registry scope are opened for
    /// the build and closed right after it (the trace buffer detached,
    /// the registry scope cleared), so the machine's sinks write into
    /// buffers this `Host` owns — journals and registries per host,
    /// independent of which worker thread later steps it.
    pub fn new(
        config: KernelConfig,
        policy: Box<dyn HugePagePolicy>,
        trace_capacity: usize,
    ) -> Host {
        scope::begin(trace_capacity);
        registry::scope::begin();
        let sim = Simulator::new(config, policy);
        let trace = scope::detach();
        // The registry cells stay alive through the machine's own sink;
        // clearing the thread-local only lets the next host (or a later
        // bench scenario on this thread) start clean.
        registry::scope::clear();
        Host {
            sim,
            trace,
            cursor: 0,
            tenants: Vec::new(),
            next_tenant: 0,
            counters: HostCounters::default(),
        }
    }

    /// Live tenant count.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Admits a tenant (initial placement, churn, or migration in).
    pub fn admit(&mut self, spec: TenantSpec) {
        let name = format!("t{}", self.next_tenant);
        self.next_tenant += 1;
        let pid = self.sim.spawn(spec.workload(name));
        self.tenants.push(Tenant { pid, spec });
        self.counters.spawned += 1;
    }

    /// Drops tenants whose process finished (natural exit or OOM kill).
    pub fn reap(&mut self) {
        let m = self.sim.machine();
        let mut finished = 0u64;
        self.tenants.retain(|t| {
            let done = m.process(t.pid).is_none_or(|p| p.is_finished());
            finished += done as u64;
            !done
        });
        self.counters.finished += finished;
    }

    /// Index of the largest live tenant (by footprint, lowest pid on
    /// ties), or `None` when the host is empty.
    fn largest(&self) -> Option<usize> {
        self.tenants
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| (t.spec.regions, std::cmp::Reverse(t.pid)))
            .map(|(i, _)| i)
    }

    /// Balloons out `frac` of the largest tenant's footprint (its cold
    /// lower regions). Returns false when there is nothing to balloon.
    pub fn balloon_largest(&mut self, frac: f64, cascade: bool) -> bool {
        let Some(i) = self.largest() else { return false };
        let t = &self.tenants[i];
        let regions = ((t.spec.regions as f64 * frac) as u64).max(1);
        let regions = regions.min(t.spec.regions.saturating_sub(t.spec.hot));
        if regions == 0 {
            return false;
        }
        self.sim.balloon(t.pid, Vpn(0), regions * 512);
        if cascade {
            self.counters.cascade_balloons += 1;
        } else {
            self.counters.balloons += 1;
        }
        true
    }

    /// Evicts the largest tenant for migration: kills it here, returns
    /// its spec so the orchestrator can respawn it on the destination
    /// host (cold restart — the re-faulting *is* the migration cost).
    pub fn evict_largest(&mut self) -> Option<TenantSpec> {
        let i = self.largest()?;
        let t = self.tenants.remove(i);
        self.sim.kill(t.pid);
        self.counters.migrations_out += 1;
        Some(t.spec)
    }

    /// Books a migrated-in tenant (admit + counter).
    pub fn admit_migrated(&mut self, spec: TenantSpec) {
        self.admit(spec);
        self.counters.migrations_in += 1;
    }

    /// Builds the epoch-boundary observation for hooks, advancing the
    /// host's trace cursor past everything returned.
    pub fn observe(&mut self, host: usize, epoch: u32) -> HostObs {
        let events = match &self.trace {
            Some(shared) => {
                let buf = match shared.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let events = buf.tail(self.cursor);
                self.cursor = buf.pushed();
                events
            }
            None => Vec::new(),
        };
        let m = self.sim.machine();
        HostObs {
            host,
            epoch,
            now: m.now(),
            utilization: m.utilization(),
            fmfi: m.fmfi(),
            tenants: self.tenants.len() as u32,
            stats: m.stats(),
            metrics: m.metrics().snapshot(),
            events,
        }
    }

    /// Current utilization (storm/migration decisions).
    pub fn utilization(&self) -> f64 {
        self.sim.machine().utilization()
    }

    /// Drains the host's journal (records in emission order). Hosts built
    /// with tracing always return `Some`, even if empty.
    pub fn drain_journal(&mut self) -> Option<Journal> {
        self.trace.as_ref().map(Journal::drain_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_kernel::BasePagesOnly;
    use hawkeye_metrics::Cycles;

    fn small_host(trace_capacity: usize) -> Host {
        let mut cfg = KernelConfig::small();
        cfg.frames = 16 * 1024; // 64 MiB
        Host::new(cfg, Box::new(BasePagesOnly), trace_capacity)
    }

    #[test]
    fn tenants_run_finish_and_reap() {
        let mut rng = SplitMix64::new(7);
        let mut host = small_host(1024);
        host.admit(TenantSpec::generate(&mut rng));
        host.admit(TenantSpec::generate(&mut rng));
        assert_eq!(host.tenants(), 2);
        host.sim.run_for(Cycles::from_secs(2.0));
        host.reap();
        assert_eq!(host.tenants(), 0, "tenants finish within the window");
        assert_eq!(host.counters.finished, 2);
        let journal = host.drain_journal().expect("traced host");
        assert!(!journal.records.is_empty(), "faults were journaled");
    }

    #[test]
    fn observe_advances_the_cursor() {
        let mut rng = SplitMix64::new(8);
        let mut host = small_host(4096);
        host.admit(TenantSpec::generate(&mut rng));
        host.sim.run_for(Cycles::from_millis(5));
        let first = host.observe(0, 0);
        assert!(!first.events.is_empty(), "events flowed");
        let again = host.observe(0, 0);
        assert!(again.events.is_empty(), "cursor caught up");
        assert!(first.metrics.is_some(), "registry attached");
    }

    #[test]
    fn eviction_frees_memory_and_spec_respawns() {
        let mut rng = SplitMix64::new(9);
        let mut host = small_host(16);
        let spec = TenantSpec::generate(&mut rng);
        host.admit(spec);
        host.sim.run_for(Cycles::from_millis(3));
        let util_before = host.utilization();
        assert!(util_before > 0.0);
        let evicted = host.evict_largest().expect("tenant present");
        assert_eq!(evicted, spec);
        assert!(host.utilization() < util_before, "kill freed the frames");
        let mut dest = small_host(16);
        dest.admit_migrated(evicted);
        assert_eq!(dest.counters.migrations_in, 1);
        assert_eq!(dest.tenants(), 1);
    }
}
