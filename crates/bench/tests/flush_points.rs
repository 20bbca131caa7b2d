//! The fault path batches its registry charges (CPU-ledger cycles,
//! `fault_cycles`, `mem.zeroed_alloc_*`) in plain fields and publishes
//! them at flush points: every round end, run-loop exit, metric sample,
//! and the quantum boundary of a driver that advances a machine outside
//! the simulator. These tests pin that every reader sits behind a flush:
//!
//! * the journal's `cycle_sample` snapshots, which must balance the CPU
//!   ledger against `CPU_CLK_UNHALTED` at every sample;
//! * the closed registry of a virtualized run, whose host machine faults
//!   under the virtualization layer's own lockstep driver.

use hawkeye_bench::{dirty_free_memory, PolicyKind};
use hawkeye_kernel::{workload::script, BasePagesOnly, KernelConfig, MemOp, Simulator};
use hawkeye_metrics::{registry, Cycles, Subsystem};
use hawkeye_trace::{scope, TraceEvent, DEFAULT_CAPACITY};
use hawkeye_virt::{VirtSystem, VmSpec};
use hawkeye_vm::{VmaKind, Vpn};
use hawkeye_workloads::AllocTouch;

/// Traced alloc-touch on a dirtied 128 MiB machine (the Table 1 fault
/// path): every `cycle_sample` must see the fault path's charges already
/// published, so Σ `cycles.cpu.*` equals `unhalted` at each sample.
#[test]
fn every_cycle_sample_balances_the_cpu_ledger() {
    for kind in [PolicyKind::Linux4k, PolicyKind::HawkEyeG] {
        registry::scope::begin();
        scope::begin(DEFAULT_CAPACITY);
        let mut cfg = kind.config(128);
        cfg.max_time = Cycles::from_secs(60.0);
        // A sample after every round.
        cfg.sample_period = cfg.quantum;
        let mut sim = Simulator::new(cfg, kind.build());
        dirty_free_memory(sim.machine_mut());
        sim.spawn(Box::new(AllocTouch::new(8192, 2, 1150)));
        sim.run();
        let journal = scope::end().expect("trace scope was open");
        let reg = registry::scope::end().expect("registry scope was open");
        let label = kind.label();
        assert_eq!(journal.dropped, 0, "{label}: the ring must hold every sample");

        let mut samples = 0;
        let mut last_fault = 0;
        for rec in &journal.records {
            if let TraceEvent::CycleSample {
                walk,
                fault,
                zero,
                copy,
                scan,
                compact,
                dedup,
                idle,
                unhalted,
                ..
            } = rec.event
            {
                let cpu = walk + fault + zero + copy + scan + compact + dedup + idle;
                assert_eq!(cpu, unhalted, "{label}: unbalanced cycle_sample at {}", rec.at);
                samples += 1;
                last_fault = fault;
            }
        }
        assert!(samples > 10, "{label}: only {samples} cycle samples");
        let m = reg.machine(0).expect("machine attached");
        assert_eq!(m.residue(), 0, "{label}");
        assert!(last_fault > 0, "{label}: fault charges reached the samples");
        assert!(last_fault <= m.cpu_cycles(Subsystem::Fault), "{label}");
    }
}

/// A VM on a dirtied host with a base-page host policy: every EPT fault
/// is a host `fault_map_base` with synchronous zeroing. The host machine
/// is advanced by the virtualization driver, not a `Simulator`, and its
/// batched charges must still reach the closed registry exactly: the
/// host's `fault` + `zero` ledger equals the cycles of its journaled
/// faults, and its zeroed-allocation misses count one page per fault.
#[test]
fn host_fault_charges_reach_the_closed_registry() {
    const PAGES: u64 = 2048;
    registry::scope::begin();
    scope::begin(DEFAULT_CAPACITY);
    let mut sys = VirtSystem::new(KernelConfig::small(), Box::new(BasePagesOnly));
    sys.with_host_mut(dirty_free_memory);
    let vm = sys.add_vm(VmSpec { frames: 8 * 1024 }, Box::new(BasePagesOnly));
    sys.spawn_in_vm(
        vm,
        script(
            "w",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: PAGES, kind: VmaKind::Anon },
                MemOp::TouchRange {
                    start: Vpn(0),
                    pages: PAGES,
                    write: true,
                    think: 50,
                    stride: 1,
                    repeats: 1,
                },
            ],
        ),
    );
    sys.run();
    let ept_faults = sys.virt_stats().ept_faults;
    // Read while the system is alive: dropping its machines would flush
    // them and hide a missing flush in the driver.
    let journal = scope::end().expect("trace scope was open");
    let reg = registry::scope::end().expect("registry scope was open");
    assert_eq!(journal.dropped, 0);

    // The host booted first: machine 0 in both scopes.
    let (faults, cycles) = journal
        .records
        .iter()
        .filter(|r| r.machine == 0)
        .filter_map(|r| match r.event {
            TraceEvent::Fault { cycles, .. } => Some(cycles),
            _ => None,
        })
        .fold((0u64, 0u64), |(n, sum), c| (n + 1, sum + c));
    assert!(ept_faults >= PAGES, "every guest page took an EPT fault ({ept_faults})");
    assert_eq!(faults, ept_faults);
    let host = reg.machine(0).expect("host attached");
    assert!(host.cpu_cycles(Subsystem::Zero) > 0, "dirtied host zeroes synchronously");
    assert_eq!(host.cpu_cycles(Subsystem::Fault) + host.cpu_cycles(Subsystem::Zero), cycles);
    assert_eq!(host.counter("mem.zeroed_alloc_misses"), ept_faults);
}
