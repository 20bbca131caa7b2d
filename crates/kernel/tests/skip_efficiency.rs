//! CI skip-efficiency gate (see `scripts/ci.sh`).
//!
//! Runs a representative compute/stream workload with the event-skip
//! scheduler on and asserts a minimum fraction of scheduler quanta were
//! charged in closed form instead of executed. The assertion reads the
//! [`hawkeye_kernel::sched_stats`] counters — the simulator is
//! deterministic, so the ratio is an exact constant of the codebase and
//! the gate cannot flake the way a wall-clock threshold would.
//!
//! A regression that silently disables quantum jumping (a predicate
//! that always says "interesting", a cap computed as zero) fails this
//! gate even though every simulated observable — which skipping must
//! never change — still matches.

use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_kernel::workload::script;
use hawkeye_kernel::{sched_stats, KernelConfig, MemOp, Simulator};
use hawkeye_vm::{Vpn, VmaKind};

/// A compressed stand-in for the suite's fault-then-work shape: fault a
/// working set in, then alternate long pure-compute stretches with
/// think-free streaming passes — the two stretches the event-skip
/// scheduler can charge in closed form.
fn representative_ops() -> Vec<MemOp> {
    let pages: u64 = 32 * 512;
    let mut ops = vec![MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon }];
    for round in 0..6 {
        ops.push(MemOp::TouchRange {
            start: Vpn(0),
            pages,
            write: round % 2 == 0,
            think: 0,
            stride: 1,
            repeats: 2,
        });
        ops.push(MemOp::Compute { cycles: 120_000_000 });
    }
    ops
}

#[test]
fn skip_ratio_meets_threshold() {
    let (t0, s0) = sched_stats::snapshot();
    let cfg = KernelConfig::small();
    assert!(cfg.event_skip, "event-skip must be the default");
    let mut sim = Simulator::new(cfg, Box::new(HawkEye::new(HawkEyeConfig::default())));
    sim.spawn(script("rep", representative_ops()));
    sim.run();
    let (t1, s1) = sched_stats::snapshot();
    let (total, skipped) = (t1 - t0, s1 - s0);
    assert!(total > 100, "workload too small to be representative ({total} quanta)");
    let ratio = skipped as f64 / total as f64;
    // Deterministic floor with headroom below the measured ratio; a
    // drop this large means quantum jumping stopped engaging, not that
    // the workload drifted.
    let threshold = 0.5;
    assert!(
        ratio >= threshold,
        "event-skip efficiency regressed: {skipped}/{total} quanta skipped \
         ({:.1}% < {:.0}% floor)",
        ratio * 100.0,
        threshold * 100.0,
    );
}
