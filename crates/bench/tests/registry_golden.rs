//! Golden registry fixture: one small fixed scenario — a dirtied machine
//! under alloc-touch, once with a base-page policy and once with a
//! huge-page policy — rendered as text in name order and compared with a
//! committed fixture. Every counter, gauge and histogram summary the
//! registry produces is pinned byte for byte, so any change to how the
//! registry stores or folds its charges that alters one key or value
//! fails here.
//!
//! On a mismatch the rendered text is written to
//! `registry_golden.actual.txt` under cargo's `CARGO_TARGET_TMPDIR` for
//! diffing.

use std::fmt::Write as _;

use hawkeye_bench::{dirty_free_memory, PolicyKind};
use hawkeye_kernel::{workload::script, MemOp, Simulator};
use hawkeye_metrics::{registry, Cycles, MachineMetrics, Registry};
use hawkeye_workloads::AllocTouch;

const FIXTURE: &str = include_str!("fixtures/registry_golden.txt");

/// A 128 MiB machine with every free frame dirtied, then 4 × 32 MiB of
/// alloc-touch: the Table 1 fault path (synchronous zeroing for the
/// base policy, pre-zeroed huge faults for HawkEye). Returns the final
/// registry and the machine's mid-scope snapshot taken just before the
/// scope closes.
fn run(kind: PolicyKind) -> (Registry, Option<MachineMetrics>) {
    registry::scope::begin();
    let mut cfg = kind.config(128);
    cfg.max_time = Cycles::from_secs(60.0);
    let mut sim = Simulator::new(cfg, kind.build());
    dirty_free_memory(sim.machine_mut());
    if kind.wants_zero_pool() {
        sim.spawn(script("warmup", vec![MemOp::Compute { cycles: 300_000_000 }]));
        sim.run();
    }
    sim.spawn(Box::new(AllocTouch::new(8192, 4, 1150)));
    sim.run();
    let snapshot = sim.machine().metrics().snapshot();
    let reg = registry::scope::end().expect("registry scope was open");
    (reg, snapshot)
}

fn render_machine(out: &mut String, m: &MachineMetrics) {
    for (k, v) in m.counters() {
        let _ = writeln!(out, "  counter {k} = {v}");
    }
    for (k, v) in m.gauges() {
        let _ = writeln!(out, "  gauge {k} = {v}");
    }
    for (k, h) in m.hists() {
        let _ = writeln!(
            out,
            "  hist {k}: count={} sum={} min={} max={} p50={} p99={}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.percentile(50.0),
            h.percentile(99.0),
        );
    }
}

fn render() -> String {
    let mut out = String::new();
    for kind in [PolicyKind::Linux4k, PolicyKind::HawkEyeG] {
        let (reg, snapshot) = run(kind);
        let _ = writeln!(out, "[{}] machines={}", kind.label(), reg.len());
        for (id, m) in reg.machines() {
            let _ = writeln!(out, " machine {id}: unhalted={} residue={}", m.unhalted(), m.residue());
            render_machine(&mut out, m);
        }
        // The snapshot read before the scope closed must carry exactly
        // what the closed scope hands back: the `cycle_sample` events and
        // fleet observations read this path.
        let mut snap = String::new();
        render_machine(&mut snap, &snapshot.expect("sink attached to the scope"));
        let mut fin = String::new();
        render_machine(&mut fin, reg.machine(0).expect("machine 0 attached"));
        assert_eq!(snap, fin, "{}: snapshot differs from the closed scope's registry", kind.label());
    }
    out
}

#[test]
fn registry_output_matches_golden_fixture() {
    let actual = render();
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("registry_golden.actual.txt");
        let _ = std::fs::write(&path, &actual);
        panic!(
            "registry output differs from tests/fixtures/registry_golden.txt; actual text written to {}",
            path.display()
        );
    }
}
