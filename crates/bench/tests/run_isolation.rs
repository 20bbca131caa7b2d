//! Run isolation: a target's run owns its artifacts, so two traced
//! targets built at the same time on two threads produce exactly what
//! each produces alone — the same journals, the same registries, and the
//! same scheduler quanta (thread-scoped counters, credited back from the
//! pool workers to the submitting thread).
//!
//! Both targets run at the reduced scale of the workload-family
//! determinism gate, each on its own two-worker pool.

use hawkeye_bench::scenario::trace_doc_string;
use hawkeye_bench::suite::{hpc_stencil, oltp_btree};
use hawkeye_bench::{cycles_json, RunCfg, TargetRun};

const RUN: RunCfg = RunCfg {
    threads: 2,
    trace: true,
};

/// Everything a run owns, reduced to comparable values: the trace
/// document, the registry names, the `cycles` section, and the quanta.
type Owned = (String, Vec<String>, String, (u64, u64));

fn owned(target: &str, run: &TargetRun) -> Owned {
    let r = &run.report;
    (
        trace_doc_string(target, &r.journals),
        r.registries.iter().map(|(name, _)| name.clone()).collect(),
        cycles_json(&r.registries).to_string(),
        (run.quanta_total, run.quanta_skipped),
    )
}

fn oltp() -> Owned {
    owned(
        "oltp_btree",
        &TargetRun::measure(|| oltp_btree::report_with(8, 20_000, RUN)),
    )
}

fn hpc() -> Owned {
    owned(
        "hpc_stencil",
        &TargetRun::measure(|| hpc_stencil::report_with(4, 8, RUN)),
    )
}

#[test]
fn concurrent_traced_runs_own_exactly_their_artifacts() {
    let alone = (oltp(), hpc());
    let together = std::thread::scope(|s| {
        let a = s.spawn(oltp);
        let b = s.spawn(hpc);
        (a.join().expect("oltp run"), b.join().expect("hpc run"))
    });
    // One scenario per policy: nine for the B-tree, four for the stencil.
    for (name, policies, solo, shared) in [
        ("oltp_btree", 9, &alone.0, &together.0),
        ("hpc_stencil", 4, &alone.1, &together.1),
    ] {
        assert_eq!(
            solo.0, shared.0,
            "{name}: journals differ when run beside another target"
        );
        assert_eq!(solo.1, shared.1, "{name}: registry names differ");
        assert_eq!(solo.2, shared.2, "{name}: cycles section differs");
        assert_eq!(solo.3, shared.3, "{name}: quanta differ");
        assert_eq!(solo.1.len(), policies, "{name}: one registry per policy");
        assert!(
            solo.0.contains(r#""kind":"fault""#),
            "{name}: journals hold faults"
        );
        assert!(solo.3 .0 > 0, "{name}: the run counted quanta");
    }
}
