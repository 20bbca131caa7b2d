//! The fleet extends the artifact determinism gate: a 256-host fleet's
//! JSON summary, trace journals, and FLEET.md are byte-identical at any
//! worker count and across repeated runs.
//!
//! Worker counts are pinned through `report_with`'s `threads` argument,
//! not `HAWKEYE_BENCH_THREADS`, so the test stays race-free under
//! parallel test execution. Each run's journals come back owned by its
//! `Report`, so the runs are independent; one `#[test]` keeps the three
//! 256-host runs sequential, bounding the test's memory and CPU.

use hawkeye_analyze::fleet::fleet_md;
use hawkeye_analyze::summary::parse_summary;
use hawkeye_bench::scenario::trace_doc_string;
use hawkeye_bench::suite::fleet_slo::report_with;
use hawkeye_fleet::FleetConfig;

/// One full 256-host fleet run at `threads` workers, reduced to the three
/// artifact byte-streams the determinism gate covers.
fn artifacts(threads: usize) -> (String, String, String) {
    let cfg = FleetConfig::sized(256);
    let report = report_with(&cfg, threads);
    let summary = report.json().to_string();
    assert!(!report.journals.is_empty(), "fleet must persist journaled hosts");
    let trace = trace_doc_string("fleet_slo", &report.journals);
    let doc = parse_summary(&summary).expect("fleet summary parses");
    let fleet = fleet_md(&doc).expect("fleet_slo renders FLEET.md");
    (summary, trace, fleet)
}

#[test]
fn fleet_artifacts_are_byte_identical_across_worker_counts_and_runs() {
    let (sum1, trace1, fleet1) = artifacts(1);
    let (sum8, trace8, fleet8) = artifacts(8);
    assert_eq!(sum1, sum8, "JSON summary must not depend on worker count");
    assert_eq!(trace1, trace8, "trace document must not depend on worker count");
    assert_eq!(fleet1, fleet8, "FLEET.md must not depend on worker count");

    // Same thread count, fresh run: the orchestrator owns all its RNG
    // state, so a repeat is bit-for-bit the same.
    let (sum8b, trace8b, fleet8b) = artifacts(8);
    assert_eq!(sum8, sum8b, "JSON summary must be stable across runs");
    assert_eq!(trace8, trace8b, "trace document must be stable across runs");
    assert_eq!(fleet8, fleet8b, "FLEET.md must be stable across runs");

    // Sanity: both cohorts are present and the steered cohort steered.
    for needle in ["HawkEye-G+throttle", "Linux-2MB+noop", "\"steer_decisions\""] {
        assert!(sum1.contains(needle), "missing {needle:?} in summary");
    }
    assert!(fleet1.contains("## Tenancy and steering"));
    assert!(trace1.contains("fleet_slo"), "trace doc carries the target name");
}
