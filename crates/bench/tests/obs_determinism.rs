//! The telemetry pipeline extends the artifact determinism gate twice
//! over (DESIGN.md §16):
//!
//! 1. **Zero drift** — with telemetry off, every artifact is
//!    byte-identical to the pre-telemetry pipeline, and turning it on
//!    changes *nothing* about the simulation: summary, FLEET.md, and the
//!    per-host journals match the telemetry-off run bit for bit.
//! 2. **Determinism** — the obs document itself (series, alerts,
//!    anomalies) and the ALERTS.md rendered from it are byte-identical
//!    at 1 vs 8 workers and across repeated runs.
//!
//! Telemetry is pinned through `report_with_obs`'s explicit flag, not
//! `HAWKEYE_OBS`, so the test stays race-free under parallel test
//! execution. Each run's obs document and journals come back owned by
//! its `Report`; one `#[test]` keeps the runs sequential and lets the
//! zero-drift comparisons reuse the telemetry-off artifacts.

use hawkeye_analyze::fleet::fleet_md;
use hawkeye_analyze::obs::parse_obs;
use hawkeye_analyze::summary::parse_summary;
use hawkeye_bench::scenario::trace_doc_string;
use hawkeye_bench::suite::fleet_slo::report_with_obs;
use hawkeye_fleet::FleetConfig;
use hawkeye_obs::alerts_md;

/// One full 256-host fleet run at `threads` workers with telemetry
/// pinned to `observe`: `(summary, trace_doc, fleet_md, obs_doc)`.
/// `obs_doc` is empty when telemetry is off.
fn artifacts(threads: usize, observe: bool) -> (String, String, String, String) {
    let cfg = FleetConfig::sized(256);
    let report = report_with_obs(&cfg, threads, observe);
    let summary = report.json().to_string();
    assert!(!report.journals.is_empty(), "fleet must persist journaled hosts");
    let trace = trace_doc_string("fleet_slo", &report.journals);
    assert_eq!(report.obs_doc.is_some(), observe, "obs doc present iff observing");
    let doc = parse_summary(&summary).expect("fleet summary parses");
    let fleet = fleet_md(&doc).expect("fleet_slo renders FLEET.md");
    (summary, trace, fleet, report.obs_doc.unwrap_or_default())
}

#[test]
fn obs_artifacts_are_deterministic_and_observation_is_zero_drift() {
    // Telemetry off: the pre-PR determinism gate still holds.
    let (sum_off, trace_off, fleet_off, _) = artifacts(1, false);
    let (sum_off8, trace_off8, fleet_off8, _) = artifacts(8, false);
    assert_eq!(sum_off, sum_off8, "summary must not depend on worker count");
    assert_eq!(trace_off, trace_off8, "trace doc must not depend on worker count");
    assert_eq!(fleet_off, fleet_off8, "FLEET.md must not depend on worker count");

    // Telemetry on: zero drift. The simulation's own artifacts are
    // bit-identical to the telemetry-off run — collection is pure reads.
    // The trace doc gains exactly one synthetic `obs/slo` journal, so
    // compare it by prefix: the off-run host journals must reappear
    // unchanged at the front of the on-run document.
    let (sum_on, trace_on, fleet_on, obs1) = artifacts(1, true);
    assert_eq!(sum_off, sum_on, "observation must not drift the summary");
    assert_eq!(fleet_off, fleet_on, "observation must not drift FLEET.md");
    let host_part = trace_off.strip_suffix("]}").expect("trace doc shape");
    assert!(
        trace_on.starts_with(host_part),
        "host journals must be byte-identical with telemetry on"
    );
    assert!(!obs1.is_empty(), "telemetry run carries the obs document");

    // Telemetry on: the obs document is worker-count- and run-stable.
    let (_, trace_on8, _, obs8) = artifacts(8, true);
    let (_, _, _, obs8b) = artifacts(8, true);
    assert_eq!(obs1, obs8, "obs doc must not depend on worker count");
    assert_eq!(obs8, obs8b, "obs doc must be stable across runs");
    assert_eq!(trace_on, trace_on8, "obs-extended trace doc is deterministic too");

    // ALERTS.md re-rendered from the parsed artifact is deterministic
    // and structurally complete.
    let doc = parse_obs(&obs1).expect("obs doc parses back");
    assert_eq!(doc.target, "fleet_slo");
    assert_eq!(doc.cohorts.len(), 2, "both cohorts observed");
    for c in &doc.cohorts {
        assert!(!c.series.points.is_empty(), "per-epoch series populated");
    }
    let alerts1 = alerts_md(&doc);
    let alerts8 = alerts_md(&parse_obs(&obs8).expect("parses"));
    assert_eq!(alerts1, alerts8, "ALERTS.md must be byte-identical across worker counts");
    for needle in
        ["# Fleet SLO alerts", "HawkEye-G+throttle", "Linux-2MB+noop", "Per-epoch series"]
    {
        assert!(alerts1.contains(needle), "missing {needle:?} in ALERTS.md:\n{alerts1}");
    }
}
