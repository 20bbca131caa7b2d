//! Host wall-clock sidecars for the bench artifact pipeline.
//!
//! Perf regressions are invisible in a deterministic simulator — every
//! simulated observable is byte-identical no matter how slow the host
//! path was. This module gives the suite a host-side record instead:
//! [`crate::TargetRun`] times its build (the `engine` phase) and its own
//! artifact writes (`summary_write`, `trace_write`), counts the scheduler
//! quanta its simulations ran, and [`write_in`] dumps that breakdown to
//! `<dir>/<target>.wallclock.json` next to the deterministic summary.
//!
//! Wall-clock never enters deterministic output: not the summary JSON,
//! not the trace journal, not stdout tables, not REPORT.md. The
//! `.wallclock.json` sidecar is the only file host time is written to,
//! so determinism gates (`cmp` on artifacts, the worker-count test) stay
//! byte-exact. `hawkeye-report` renders its suite wall-clock table from
//! the same in-memory values (see EXPERIMENTS.md "Suite wall-clock"),
//! never by reading sidecars back.
//!
//! The quanta counts come from the thread-scoped
//! [`hawkeye_kernel::sched_stats`] counters, so skip efficiency rides
//! along with the timing it explains.

use crate::json::{self, Json};

/// The `<target>.wallclock.json` document: phase breakdown and the
/// event-skip scheduler's quanta counts.
pub fn doc(
    target: &str,
    phases: &[(&'static str, f64)],
    quanta_total: u64,
    quanta_skipped: u64,
) -> Json {
    let total: f64 = phases.iter().map(|(_, s)| *s).sum();
    Json::obj(vec![
        ("target", Json::str(target)),
        (
            "phases",
            Json::Arr(
                phases
                    .iter()
                    .map(|(p, s)| {
                        Json::obj(vec![("phase", Json::str(*p)), ("secs", Json::num(*s))])
                    })
                    .collect(),
            ),
        ),
        ("total_secs", Json::num(total)),
        ("quanta_total", Json::int(quanta_total)),
        ("quanta_skipped", Json::int(quanta_skipped)),
    ])
}

/// Writes [`doc`] to `<dir>/<target>.wallclock.json`. Failures are
/// reported on stderr only — host timing must never fail a bench run.
pub fn write_in(
    dir: &std::path::Path,
    target: &str,
    phases: &[(&'static str, f64)],
    quanta_total: u64,
    quanta_skipped: u64,
) {
    let stem = format!("{target}.wallclock");
    let json = doc(target, phases, quanta_total, quanta_skipped);
    if let Err(e) = json::write_results_in(dir, &stem, &json) {
        eprintln!("[scenario-engine] could not write {stem}.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_carries_phases_totals_and_quanta() {
        let phases = vec![("engine", 12.5), ("summary_write", 0.75)];
        let text = doc("fig7", &phases, 1000, 400).to_string();
        assert!(text.contains("\"target\":\"fig7\""));
        assert!(text.contains("\"phase\":\"engine\""));
        assert!(text.contains("\"secs\":12.5"));
        assert!(text.contains("\"total_secs\":13.25"));
        assert!(text.contains("\"quanta_total\":1000"));
        assert!(text.contains("\"quanta_skipped\":400"));
    }
}
