//! Fig. 10: worst-case interference of the async pre-zeroing thread, with
//! and without non-temporal (caching-bypass) stores.
//!
//! The paper co-runs workloads with a thread zeroing 0.25M pages/s
//! (1 GB/s) on a sibling core and measures e.g. omnetpp slowing 27 % with
//! caching stores but only 6 % with non-temporal hints; the production
//! daemon is rate-limited ~25× lower, shrinking both numbers further.

use crate::{run_scenarios, Json, Report, Row, RunCfg, Scenario};
use hawkeye_tlb::{InterferenceModel, StoreMode};

/// Builds the `fig10` report: worst-case interference of the async pre-zeroing thread.
pub fn report(run: RunCfg) -> Report {
    // (workload, LLC sensitivity, bandwidth sensitivity) — profiles chosen
    // to match the paper's measured slowdowns at 1 GB/s.
    let profiles: Vec<(&'static str, f64, f64)> = vec![
        ("NPB (avg)", 0.05, 1.5),
        ("PARSEC (avg)", 0.04, 1.2),
        ("omnetpp", 0.21, 3.0),
        ("xalancbmk", 0.15, 2.5),
        ("mcf", 0.12, 2.8),
        ("cactusADM", 0.08, 2.0),
        ("Redis", 0.06, 1.0),
        ("XSBench", 0.05, 1.8),
    ];
    let scenarios: Vec<Scenario<Row>> = profiles
        .into_iter()
        .map(|(name, llc, bw)| {
            Scenario::new(name, move || {
                let m = InterferenceModel::haswell();
                let full_rate = 0.25e6 * 4096.0; // 1 GB/s, the paper's stress test
                let limited = 10_000.0 * 4096.0; // production rate limit (~41 MB/s)
                let temporal = m.slowdown(llc, bw, StoreMode::Temporal, full_rate) - 1.0;
                let nt = m.slowdown(llc, bw, StoreMode::NonTemporal, full_rate) - 1.0;
                let ntlim = m.slowdown(llc, bw, StoreMode::NonTemporal, limited) - 1.0;
                Row::new(vec![
                    name.to_string(),
                    format!("{:.1}%", temporal * 100.0),
                    format!("{:.1}%", nt * 100.0),
                    format!("{:.2}%", ntlim * 100.0),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(name)),
                    ("slowdown_temporal", Json::num(temporal)),
                    ("slowdown_non_temporal", Json::num(nt)),
                    ("slowdown_non_temporal_rate_limited", Json::num(ntlim)),
                ]))
            })
        })
        .collect();
    let mut report = Report::new(
        "fig10_prezero_interference",
        "Fig. 10: co-runner slowdown from async pre-zeroing at 1 GB/s",
        vec![
            "Workload",
            "caching stores",
            "non-temporal",
            "non-temporal @10k pages/s",
        ],
    );
    let rows = report.absorb(run_scenarios(scenarios, run.threads, run.trace));
    report.extend(rows);
    report.footer(
        "(paper, Fig. 10: omnetpp 27% with caching stores vs 6% non-temporal;\n rate-limited production daemon: proportionally smaller)",
    );
    report
}
