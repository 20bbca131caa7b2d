//! Table 2: number of TLB-sensitive applications per benchmark suite.
//!
//! Each of the 79 census profiles runs once with base pages only and once
//! with Linux THP on pristine memory; an application is TLB-sensitive if
//! huge pages speed it up by more than 3 %. The paper counts 15/79.

use crate::{run_one, run_scenarios, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_workloads::census;
use std::collections::BTreeMap;

/// Per-application classification, one scenario each (two runs inside).
struct AppResult {
    suite: &'static str,
    name: &'static str,
    speedup: f64,
    sensitive: bool,
    expected: bool,
}

/// Builds the `table2` report: TLB-sensitive application counts per benchmark suite.
pub fn report(run: RunCfg) -> Report {
    let iters = 120;
    let scenarios: Vec<Scenario<AppResult>> = census()
        .into_iter()
        .map(|app| {
            Scenario::new(app.name, move || {
                let base = run_one(
                    PolicyKind::Linux4k,
                    512,
                    None,
                    120.0,
                    Box::new(app.workload(iters)),
                );
                let huge = run_one(
                    PolicyKind::Linux2m,
                    512,
                    None,
                    120.0,
                    Box::new(app.workload(iters)),
                );
                // Steady-state comparison: the paper's applications run for
                // minutes, so demand-paging warmup is negligible there;
                // exclude fault-handler time to match.
                let steady = |o: &crate::RunOutcome| (o.cpu_secs() - o.fault_secs()).max(1e-9);
                let speedup = steady(&base) / steady(&huge);
                AppResult {
                    suite: app.suite,
                    name: app.name,
                    speedup,
                    sensitive: speedup > 1.03,
                    expected: app.expected_sensitive,
                }
            })
        })
        .collect();
    let mut report = Report::new(
        "table2_tlb_sensitivity",
        "Table 2: TLB-sensitive applications per suite (>3% huge-page speedup)",
        vec!["Suite", "Total", "TLB-sensitive (measured)", "Paper"],
    );
    let results = report.absorb(run_scenarios(scenarios, run.threads, run.trace));

    let mut per_suite: BTreeMap<&str, (u32, u32, u32)> = BTreeMap::new(); // total, sensitive, expected
    let mut mismatches = Vec::new();
    for r in &results {
        let e = per_suite.entry(r.suite).or_default();
        e.0 += 1;
        e.1 += r.sensitive as u32;
        e.2 += r.expected as u32;
        if r.sensitive != r.expected {
            mismatches.push(format!("{} ({:.2}x)", r.name, r.speedup));
        }
    }
    let mut total = (0, 0, 0);
    for (suite, (n, s, e)) in &per_suite {
        report.add(
            Row::new(vec![
                suite.to_string(),
                n.to_string(),
                s.to_string(),
                e.to_string(),
            ])
            .with_json(Json::obj(vec![
                ("suite", Json::str(*suite)),
                ("total", Json::int(*n as u64)),
                ("sensitive", Json::int(*s as u64)),
                ("paper", Json::int(*e as u64)),
            ])),
        );
        total.0 += n;
        total.1 += s;
        total.2 += e;
    }
    report.add(
        Row::new(vec![
            "TOTAL".into(),
            total.0.to_string(),
            total.1.to_string(),
            total.2.to_string(),
        ])
        .with_json(Json::obj(vec![
            ("suite", Json::str("TOTAL")),
            ("total", Json::int(total.0 as u64)),
            ("sensitive", Json::int(total.1 as u64)),
            ("paper", Json::int(total.2 as u64)),
        ])),
    );
    if mismatches.is_empty() {
        report.footer("classification matches the paper for all 79 applications");
    } else {
        report.footer(format!(
            "classification differs from the paper for: {}",
            mismatches.join(", ")
        ));
    }
    report
}
