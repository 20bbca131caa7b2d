//! Table 4: the MMU-overhead measurement methodology.
//!
//! `MMU overhead = (DTLB_LOAD_MISSES_WALK_DURATION +
//! DTLB_STORE_MISSES_WALK_DURATION) * 100 / CPU_CLK_UNHALTED`.
//!
//! This target runs one TLB-hostile and one TLB-friendly workload and
//! prints the raw counters alongside the derived overhead, verifying the
//! formula end to end.

use crate::{pct, run_one, run_scenarios, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_workloads::PatternScan;

/// Builds the `table4` report: the MMU-overhead measurement methodology comparison.
pub fn report(run: RunCfg) -> Report {
    let scenarios: Vec<Scenario<Row>> = [("random-192MB", true), ("sequential-192MB", false)]
        .into_iter()
        .map(|(name, random)| {
            Scenario::new(name, move || {
                let w = if random {
                    PatternScan::random(48 * 1024, 400_000, 60)
                } else {
                    PatternScan::sequential(48 * 1024, 400_000, 60)
                };
                let out = run_one(PolicyKind::Linux4k, 512, None, 300.0, Box::new(w));
                let life = out.sim.machine().mmu().lifetime(out.pid);
                let derived =
                    (life.load_walk + life.store_walk).get() as f64 / life.unhalted.get() as f64;
                assert!(
                    (derived - life.mmu_overhead()).abs() < 1e-12,
                    "formula mismatch"
                );
                Row::new(vec![
                    name.to_string(),
                    format!("{:.1}", life.load_walk.get() as f64 / 1e6),
                    format!("{:.1}", life.store_walk.get() as f64 / 1e6),
                    format!("{:.1}", life.unhalted.get() as f64 / 1e6),
                    pct(derived),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(name)),
                    ("load_walk_cycles", Json::int(life.load_walk.get())),
                    ("store_walk_cycles", Json::int(life.store_walk.get())),
                    ("unhalted_cycles", Json::int(life.unhalted.get())),
                    ("mmu_overhead", Json::num(derived)),
                ]))
            })
        })
        .collect();
    let mut report = Report::new(
        "table4_pmu_methodology",
        "Table 4: PMU counters and the derived MMU overhead",
        vec![
            "Workload",
            "C1 load-walk (Mcyc)",
            "C2 store-walk (Mcyc)",
            "C3 unhalted (Mcyc)",
            "(C1+C2)/C3",
        ],
    );
    let rows = report.absorb(run_scenarios(scenarios, run.threads, run.trace));
    report.extend(rows);
    report.footer("formula verified: overhead == (C1 + C2) / C3 exactly");
    report
}
