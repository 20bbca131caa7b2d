//! Table 9: HawkEye-PMU vs HawkEye-G on co-running workload pairs.
//!
//! Each set pairs one TLB-sensitive and one TLB-insensitive workload,
//! both with *high access-coverage* — so HawkEye-G's estimate cannot tell
//! them apart, while HawkEye-PMU's measured overheads can. The paper
//! reports random(4GB) 1.77× under PMU vs 1.41× under G, and cg.D 1.62×
//! vs 1.35× (PMU up to 36 % better).

use crate::{run_scenarios, secs, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::{Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{NpbKernel, PatternScan};

fn set(name: &str) -> Vec<(&'static str, Box<dyn Workload>)> {
    match name {
        "set1" => vec![
            (
                "random(192MB)",
                Box::new(PatternScan::random(48 * 1024, 6_000_000, 60)) as Box<dyn Workload>,
            ),
            (
                "sequential(192MB)",
                Box::new(PatternScan::sequential(48 * 1024, 6_000_000, 60)),
            ),
        ],
        _ => vec![
            (
                "cg.D(128MB)",
                Box::new(NpbKernel::cg(64, 5000)) as Box<dyn Workload>,
            ),
            ("mg.D(192MB)", Box::new(NpbKernel::mg(96, 5000))),
        ],
    }
}

fn run_set(kind: PolicyKind, which: &str) -> Vec<(String, f64, f64)> {
    let mut cfg = kind.config(640);
    cfg.max_time = Cycles::from_secs(600.0);
    let mut sim = Simulator::new(cfg, kind.build());
    sim.machine_mut().fragment(1.0, 0.5, 7);
    let mut pids = Vec::new();
    for (name, w) in set(which) {
        pids.push((name, sim.spawn(w)));
    }
    sim.run();
    pids.iter()
        .map(|(name, pid)| {
            let p = sim.machine().process(*pid).expect("pid");
            let t = p.finish_time().unwrap_or(sim.machine().now()).as_secs();
            let ov = sim.machine().mmu().lifetime(*pid).mmu_overhead();
            (name.to_string(), t, ov)
        })
        .collect()
}

/// Builds the `table9` report: HawkEye-PMU vs HawkEye-G on co-running pairs.
pub fn report(run: RunCfg) -> Report {
    // One scenario per (set, policy): each runs the co-scheduled pair.
    let matrix = [
        ("set1", PolicyKind::Linux4k),
        ("set1", PolicyKind::HawkEyePmu),
        ("set1", PolicyKind::HawkEyeG),
        ("set2", PolicyKind::Linux4k),
        ("set2", PolicyKind::HawkEyePmu),
        ("set2", PolicyKind::HawkEyeG),
    ];
    let scenarios: Vec<Scenario<Vec<(String, f64, f64)>>> = matrix
        .into_iter()
        .map(|(which, kind)| {
            Scenario::new(format!("{which} {}", kind.label()), move || {
                run_set(kind, which)
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "table9_pmu_vs_g",
        "Table 9: HawkEye-PMU vs HawkEye-G (one sensitive + one insensitive per set)",
        vec![
            "Workload",
            "MMU overhead (4KB)",
            "4KB (s)",
            "HawkEye-PMU (s)",
            "HawkEye-G (s)",
            "PMU speedup",
            "G speedup",
        ],
    );
    let results = report.absorb(batch);
    for (si, which) in ["set1", "set2"].into_iter().enumerate() {
        let base = &results[si * 3];
        let pmu = &results[si * 3 + 1];
        let g = &results[si * 3 + 2];
        let mut totals = (0.0, 0.0, 0.0);
        for i in 0..base.len() {
            let (name, tb, ov) = &base[i];
            let tp = pmu[i].1;
            let tg = g[i].1;
            totals.0 += tb;
            totals.1 += tp;
            totals.2 += tg;
            report.add(
                Row::new(vec![
                    name.clone(),
                    format!("{:.0}%", ov * 100.0),
                    secs(*tb),
                    secs(tp),
                    secs(tg),
                    spd(tb / tp),
                    spd(tb / tg),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(name.clone())),
                    ("mmu_overhead_4k", Json::num(*ov)),
                    ("secs_4k", Json::num(*tb)),
                    ("secs_pmu", Json::num(tp)),
                    ("secs_g", Json::num(tg)),
                    ("pmu_speedup", Json::num(tb / tp)),
                    ("g_speedup", Json::num(tb / tg)),
                ])),
            );
        }
        report.add(
            Row::new(vec![
                format!("{which} TOTAL"),
                "-".into(),
                secs(totals.0),
                secs(totals.1),
                secs(totals.2),
                spd(totals.0 / totals.1),
                spd(totals.0 / totals.2),
            ])
            .with_json(Json::obj(vec![
                ("workload", Json::str(format!("{which} TOTAL"))),
                ("secs_4k", Json::num(totals.0)),
                ("secs_pmu", Json::num(totals.1)),
                ("secs_g", Json::num(totals.2)),
                ("pmu_speedup", Json::num(totals.0 / totals.1)),
                ("g_speedup", Json::num(totals.0 / totals.2)),
            ])),
        );
    }
    report.footer(
        "(paper, Table 9: random 1.77x PMU vs 1.41x G; cg.D 1.62x vs 1.35x;\n\
         sequential/mg unchanged — PMU correctly skips the insensitive process)",
    );
    report
}
