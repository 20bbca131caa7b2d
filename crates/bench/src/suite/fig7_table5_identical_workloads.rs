//! Fig. 7 / Table 5: three identical instances of Graph500 and XSBench
//! running simultaneously in a fragmented system.
//!
//! Linux's FCFS khugepaged promotes one process at a time (fast for the
//! first, unfair to the rest); Ingens promotes proportionally but wastes
//! promotions on cold low-VA regions; HawkEye promotes hot regions of all
//! instances round-robin — the paper measures 1.13–1.15× average speedup
//! for HawkEye vs ~1.0–1.06× for Linux/Ingens.

use crate::{run_scenarios, secs, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::{Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::HotspotWorkload;

fn instance(name: &str) -> Box<dyn Workload> {
    match name {
        "graph500" => Box::new(HotspotWorkload::graph500(56, 5000)),
        _ => Box::new(HotspotWorkload::xsbench(64, 5000)),
    }
}

fn run_three(kind: PolicyKind, name: &str) -> (Vec<f64>, u64) {
    let mut cfg = kind.config(768);
    cfg.max_time = Cycles::from_secs(400.0);
    let mut sim = Simulator::new(cfg, kind.build());
    sim.machine_mut().fragment(1.0, 0.55, 7);
    let pids: Vec<u32> = (0..3).map(|_| sim.spawn(instance(name))).collect();
    sim.run();
    let times = pids
        .iter()
        .map(|pid| {
            sim.machine()
                .process(*pid)
                .and_then(|p| p.finish_time())
                .unwrap_or(sim.machine().now())
                .as_secs()
        })
        .collect();
    (times, sim.machine().stats().promotions)
}

const NAMES: [&str; 2] = ["graph500", "xsbench"];
const KINDS: [PolicyKind; 5] = [
    PolicyKind::Linux4k,
    PolicyKind::Linux2m,
    PolicyKind::Ingens,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEyeG,
];

/// Builds the `fig7_table5` report: fairness across identical co-running instances.
pub fn report(run: RunCfg) -> Report {
    // One scenario per (workload, policy); the 4KB cell doubles as the
    // speedup base for its workload (assembled after the ordered run).
    let scenarios: Vec<Scenario<(Vec<f64>, u64)>> = NAMES
        .iter()
        .flat_map(|name| {
            KINDS.iter().map(move |kind| {
                let (name, kind) = (*name, *kind);
                Scenario::new(format!("{name} {}", kind.label()), move || {
                    run_three(kind, name)
                })
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "fig7_table5_identical_workloads",
        "Table 5 / Fig. 7: three identical instances, fragmented system",
        vec![
            "Workload",
            "Policy",
            "inst-1 (s)",
            "inst-2 (s)",
            "inst-3 (s)",
            "avg (s)",
            "avg speedup",
            "promotions",
        ],
    );
    let results = report.absorb(batch);
    for (wi, name) in NAMES.iter().enumerate() {
        let cells = &results[wi * KINDS.len()..(wi + 1) * KINDS.len()];
        let avg4k = cells[0].0.iter().sum::<f64>() / 3.0;
        for (ki, kind) in KINDS.iter().enumerate() {
            let (times, promos) = &cells[ki];
            let promos = if *kind == PolicyKind::Linux4k {
                0
            } else {
                *promos
            };
            let avg = times.iter().sum::<f64>() / 3.0;
            report.add(
                Row::new(vec![
                    name.to_string(),
                    kind.label().to_string(),
                    secs(times[0]),
                    secs(times[1]),
                    secs(times[2]),
                    secs(avg),
                    spd(avg4k / avg),
                    promos.to_string(),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(*name)),
                    ("policy", Json::str(kind.label())),
                    (
                        "instance_secs",
                        Json::Arr(times.iter().map(|t| Json::num(*t)).collect()),
                    ),
                    ("avg_secs", Json::num(avg)),
                    ("avg_speedup", Json::num(avg4k / avg)),
                    ("promotions", Json::int(promos)),
                ])),
            );
        }
    }
    report.footer(
        "(paper, Table 5: Graph500 avg speedups 1.02x Linux / 1.01x Ingens /\n\
         1.14x HawkEye-PMU / 1.13x HawkEye-G; XSBench 1.00/1.00/1.15/1.15)",
    );
    report
}
