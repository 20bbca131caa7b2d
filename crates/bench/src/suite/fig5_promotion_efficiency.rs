//! Fig. 5: performance speedup from huge-page promotion after
//! fragmentation, and execution time saved per promotion.
//!
//! Workloads allocate everything in a fragmented system; policies then
//! recover from high MMU overheads by promoting. HawkEye's
//! access-coverage order reaches the hot (high-VA) regions immediately;
//! Linux and Ingens scan sequentially from low VAs. Paper: HawkEye up to
//! 22 % over never-promoting, 6.7× (G) / 44× (PMU) better time saved per
//! promotion than Linux on XSBench.

use crate::{run_one, run_scenarios, secs, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::Workload;
use hawkeye_workloads::{HotspotWorkload, NpbKernel};

fn workload(name: &str) -> Box<dyn Workload> {
    match name {
        "graph500" => Box::new(HotspotWorkload::graph500(96, 6000)),
        "xsbench" => Box::new(HotspotWorkload::xsbench(120, 6000)),
        "cg.D" => Box::new(NpbKernel::cg(64, 6000)),
        _ => unreachable!(),
    }
}

const NAMES: [&str; 3] = ["graph500", "xsbench", "cg.D"];
const KINDS: [PolicyKind; 5] = [
    PolicyKind::Linux4k, // base first, used by the other rows of its workload
    PolicyKind::Linux2m,
    PolicyKind::Ingens,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEyeG,
];

/// Builds the `fig5` report: speedup from huge-page promotion after fragmentation.
pub fn report(run: RunCfg) -> Report {
    // Every (workload, policy) cell is an independent simulation; the
    // speedup column is assembled afterwards from the ordered results.
    let scenarios: Vec<Scenario<(f64, u64)>> = NAMES
        .iter()
        .flat_map(|name| {
            KINDS.iter().map(move |kind| {
                let (name, kind) = (*name, *kind);
                Scenario::new(format!("{name} {}", kind.label()), move || {
                    let out = run_one(kind, 768, Some((1.0, 0.55)), 300.0, workload(name));
                    (out.cpu_secs(), out.sim.machine().stats().promotions)
                })
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "fig5_promotion_efficiency",
        "Fig. 5: promotion efficiency in a fragmented system",
        vec![
            "Workload",
            "Policy",
            "exec (s)",
            "speedup vs 4KB",
            "promotions",
            "time saved/promotion (ms)",
        ],
    );
    let results = report.absorb(batch);
    for (wi, name) in NAMES.iter().enumerate() {
        let cells = &results[wi * KINDS.len()..(wi + 1) * KINDS.len()];
        let t4k = cells[0].0;
        for (ki, kind) in KINDS.iter().enumerate().skip(1) {
            let (exec, promos) = cells[ki];
            let promos = promos.max(1);
            let saved_ms = (t4k - exec).max(0.0) * 1e3 / promos as f64;
            report.add(
                Row::new(vec![
                    name.to_string(),
                    kind.label().to_string(),
                    secs(exec),
                    spd(t4k / exec),
                    promos.to_string(),
                    format!("{saved_ms:.2}"),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(*name)),
                    ("policy", Json::str(kind.label())),
                    ("exec_secs", Json::num(exec)),
                    ("speedup_vs_4k", Json::num(t4k / exec)),
                    ("promotions", Json::int(promos)),
                    ("saved_ms_per_promotion", Json::num(saved_ms)),
                ])),
            );
        }
        report.add(
            Row::new(vec![
                name.to_string(),
                "Linux-4KB".into(),
                secs(t4k),
                "1.00x".into(),
                "0".into(),
                "-".into(),
            ])
            .with_json(Json::obj(vec![
                ("workload", Json::str(*name)),
                ("policy", Json::str("Linux-4KB")),
                ("exec_secs", Json::num(t4k)),
                ("speedup_vs_4k", Json::num(1.0)),
                ("promotions", Json::int(0)),
            ])),
        );
    }
    report.footer(
        "(paper, Fig. 5: HawkEye up to 22% over no-promotion; 13%/12%/6% over\n\
         Linux & Ingens on Graph500/XSBench/cg.D; HawkEye-PMU saves the most\n\
         time per promotion because it stops below 2% overhead)",
    );
    report
}
