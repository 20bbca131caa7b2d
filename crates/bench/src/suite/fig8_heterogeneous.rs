//! Fig. 8: a TLB-sensitive application co-running with a lightly-loaded
//! Redis server, launched in both orders.
//!
//! Linux promotes in process-launch order, so the sensitive app only wins
//! when launched first; Ingens' footprint-proportional shares favor the
//! (large, uniformly-accessed) Redis; HawkEye allocates by MMU overhead
//! and is order-independent — the paper measures 15–60 % speedups for the
//! sensitive apps under HawkEye in both orders.

use crate::{run_scenarios, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::{Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{HotspotWorkload, NpbKernel, RedisKv};

fn sensitive(name: &str) -> Box<dyn Workload> {
    match name {
        "graph500" => Box::new(HotspotWorkload::graph500(56, 4500)),
        "xsbench" => Box::new(HotspotWorkload::xsbench(64, 4500)),
        _ => Box::new(NpbKernel::cg(48, 4500)),
    }
}

fn redis() -> Box<dyn Workload> {
    // Lightly loaded: 96 MiB of keys, random GETs paced at a low rate.
    Box::new(RedisKv::lightly_loaded(24 * 1024, 100_000_000, 23))
}

/// Runs the pair; `sensitive_first` controls launch order. Returns the
/// sensitive app's completion time.
fn run_pair(kind: PolicyKind, name: &str, sensitive_first: bool) -> f64 {
    let mut cfg = kind.config(768);
    cfg.max_time = Cycles::from_secs(400.0);
    let mut sim = Simulator::new(cfg, kind.build());
    sim.machine_mut().fragment(1.0, 0.55, 7);
    let sens_pid = if sensitive_first {
        let p = sim.spawn(sensitive(name));
        sim.spawn(redis());
        p
    } else {
        sim.spawn(redis());
        sim.spawn(sensitive(name))
    };
    sim.run_while(|m| {
        m.process(sens_pid)
            .map(|p| !p.is_finished())
            .unwrap_or(false)
    });
    sim.machine()
        .process(sens_pid)
        .and_then(|p| p.finish_time())
        .unwrap_or(sim.machine().now())
        .as_secs()
}

const NAMES: [&str; 3] = ["graph500", "xsbench", "cg"];
const KINDS: [PolicyKind; 5] = [
    PolicyKind::Linux4k,
    PolicyKind::Linux2m,
    PolicyKind::Ingens,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEyeG,
];

/// Builds the `fig8` report: a TLB-sensitive tenant next to a lightly-loaded one.
pub fn report(run: RunCfg) -> Report {
    // One scenario per (workload, policy, launch order) — 30 independent
    // pair simulations, fanned across cores.
    let scenarios: Vec<Scenario<f64>> = NAMES
        .iter()
        .flat_map(|name| {
            KINDS.iter().flat_map(move |kind| {
                [true, false].into_iter().map(move |first| {
                    let (name, kind) = (*name, *kind);
                    Scenario::new(
                        format!(
                            "{name} {} {}",
                            kind.label(),
                            if first { "before" } else { "after" }
                        ),
                        move || run_pair(kind, name, first),
                    )
                })
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "fig8_heterogeneous",
        "Fig. 8: TLB-sensitive app +/- lightly-loaded Redis, both launch orders",
        vec![
            "Sensitive app",
            "Policy",
            "speedup (launched Before)",
            "speedup (launched After)",
        ],
    );
    let results = report.absorb(batch);
    let per_name = KINDS.len() * 2;
    for (wi, name) in NAMES.iter().enumerate() {
        let cells = &results[wi * per_name..(wi + 1) * per_name];
        let (base_before, base_after) = (cells[0], cells[1]);
        for (ki, kind) in KINDS.iter().enumerate().skip(1) {
            let (before, after) = (cells[ki * 2], cells[ki * 2 + 1]);
            report.add(
                Row::new(vec![
                    name.to_string(),
                    kind.label().to_string(),
                    spd(base_before / before),
                    spd(base_after / after),
                ])
                .with_json(Json::obj(vec![
                    ("workload", Json::str(*name)),
                    ("policy", Json::str(kind.label())),
                    ("speedup_before", Json::num(base_before / before)),
                    ("speedup_after", Json::num(base_after / after)),
                ])),
            );
        }
    }
    report.footer(
        "(paper, Fig. 8: Linux helps only in the Before order; Ingens favors\n\
         Redis in both; HawkEye gives the sensitive app 15-60% in both orders)",
    );
    report
}
