//! Table 1: page faults, allocation latency and performance for the
//! alloc-touch microbenchmark (paper: 10 GB buffer × 10 runs ≈ 100 GB;
//! here scaled 64× to 160 MB × 10 runs ≈ 1.6 GB of allocation).
//!
//! Paper's headline: Linux-2MB cuts faults >500× and total time >4× over
//! Linux-4KB despite 133× worse per-fault latency; Ingens keeps latency
//! low but *not* the fault count, so it loses overall; removing zeroing
//! from the fault path (HawkEye's async pre-zeroing) wins on both axes.

use crate::{
    dirty_free_memory, run_scenarios, secs, Json, PolicyKind, Report, Row, RunCfg, RunOutcome,
    Scenario,
};
use hawkeye_kernel::{workload::script, MemOp, Simulator};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::AllocTouch;

fn run_dirty(kind: PolicyKind, pages: u64, runs: u32) -> RunOutcome {
    let mut cfg = kind.config(256);
    cfg.max_time = Cycles::from_secs(600.0);
    let mut sim = Simulator::new(cfg, kind.build());
    // Steady-state machine: all free memory is dirty, so synchronous
    // zeroing is genuinely on the fault path for baselines.
    dirty_free_memory(sim.machine_mut());
    if kind.wants_zero_pool() {
        // The async pre-zeroing daemon gets its steady-state head start.
        sim.spawn(script(
            "warmup",
            vec![MemOp::Compute {
                cycles: 3_000_000_000,
            }],
        ));
        sim.run();
    }
    let pid = sim.spawn(Box::new(AllocTouch::new(pages, runs, 1150)));
    sim.run();
    RunOutcome { sim, pid }
}

/// Builds the `table1` report: page faults and allocation latency at 4 KB vs 2 MB.
pub fn report(run: RunCfg) -> Report {
    let pages_per_run = 40 * 1024; // 160 MiB
    let runs = 10;
    let scenarios: Vec<Scenario<Row>> = [
        PolicyKind::Linux4k,
        PolicyKind::Linux2m,
        PolicyKind::Ingens90,
        PolicyKind::HawkEye4k,
        PolicyKind::HawkEyeG,
    ]
    .into_iter()
    .map(|kind| {
        Scenario::new(kind.label(), move || {
            let out = run_dirty(kind, pages_per_run, runs);
            Row::new(vec![
                kind.label().to_string(),
                format!("{:.1}K", out.faults() as f64 / 1e3),
                secs(out.fault_secs()),
                format!("{:.2}", out.avg_fault_us()),
                secs(out.cpu_secs()),
            ])
            .with_json(Json::obj(vec![
                ("config", Json::str(kind.label())),
                ("faults", Json::int(out.faults())),
                ("fault_secs", Json::num(out.fault_secs())),
                ("avg_fault_us", Json::num(out.avg_fault_us())),
                ("total_secs", Json::num(out.cpu_secs())),
            ]))
        })
    })
    .collect();
    let mut report = Report::new(
        "table1_fault_latency",
        "Table 1: alloc-touch microbenchmark (scaled: 10 x 160 MiB)",
        vec![
            "Config",
            "#Page faults",
            "Fault time (s)",
            "Avg fault (us)",
            "Total time (s)",
        ],
    );
    let rows = report.absorb(run_scenarios(scenarios, run.threads, run.trace));
    report.extend(rows);
    report.footer(
        "(paper, Table 1: Linux-4KB 26.2M faults / 92.6s fault / 3.5us / 106s total;\n\
         Linux-2MB 51.5K / 23.9s / 465us / 24.9s; Ingens-90% 26.2M / 92.8s / 3.5us / 116s;\n\
         no-zeroing 4KB: 69.5s fault, 83s total; no-zeroing 2MB: 0.7s fault / 13us / 4.4s)",
    );
    report
}
