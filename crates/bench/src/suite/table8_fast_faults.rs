//! Table 8: fault-bound workloads under async pre-zeroing.
//!
//! All five workloads are dominated by page-fault handling; all free
//! memory starts *dirty* (steady state), so synchronous zeroing is on the
//! fault path unless a pre-zeroing daemon removed it. Paper: HawkEye-2MB
//! boots a KVM guest 13.8× faster than Linux-2MB's sync-zeroing path and
//! improves Redis 2 MB-value throughput 1.26×; Ingens' utilization
//! threshold *hurts* these workloads by multiplying faults.

use crate::{
    dirty_free_memory, run_scenarios, secs, Json, PolicyKind, Report, Row, RunCfg, RunOutcome,
    Scenario,
};
use hawkeye_kernel::{workload::script, MemOp, Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{HaccIo, RedisKv, RedisOp, SparseHash, Spinup};

fn run_steady(kind: PolicyKind, mib: u64, w: Box<dyn Workload>) -> RunOutcome {
    let mut cfg = kind.config(mib);
    cfg.max_time = Cycles::from_secs(600.0);
    let mut sim = Simulator::new(cfg, kind.build());
    dirty_free_memory(sim.machine_mut());
    if kind.wants_zero_pool() {
        sim.spawn(script(
            "warmup",
            vec![MemOp::Compute {
                cycles: 3_000_000_000,
            }],
        ));
        sim.run();
    }
    let pid = sim.spawn(w);
    sim.run();
    RunOutcome { sim, pid }
}

type WorkloadCtor = fn() -> Box<dyn Workload>;

fn workloads() -> Vec<(&'static str, WorkloadCtor)> {
    vec![
        ("Redis 2MB-values (Kops/s)", || {
            Box::new(RedisKv::new(
                80 * 1024,
                vec![RedisOp::Insert {
                    keys: 120,
                    value_pages: 512,
                    think: 500,
                }],
                41,
            ))
        }),
        ("SparseHash (s)", || Box::new(SparseHash::new(2048, 5, 60))),
        ("HACC-IO (s)", || Box::new(HaccIo::new(24 * 1024, 3))),
        ("JVM spin-up (s)", || {
            Box::new(Spinup::new("jvm", 24 * 1024))
        }),
        ("KVM spin-up (s)", || {
            Box::new(Spinup::new("kvm", 24 * 1024))
        }),
    ]
}

/// Builds the `table8` report: fault-bound workloads under async pre-zeroing.
pub fn report(run: RunCfg) -> Report {
    let kinds = [
        PolicyKind::Linux4k,
        PolicyKind::Linux2m,
        PolicyKind::Ingens90,
        PolicyKind::HawkEye4k,
        PolicyKind::HawkEyeG,
    ];
    // One scenario per (workload, policy) cell: the whole 5 × 5 matrix
    // runs in parallel; rows reassemble from the ordered results.
    let scenarios: Vec<Scenario<(String, f64)>> = workloads()
        .into_iter()
        .flat_map(|(name, mk)| {
            kinds.into_iter().map(move |kind| {
                Scenario::new(format!("{name} / {}", kind.label()), move || {
                    let out = run_steady(kind, 512, mk());
                    if name.starts_with("Redis") {
                        // Throughput: inserted keys per second of CPU time.
                        let kops = 120.0 / out.cpu_secs().max(1e-9) / 1e3;
                        (format!("{:.2}K", kops * 1e3 / 1e3), kops)
                    } else {
                        (secs(out.cpu_secs()), out.cpu_secs())
                    }
                })
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut header: Vec<&'static str> = vec!["Workload"];
    header.extend(kinds.iter().map(|k| k.label()));
    let mut report = Report::new(
        "table8_fast_faults",
        "Table 8: fault-dominated workloads, steady-state (dirty) free memory",
        header,
    );
    let cells = report.absorb(batch);
    for (w, chunk) in workloads().iter().zip(cells.chunks(kinds.len())) {
        let mut row = vec![w.0.to_string()];
        row.extend(chunk.iter().map(|(cell, _)| cell.clone()));
        let mut json = Json::obj(vec![("workload", Json::str(w.0))]);
        for (kind, (_, value)) in kinds.iter().zip(chunk) {
            json.push(kind.label(), Json::num(*value));
        }
        report.add(Row::new(row).with_json(json));
    }
    report.footer(
        "(paper, Table 8 [45GB/36GB/6GB/36GB/36GB footprints]:\n\
         Redis 233/437/192/236/551 Kops; SparseHash 50.1/17.2/51.5/46.6/10.6 s;\n\
         HACC-IO 6.5/4.5/6.6/6.5/4.2 s; JVM 37.7/18.6/52.7/29.8/1.37 s;\n\
         KVM 40.6/9.7/41.8/30.2/0.70 s)",
    );
    report
}
