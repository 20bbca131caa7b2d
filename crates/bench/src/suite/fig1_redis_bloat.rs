//! Fig. 1: Redis resident memory across insert / delete / insert phases.
//!
//! Paper (48 GB machine): P1 inserts 45 GB of 4 KB values, P2 deletes 80 %
//! of keys (madvise breaks huge pages, RSS drops to 11 GB), khugepaged
//! re-promotes the sparse regions (bloat), and P3's 2 MB-value inserts
//! drive Linux and Ingens out of memory while HawkEye recovers bloat and
//! survives. Scaled here 256×: 176 MiB machine, 160 MiB dataset.

use crate::{format_series, run_scenarios, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::Simulator;
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{RedisKv, RedisOp};

fn redis_script() -> Vec<RedisOp> {
    vec![
        // P1: 160 MiB of 4 KB values.
        RedisOp::Insert {
            keys: 40 * 1024,
            value_pages: 1,
            think: 300,
        },
        RedisOp::Serve {
            requests: 20_000,
            think: 2_000,
        },
        // P2: delete 80%.
        RedisOp::DeleteFrac { fraction: 0.8 },
        // Gap: khugepaged gets time to "help" (re-promote sparse regions).
        RedisOp::Serve {
            requests: 40_000,
            think: 150_000,
        },
        // P3: 2 MB values until the dataset is back at ~160 MiB.
        RedisOp::Insert {
            keys: 64,
            value_pages: 512,
            think: 20_000,
        },
        RedisOp::Serve {
            requests: 20_000,
            think: 2_000,
        },
    ]
}

/// Builds the `fig1` report: Redis resident memory across insert/delete/insert phases.
pub fn report(run: RunCfg) -> Report {
    let scenarios: Vec<Scenario<Row>> = [
        PolicyKind::Linux2m,
        PolicyKind::Ingens,
        PolicyKind::HawkEyeG,
    ]
    .into_iter()
    .map(|kind| {
        Scenario::new(kind.label(), move || {
            let mut cfg = kind.config(176);
            cfg.max_time = Cycles::from_secs(120.0);
            let mut sim = Simulator::new(cfg, kind.build());
            let pid = sim.spawn(Box::new(RedisKv::new(120 * 1024, redis_script(), 17)));
            sim.run();
            let m = sim.machine();
            let series = m.recorder().series("mem.allocated_pages").expect("sampled");
            let peak = series.max_value().unwrap_or(0.0) * 4096.0 / (1024.0 * 1024.0);
            let fin = series.last().map(|s| s.value).unwrap_or(0.0) * 4096.0 / (1024.0 * 1024.0);
            let recovered = m.stats().deduped_zero_pages as f64 * 4096.0 / (1024.0 * 1024.0);
            let oom = m.process(pid).map(|p| p.is_oom()).unwrap_or(false);
            Row::new(vec![
                kind.label().to_string(),
                format!("{peak:.0}"),
                format!("{fin:.0}"),
                format!("{recovered:.0}"),
                if oom {
                    "OOM".into()
                } else {
                    "completed".into()
                },
            ])
            .with_json(Json::obj(vec![
                ("kernel", Json::str(kind.label())),
                ("peak_rss_mib", Json::num(peak)),
                ("final_rss_mib", Json::num(fin)),
                ("bloat_recovered_mib", Json::num(recovered)),
                ("oom", Json::Bool(oom)),
            ]))
            .line(format_series(
                &format!("{} RSS (pages) over time", kind.label()),
                series,
                14,
            ))
        })
    })
    .collect();
    let mut report = Report::new(
        "fig1_redis_bloat",
        "Fig. 1: Redis bloat across phases (176 MiB machine, 160 MiB dataset)",
        vec![
            "Kernel",
            "peak RSS (MiB)",
            "final RSS (MiB)",
            "bloat recovered (MiB)",
            "OOM?",
        ],
    );
    let rows = report.absorb(run_scenarios(scenarios, run.threads, run.trace));
    report.extend(rows);
    report.footer(
        "(paper, Fig. 1: Linux and Ingens hit OOM at 28 GB / 20 GB bloat;\n\
         HawkEye recovers bloat under pressure and completes)",
    );
    report
}
