//! Fig. 11: memory-overcommitted VMs — HawkEye's pre-zeroing + host KSM
//! vs a balloon driver vs nothing.
//!
//! With total VM memory at 1.5× host memory, free guest memory must flow
//! back to the host somehow or the system swaps. The paper shows guest
//! async pre-zeroing plus host same-page merging matching ballooning's
//! throughput (2.3× for Redis) without any paravirtual interface.

use crate::{run_scenarios, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_kernel::{HugePagePolicy, Workload};
use hawkeye_policies::LinuxThp;
use hawkeye_virt::{VirtConfig, VirtSystem, VmSpec};
use hawkeye_workloads::{HotspotWorkload, NpbKernel, RedisKv, RedisOp};

/// Phase-churning key-value store: allocates, releases, then serves — the
/// release phase is what KSM/balloon can recover.
fn kv(seed: u64) -> Box<dyn Workload> {
    Box::new(RedisKv::new(
        24 * 1024,
        vec![
            RedisOp::Insert {
                keys: 21 * 1024,
                value_pages: 1,
                think: 300,
            },
            RedisOp::DeleteFrac { fraction: 0.7 },
            RedisOp::Serve {
                requests: 400_000,
                think: 2_000,
            },
        ],
        seed,
    ))
}

#[derive(Clone, Copy)]
struct Config {
    label: &'static str,
    guests_hawkeye: bool,
    ksm: bool,
    balloon: bool,
}

fn guest_policy(hawkeye: bool) -> Box<dyn HugePagePolicy> {
    if hawkeye {
        Box::new(HawkEye::new(HawkEyeConfig::default()))
    } else {
        Box::new(LinuxThp::default())
    }
}

fn run(c: Config) -> (Vec<f64>, u64, u64) {
    let vcfg = VirtConfig {
        ksm: c.ksm,
        balloon: c.balloon,
        ..Default::default()
    };
    // Host 256 MiB; 4 VMs x 96 MiB = 1.5x overcommit.
    let mut sys = VirtSystem::with_virt_config(
        PolicyKind::Linux2m.config(256),
        Box::new(LinuxThp::default()),
        vcfg,
    );
    let mut pids = Vec::new();
    let specs: Vec<Box<dyn Workload>> = vec![
        kv(61),
        kv(62), // the "MongoDB" stand-in
        Box::new(HotspotWorkload::pagerank(36, 1500)),
        Box::new(NpbKernel::cg(36, 1500)),
    ];
    for w in specs {
        let vm = sys.add_vm(VmSpec { frames: 24 * 1024 }, guest_policy(c.guests_hawkeye));
        let pid = sys.spawn_in_vm(vm, w);
        pids.push((vm, pid));
    }
    sys.run();
    let times: Vec<f64> = pids
        .iter()
        .map(|(vm, pid)| {
            sys.guest(*vm)
                .process(*pid)
                .and_then(|p| p.finish_time())
                .unwrap_or_else(|| sys.guest(*vm).now())
                .as_secs()
        })
        .collect();
    let st = sys.virt_stats();
    (times, st.swap_outs, st.ksm_merged + st.ballooned)
}

/// Builds the `fig11` report: overcommitted VMs under pre-zeroing + host KSM.
pub fn report(cfg: RunCfg) -> Report {
    let configs = [
        Config {
            label: "no balloon, Linux guests",
            guests_hawkeye: false,
            ksm: false,
            balloon: false,
        },
        Config {
            label: "balloon, Linux guests",
            guests_hawkeye: false,
            ksm: false,
            balloon: true,
        },
        Config {
            label: "HawkEye guests + host KSM",
            guests_hawkeye: true,
            ksm: true,
            balloon: false,
        },
    ];
    let names = ["Redis", "MongoDB", "PageRank", "cg"];
    // Each configuration is one heavyweight four-VM system — three
    // scenarios fan out; the no-balloon result is the speedup base.
    let scenarios: Vec<Scenario<(Vec<f64>, u64, u64)>> = configs
        .iter()
        .map(|c| {
            Scenario::new(c.label, {
                let c = *c;
                move || run(c)
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, cfg.threads, cfg.trace);

    let mut report = Report::new(
        "fig11_overcommit",
        "Fig. 11: overcommitted VMs (4 x 96 MiB on a 256 MiB host), perf vs no-balloon",
        vec![
            "Configuration",
            "Redis",
            "MongoDB",
            "PageRank",
            "cg",
            "swap-outs",
            "pages recovered",
        ],
    );
    let results = report.absorb(batch);
    let base = &results[0];
    for (c, (times, swaps, recovered)) in configs.iter().zip(&results) {
        let mut row = vec![c.label.to_string()];
        let mut speedups = Vec::new();
        for (i, time) in times.iter().enumerate().take(names.len()) {
            row.push(format!("{:.2}x", base.0[i] / time));
            speedups.push((names[i], Json::num(base.0[i] / time)));
        }
        row.push(swaps.to_string());
        row.push(recovered.to_string());
        let mut json = vec![("configuration", Json::str(c.label))];
        json.extend(speedups);
        json.push(("swap_outs", Json::int(*swaps)));
        json.push(("pages_recovered", Json::int(*recovered)));
        report.add(Row::new(row).with_json(Json::obj(json)));
    }
    report.footer(
        "(paper, Fig. 11: HawkEye+KSM gives Redis 2.3x and MongoDB 1.42x over\n\
         no-balloon, close to the balloon-driver configuration; PageRank dips\n\
         slightly from extra COW faults)",
    );
    report
}
