//! Table 3: NPB memory characteristics, address-translation overheads and
//! huge-page speedups, native and virtualized.
//!
//! The paper's point: working-set size does not predict MMU overhead —
//! mg.D (24 GB) pays ~1 % while cg.D (16 GB, random) pays 39 % and gains
//! 1.62× native / 2.7× virtualized from huge pages. Footprints scaled
//! ~128×.

use crate::{pct, run_one, run_scenarios, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::{BasePagesOnly, Workload};
use hawkeye_policies::LinuxThp;
use hawkeye_virt::{VirtSystem, VmSpec};
use hawkeye_workloads::NpbKernel;

fn kernel(name: &str, iters: u64) -> Box<dyn Workload> {
    // Class-D footprints / 128 (2 MB regions).
    match name {
        "bt.D" => Box::new(NpbKernel::bt(40, iters)),
        "sp.D" => Box::new(NpbKernel::sp(48, iters)),
        "lu.D" => Box::new(NpbKernel::lu(32, iters)),
        "mg.D" => Box::new(NpbKernel::mg(104, iters)),
        "cg.D" => Box::new(NpbKernel::cg(64, iters)),
        "ft.D" => Box::new(NpbKernel::ft(120, iters)),
        _ => Box::new(NpbKernel::ua(38, iters)),
    }
}

fn virt_time(name: &str, host_huge: bool) -> f64 {
    let host: Box<dyn hawkeye_kernel::HugePagePolicy> = if host_huge {
        Box::new(LinuxThp::default())
    } else {
        Box::new(BasePagesOnly)
    };
    let mut sys = VirtSystem::new(PolicyKind::Linux2m.config(1024), host);
    let vm = sys.add_vm(
        VmSpec { frames: 192 * 1024 },
        if host_huge {
            Box::new(LinuxThp::default())
        } else {
            Box::new(BasePagesOnly)
        },
    );
    let pid = sys.spawn_in_vm(vm, kernel(name, 1200));
    sys.run();
    sys.guest(vm)
        .process(pid)
        .expect("pid")
        .cpu_time()
        .as_secs()
}

/// One scenario per workload: native base + huge runs, then both
/// virtualized configurations — four simulations per row.
fn scenario(name: &'static str) -> Scenario<Row> {
    Scenario::new(name, move || {
        let base = run_one(PolicyKind::Linux4k, 1024, None, 400.0, kernel(name, 3200));
        let huge = run_one(PolicyKind::Linux2m, 1024, None, 400.0, kernel(name, 3200));
        let rss_mib = {
            // Peak RSS from the recorder.
            let key = format!("p{}.rss_pages", base.pid);
            base.sim
                .machine()
                .recorder()
                .series(&key)
                .and_then(|s| s.max_value())
                .unwrap_or(0.0)
                * 4096.0
                / (1024.0 * 1024.0)
        };
        let stats = base.sim.machine().process(base.pid).expect("pid").stats();
        let miss_rate =
            base.sim.machine().mmu().lifetime(base.pid).walks as f64 / stats.accesses.max(1) as f64;
        let vb = virt_time(name, false);
        let vh = virt_time(name, true);
        Row::new(vec![
            name.to_string(),
            format!("{rss_mib:.0}"),
            format!("{:.2}%", miss_rate * 100.0),
            pct(base.mmu_overhead()),
            pct(huge.mmu_overhead()),
            spd(base.cpu_secs() / huge.cpu_secs()),
            spd(vb / vh),
        ])
        .with_json(Json::obj(vec![
            ("workload", Json::str(name)),
            ("rss_mib", Json::num(rss_mib)),
            ("tlb_miss_per_access", Json::num(miss_rate)),
            ("mmu_overhead_4k", Json::num(base.mmu_overhead())),
            ("mmu_overhead_2m", Json::num(huge.mmu_overhead())),
            (
                "native_speedup",
                Json::num(base.cpu_secs() / huge.cpu_secs()),
            ),
            ("virtual_speedup", Json::num(vb / vh)),
        ]))
    })
}

/// Builds the `table3` report: NPB memory characteristics and translation overheads.
pub fn report(run: RunCfg) -> Report {
    let scenarios: Vec<Scenario<Row>> = ["bt.D", "sp.D", "lu.D", "mg.D", "cg.D", "ft.D", "ua.D"]
        .map(scenario)
        .into();
    let mut report = Report::new(
        "table3_npb_characteristics",
        "Table 3: NPB characteristics (class-D footprints scaled /128)",
        vec![
            "Workload",
            "RSS (MiB)",
            "TLB-miss/access (4KB)",
            "walk cycles 4KB",
            "walk cycles 2MB",
            "native speedup",
            "virtual speedup",
        ],
    );
    let rows = report.absorb(run_scenarios(scenarios, run.threads, run.trace));
    report.extend(rows);
    report.footer(
        "(paper, Table 3: cg.D 39% walk cycles at 4KB -> 0.02% at 2MB,\n\
         1.62x native / 2.7x virtual; mg.D ~1% despite the largest WSS)",
    );
    report
}
