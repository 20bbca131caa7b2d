//! OLTP B-tree: a TPC-C-like buffer manager under every policy.
//!
//! Pointer-chasing root→leaf lookups are the TLB's worst case — every
//! level of the chase lands in an unrelated 2 MB region, so base pages
//! pay a four-level walk per tree level (btree-techniques' TPC-C
//! measurements put paged B-trees among the most TLB-bound OLTP
//! shapes). The tree is bulk-loaded into a fragmented machine, so
//! fault-time huge pages are off the table and only *promotion* can
//! recover the walk overhead; the skewed leaf accesses then separate
//! access-coverage ranking (HawkEye-G promotes the hot inner/leaf
//! regions first) from sequential-VA scanning. Not a figure of the
//! paper: this is DESIGN.md §17's first generalization family.

use crate::{
    pct, run_one, run_scenarios, secs, spd, Json, PolicyKind, Report, Row, RunCfg, Scenario,
};
use hawkeye_workloads::BtreeOltp;

/// Leaf span (2 MB regions) and transaction count for the suite run.
const LEAF_REGIONS: u64 = 40;
const TXNS: u64 = 250_000;

const KINDS: [PolicyKind; 9] = [
    PolicyKind::Linux4k, // baseline first: speedups divide by this row
    PolicyKind::Linux2m,
    PolicyKind::FreeBsd,
    PolicyKind::Ingens,
    PolicyKind::Ingens90,
    PolicyKind::Ingens50,
    PolicyKind::HawkEyeG,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEye4k,
];

/// Builds the `oltp_btree` report: one fragmented-machine run per
/// policy, with MMU-overhead and fault-latency columns.
pub fn report(run: RunCfg) -> Report {
    report_with(LEAF_REGIONS, TXNS, run)
}

/// [`report`] at an explicit scale — the byte-determinism test runs a
/// reduced tree so the sweep stays affordable under the dev profile.
pub fn report_with(leaf_regions: u64, txns: u64, run: RunCfg) -> Report {
    // exec secs, MMU overhead, faults, avg fault µs, promotions
    type PolicyRow = (f64, f64, u64, f64, u64);
    let scenarios: Vec<Scenario<PolicyRow>> = KINDS
        .iter()
        .map(|kind| {
            let kind = *kind;
            Scenario::new(format!("tpcc-btree {}", kind.label()), move || {
                let out = run_one(
                    kind,
                    256,
                    Some((1.0, 0.55)),
                    300.0,
                    Box::new(BtreeOltp::tpcc(leaf_regions, txns)),
                );
                (
                    out.exec_secs(),
                    out.mmu_overhead(),
                    out.faults(),
                    out.avg_fault_us(),
                    out.sim.machine().stats().promotions,
                )
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "oltp_btree",
        "OLTP B-tree: TPC-C-like pointer chasing across the nine policies",
        vec![
            "Policy",
            "exec (s)",
            "speedup vs 4KB",
            "MMU ovh",
            "faults",
            "avg fault (us)",
            "promotions",
        ],
    );
    let results = report.absorb(batch);
    let t4k = results[0].0;
    for (ki, kind) in KINDS.iter().enumerate() {
        let (exec, mmu, faults, fault_us, promos) = results[ki];
        report.add(
            Row::new(vec![
                kind.label().to_string(),
                secs(exec),
                spd(t4k / exec),
                pct(mmu),
                faults.to_string(),
                format!("{fault_us:.2}"),
                promos.to_string(),
            ])
            .with_json(Json::obj(vec![
                ("policy", Json::str(kind.label())),
                ("exec_secs", Json::num(exec)),
                ("speedup_vs_4k", Json::num(t4k / exec)),
                ("mmu_overhead", Json::num(mmu)),
                ("faults", Json::int(faults)),
                ("avg_fault_us", Json::num(fault_us)),
                ("promotions", Json::int(promos)),
            ])),
        );
    }
    report.footer(
        "(DESIGN.md §17: root->leaf chases give consecutive accesses no\n\
         spatial locality, so walk cycles dominate at 4KB; the machine is\n\
         pre-fragmented, so only promotion — not fault-time allocation —\n\
         can recover them)",
    );
    report
}
