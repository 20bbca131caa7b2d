//! Adversarial attackers swept over intensity: where does each policy
//! break?
//!
//! Two attacker families from `hawkeye-workloads` co-run with a
//! TLB-sensitive B-tree victim while the attack knob sweeps `[0, 1]`:
//!
//! * **frag** — the FMFI pessimizer pins one page per attacked 2 MB
//!   region and frees the rest, so free memory is plentiful but
//!   non-contiguous in proportion to intensity.
//! * **bloat** — the recovery weaponizer grows a dense, fully-written
//!   arena until utilization crosses the bloat-recovery watermark; the
//!   only zero pages left on the machine are the free tails inside the
//!   victim's fault-time huge pages, so HawkEye's recovery demotes the
//!   *victim* to feed the attacker, while Linux-2MB OOM-kills the
//!   attacker and the victim keeps its huge pages.
//!
//! For every (attack, intensity, policy) cell the table reports the
//! *victim's* completion time and its ratio to Linux-2MB under the same
//! attack — ratios above 1.0 mean the policy lost to Linux-2MB, and the
//! first intensity where that happens is the policy's failure knee,
//! tabulated in the generated ENVELOPES.md (DESIGN.md §17).

use crate::{pct, run_scenarios, secs, Json, PolicyKind, Report, Row, RunCfg, Scenario};
use hawkeye_kernel::{Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{BloatAttacker, BtreeOltp, FragAttacker};

/// The attack-knob sweep; 0.0 is the unattacked control point.
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Attack families, in report order.
pub const ATTACKS: [&str; 2] = ["frag", "bloat"];

/// Linux-2MB leads so every other row can divide by its cell.
const KINDS: [PolicyKind; 4] = [
    PolicyKind::Linux2m,
    PolicyKind::Linux4k,
    PolicyKind::HawkEyeG,
    PolicyKind::HawkEyePmu,
];

/// The measured tenant: a pointer-chasing B-tree (DESIGN.md §17's OLTP
/// family at reduced scale). Fill factor 0.65 is the textbook post-split
/// steady state — and the free tail it leaves inside each fault-time
/// huge page is exactly what the bloat attacker aims recovery at.
fn victim(txns: u64) -> Box<dyn Workload> {
    Box::new(BtreeOltp::new("victim-btree", 8, 0.7, 0.3, 8, 0.1, txns, 90, 11).with_fill(0.65))
}

/// Victim transaction count for the suite run: long enough that the
/// bloat attacker's growth lands on a still-running victim.
const VICTIM_TXNS: u64 = 2_500_000;

/// Simulated settle time before the victim arrives under the frag
/// attack: long enough for the attacker to shatter its arena before the
/// victim's faults start asking for contiguity.
const FRAG_SETTLE: f64 = 0.1;

/// Simulated settle time before the *attacker* arrives under the bloat
/// attack: long enough for the victim's bulk load to claim its
/// fault-time huge pages (and their zero tails) first.
const BLOAT_SETTLE: f64 = 0.06;

/// One sweep cell: victim completion seconds, MMU overhead, machine
/// promotions, whether the victim was OOM-killed, and whether the
/// *attacker* was (overshooting attacks self-destruct — see DESIGN.md
/// §17 on why the bloat attack is non-monotone in intensity).
type Cell = (f64, f64, u64, bool, bool);

fn run_cell(attack: &'static str, kind: PolicyKind, intensity: f64, victim_txns: u64) -> Cell {
    let mut cfg = kind.config(64);
    cfg.max_time = Cycles::from_secs(300.0);
    let mut sim = Simulator::new(cfg, kind.build());
    let (pid, atk, spawned_at) = if attack == "frag" {
        // Frag: the attacker goes first so its pins shatter everything
        // the victim's faults could be given; the victim then arrives on
        // a machine with plenty of free — but non-contiguous — memory.
        let atk = sim.spawn(Box::new(FragAttacker::new(22, intensity, 500_000, 7)));
        sim.run_for(Cycles::from_secs(FRAG_SETTLE));
        let spawned_at = sim.machine().now();
        (sim.spawn(victim(victim_txns)), atk, spawned_at)
    } else {
        // Bloat: the victim goes first so its fault-time huge pages (and
        // the zero tails its 0.65 fill factor leaves in them) exist
        // before the attacker's dense growth pushes utilization over the
        // recovery watermark — at which point the victim's tails are the
        // only reclaimable memory on the machine.
        let spawned_at = sim.machine().now();
        let pid = sim.spawn(victim(victim_txns));
        sim.run_for(Cycles::from_secs(BLOAT_SETTLE));
        let atk = sim.spawn(Box::new(BloatAttacker::new(26, intensity, 500_000, 9)));
        (pid, atk, spawned_at)
    };
    sim.run_while(|m| m.process(pid).map(|p| !p.is_finished()).unwrap_or(false));
    let p = sim.machine().process(pid).expect("victim pid");
    let end = p.finish_time().unwrap_or(sim.machine().now());
    let exec = end.saturating_sub(spawned_at).as_secs();
    let mmu = sim.machine().mmu().lifetime(pid).mmu_overhead();
    let atk_oom = sim.machine().process(atk).is_some_and(|a| a.is_oom());
    (
        exec,
        mmu,
        sim.machine().stats().promotions,
        p.is_oom(),
        atk_oom,
    )
}

/// Builds the `adversarial` report: the full attack × intensity × policy
/// sweep, with per-cell ratios against Linux-2MB under the same attack.
pub fn report(run: RunCfg) -> Report {
    report_with(VICTIM_TXNS, &INTENSITIES, run)
}

/// [`report`] with an explicit victim length and intensity sweep — the
/// byte-determinism test runs a short victim over two intensities so
/// the sweep stays affordable under the dev profile.
pub fn report_with(victim_txns: u64, intensities: &[f64], run: RunCfg) -> Report {
    let scenarios: Vec<Scenario<Cell>> = ATTACKS
        .iter()
        .flat_map(|attack| {
            intensities.iter().flat_map(move |intensity| {
                KINDS.iter().map(move |kind| {
                    let (attack, intensity, kind) = (*attack, *intensity, *kind);
                    Scenario::new(
                        format!("{attack} i={intensity:.2} {}", kind.label()),
                        move || run_cell(attack, kind, intensity, victim_txns),
                    )
                })
            })
        })
        .collect();
    let batch = run_scenarios(scenarios, run.threads, run.trace);

    let mut report = Report::new(
        "adversarial",
        "Adversarial attackers: victim slowdown vs attack intensity",
        vec![
            "Attack",
            "intensity",
            "Policy",
            "victim exec (s)",
            "vs Linux-2MB",
            "MMU ovh",
            "promotions",
            "OOM",
            "atk OOM",
        ],
    );
    let results = report.absorb(batch);
    for (ai, attack) in ATTACKS.iter().enumerate() {
        for (ii, intensity) in intensities.iter().enumerate() {
            let base = ai * intensities.len() * KINDS.len() + ii * KINDS.len();
            let t2m = results[base].0;
            for (ki, kind) in KINDS.iter().enumerate() {
                let (exec, mmu, promos, oom, atk_oom) = results[base + ki];
                let ratio = exec / t2m;
                report.add(
                    Row::new(vec![
                        attack.to_string(),
                        format!("{intensity:.2}"),
                        kind.label().to_string(),
                        secs(exec),
                        format!("{ratio:.3}"),
                        pct(mmu),
                        promos.to_string(),
                        if oom { "yes".into() } else { "-".into() },
                        if atk_oom { "yes".into() } else { "-".into() },
                    ])
                    .with_json(Json::obj(vec![
                        ("attack", Json::str(*attack)),
                        ("intensity", Json::num(*intensity)),
                        ("policy", Json::str(kind.label())),
                        ("victim_exec_secs", Json::num(exec)),
                        ("vs_linux2m", Json::num(ratio)),
                        ("mmu_overhead", Json::num(mmu)),
                        ("promotions", Json::int(promos)),
                        ("victim_oom", Json::int(oom as u64)),
                        ("attacker_oom", Json::int(atk_oom as u64)),
                    ])),
                );
            }
        }
    }
    report.footer(
        "(DESIGN.md §17: ratios above 1.000 mean the policy lost to Linux-2MB\n\
         under the same attack; the first such intensity per policy is its\n\
         failure knee — see the generated ENVELOPES.md for the knee table)",
    );
    report
}
