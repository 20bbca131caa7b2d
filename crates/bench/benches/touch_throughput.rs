//! Simulator touch-throughput smoke: wall-clock touches/sec for the three
//! shapes the fast path targets (streaming `TouchRange`, uniform-random
//! `TouchList`, repeat-heavy single-page `Touch`).
//!
//! Plain `std::time::Instant`, no external harness. Numbers are recorded
//! in `EXPERIMENTS.md`; `scripts/ci.sh` runs this target as a smoke test
//! with `--quick`.
//!
//! Wall-clock (host-dependent) numbers go to **stderr**, keeping stdout
//! and the JSON summary deterministic like every other target. Run with
//! `HAWKEYE_BENCH_THREADS=1` for clean single-core throughput numbers —
//! co-running cases contend for the same cores.

use std::time::Instant;

use hawkeye_bench::{pool, run_one, run_scenarios, Json, PolicyKind, Report, Row, Scenario, TargetRun};
use hawkeye_kernel::{MemOp, Workload};
use hawkeye_vm::{Vpn, VmaKind};
use hawkeye_workloads::{DirtModel, PatternScan};

/// Repeat-heavy shape: hammer a small hot set with large `repeats`
/// counts, the pattern where per-touch TLB modeling is pure overhead.
#[derive(Debug)]
struct RepeatHammer {
    pages: u64,
    touches_left: u64,
    started: bool,
    cursor: u64,
    dirt: DirtModel,
}

impl RepeatHammer {
    fn new(pages: u64, touches: u64) -> Self {
        RepeatHammer {
            pages,
            touches_left: touches,
            started: false,
            cursor: 0,
            dirt: DirtModel::paper_average(11),
        }
    }
}

impl Workload for RepeatHammer {
    fn name(&self) -> &str {
        "repeat-hammer"
    }

    fn next_op(&mut self) -> Option<MemOp> {
        if !self.started {
            self.started = true;
            return Some(MemOp::Mmap { start: Vpn(0), pages: self.pages, kind: VmaKind::Anon });
        }
        if self.touches_left == 0 {
            return None;
        }
        self.touches_left -= 1;
        let vpn = Vpn(self.cursor % self.pages);
        self.cursor += 1;
        Some(MemOp::Touch { vpn, write: true, repeats: 512, think: 20 })
    }

    fn dirt_offset(&mut self) -> u16 {
        self.dirt.sample()
    }
}

struct Case {
    name: &'static str,
    build: fn(u64) -> Box<dyn Workload>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale: u64 = if quick { 1 } else { 8 };

    let cases = [
        Case {
            name: "streaming",
            build: |n| Box::new(PatternScan::sequential(64 * 1024, n, 30)),
        },
        Case {
            name: "random",
            build: |n| Box::new(PatternScan::random(64 * 1024, n, 30)),
        },
        Case {
            name: "repeat-heavy",
            build: |n| Box::new(RepeatHammer::new(4 * 1024, n)),
        },
    ];

    let scenarios: Vec<Scenario<Row>> = cases
        .into_iter()
        .map(|case| {
            Scenario::new(case.name, move || {
                let n = scale * 1_000_000;
                let t0 = Instant::now();
                let out = run_one(PolicyKind::HawkEyeG, 1024, None, 1e9, (case.build)(n));
                let wall = t0.elapsed();
                let touches =
                    out.sim.machine().process(out.pid).expect("pid valid").stats().touches;
                let rate = touches as f64 / wall.as_secs_f64();
                eprintln!(
                    "[touch-throughput] {}: {touches} touches in {:.0} ms = {:.2e} touches/sec",
                    case.name,
                    wall.as_secs_f64() * 1e3,
                    rate
                );
                if quick {
                    assert!(
                        wall.as_secs_f64() < 30.0,
                        "{} smoke exceeded time budget: {:.1}s",
                        case.name,
                        wall.as_secs_f64()
                    );
                }
                Row::new(vec![case.name.to_string(), format!("{touches}")]).with_json(Json::obj(
                    vec![("shape", Json::str(case.name)), ("touches", Json::int(touches))],
                ))
            })
        })
        .collect();
    TargetRun::measure(|| {
        let mut report = Report::new(
            "touch_throughput",
            "Touch throughput (simulator hot path; wall-clock on stderr)",
            vec!["Shape", "Touches"],
        );
        let batch = run_scenarios(scenarios, pool::worker_threads(), hawkeye_trace::env_enabled());
        let rows = report.absorb(batch);
        report.extend(rows);
        report
    })
    .finish();
}
