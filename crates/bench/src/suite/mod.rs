//! The paper-experiment suite as a library.
//!
//! Every bench target that reproduces a table or figure from the paper
//! (the rows of DESIGN.md §4's experiment index) lives here as a module
//! with a single `pub fn report(run: RunCfg) -> Report` entry point.
//! The `benches/*.rs` files are thin wrappers over [`run_main`], and
//! `hawkeye-report` runs the same code in-process via [`TARGETS`] so the
//! one-command reproduction pipeline and the individual binaries can
//! never drift apart (DESIGN.md §12).
//!
//! `ablations` and `touch_throughput` stay standalone benches: they are
//! exploratory tools, not rows of the experiment index.

pub mod adversarial;
pub mod fig10_prezero_interference;
pub mod fig11_overcommit;
pub mod fig1_redis_bloat;
pub mod fig3_first_nonzero_byte;
pub mod fig4_access_map;
pub mod fig5_promotion_efficiency;
pub mod fig6_promotion_timeline;
pub mod fig7_table5_identical_workloads;
pub mod fig8_heterogeneous;
pub mod fig9_virtualized;
pub mod fleet_slo;
pub mod hpc_stencil;
pub mod multicore_contention;
pub mod oltp_btree;
pub mod table1_fault_latency;
pub mod table2_tlb_sensitivity;
pub mod table3_npb_characteristics;
pub mod table4_pmu_methodology;
pub mod table7_bloat_recovery;
pub mod table8_fast_faults;
pub mod table9_pmu_vs_g;

use crate::{Report, RunCfg, TargetRun};

/// One runnable paper experiment: a row of DESIGN.md §4's index.
pub struct Target {
    /// Bench-target name; also the stem of the summary JSON and trace
    /// journal written under `target/bench-results/`.
    pub name: &'static str,
    /// The paper artifact this target reproduces ("Table 1", "Fig 5", …).
    pub paper: &'static str,
    /// Builds and runs the experiment under a [`RunCfg`] and returns its
    /// [`Report`] (not yet printed or persisted).
    pub build: fn(RunCfg) -> Report,
}

impl Target {
    /// Runs the experiment as one owned [`TargetRun`]: the report with
    /// its artifacts, the host seconds `build` took, and the scheduler
    /// quanta it ran. The standalone binaries and `hawkeye-report` both
    /// go through here.
    pub fn run(&self, cfg: RunCfg) -> TargetRun {
        TargetRun::measure(|| (self.build)(cfg))
    }
}

/// All paper experiments, in DESIGN.md §4 order (tables, then figures).
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1_fault_latency",
        paper: "Table 1",
        build: table1_fault_latency::report,
    },
    Target {
        name: "table2_tlb_sensitivity",
        paper: "Table 2",
        build: table2_tlb_sensitivity::report,
    },
    Target {
        name: "table3_npb_characteristics",
        paper: "Table 3",
        build: table3_npb_characteristics::report,
    },
    Target {
        name: "table4_pmu_methodology",
        paper: "Table 4",
        build: table4_pmu_methodology::report,
    },
    Target {
        name: "table7_bloat_recovery",
        paper: "Table 7",
        build: table7_bloat_recovery::report,
    },
    Target {
        name: "table8_fast_faults",
        paper: "Table 8",
        build: table8_fast_faults::report,
    },
    Target {
        name: "table9_pmu_vs_g",
        paper: "Table 9",
        build: table9_pmu_vs_g::report,
    },
    Target {
        name: "fig1_redis_bloat",
        paper: "Fig 1",
        build: fig1_redis_bloat::report,
    },
    Target {
        name: "fig3_first_nonzero_byte",
        paper: "Fig 3",
        build: fig3_first_nonzero_byte::report,
    },
    Target {
        name: "fig4_access_map",
        paper: "Fig 4",
        build: fig4_access_map::report,
    },
    Target {
        name: "fig5_promotion_efficiency",
        paper: "Fig 5",
        build: fig5_promotion_efficiency::report,
    },
    Target {
        name: "fig6_promotion_timeline",
        paper: "Fig 6",
        build: fig6_promotion_timeline::report,
    },
    Target {
        name: "fig7_table5_identical_workloads",
        paper: "Fig 7 / Table 5",
        build: fig7_table5_identical_workloads::report,
    },
    Target {
        name: "fig8_heterogeneous",
        paper: "Fig 8 / Table 6",
        build: fig8_heterogeneous::report,
    },
    Target {
        name: "fig9_virtualized",
        paper: "Fig 9",
        build: fig9_virtualized::report,
    },
    Target {
        name: "fig10_prezero_interference",
        paper: "Fig 10",
        build: fig10_prezero_interference::report,
    },
    Target {
        name: "fig11_overcommit",
        paper: "Fig 11",
        build: fig11_overcommit::report,
    },
    Target {
        name: "multicore_contention",
        paper: "§4 multi-core",
        build: multicore_contention::report,
    },
    Target {
        name: "fleet_slo",
        paper: "§Fleet SLOs",
        build: fleet_slo::report,
    },
    Target {
        name: "oltp_btree",
        paper: "§17 OLTP B-tree",
        build: oltp_btree::report,
    },
    Target {
        name: "hpc_stencil",
        paper: "§17 HPC stencil",
        build: hpc_stencil::report,
    },
    Target {
        name: "adversarial",
        paper: "§17 adversarial",
        build: adversarial::report,
    },
];

/// Looks up a suite target by bench-target name.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Entry point for the thin `benches/*.rs` wrappers: runs `name` on the
/// configured worker count ([`crate::pool::worker_threads`]), tracing
/// when `HAWKEYE_TRACE` asks for it, and prints and persists the report
/// exactly as the pre-suite binaries did.
pub fn run_main(name: &str) {
    let target = find(name).unwrap_or_else(|| panic!("unknown suite target `{name}`"));
    let cfg = RunCfg {
        threads: crate::pool::worker_threads(),
        trace: hawkeye_trace::env_enabled(),
    };
    target.run(cfg).finish();
}
