//! The benchmark's three workloads and one iteration of each.
//!
//! An iteration runs a workload's baseline policy and then its HawkEye
//! policy, each on a freshly booted machine, and does the same simulated
//! work every time for a given seed. Set-up (boot, fragmentation or
//! dirtying, and the pre-zero warm-up) is timed apart from the run.

use crate::probe::{ProbedWorkload, Spans, TimedPolicy};
use hawkeye_bench::{dirty_free_memory, PolicyKind};
use hawkeye_kernel::{workload::script, AccessHook, MemOp, Simulator, Workload};
use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::Pfn;
use hawkeye_metrics::{registry, Cycles, Registry};
use hawkeye_trace::Journal;
use hawkeye_vm::{PageSize, Vpn};
use hawkeye_workloads::{AllocTouch, HotspotWorkload, RedisKv, RedisOp};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Graph500 beside a lightly loaded Redis on a fragmented 768 MiB
    /// machine (the fig8 pair): hit-bound, exercises the TLB and page
    /// table.
    HotTouch,
    /// The fig1 Redis insert / delete 80 % / insert script on a 176 MiB
    /// two-core machine: daemon-bound (bloat recovery, dedup,
    /// compaction, promotion) and the only multicore workload.
    BloatChurn,
    /// The table1 alloc-touch (10 x 160 MiB) on a dirtied 256 MiB
    /// machine with tracing on: fault-bound, and the only workload that
    /// writes and parses journals.
    FaultTrace,
}

impl Bench {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Bench; 3] = [Bench::HotTouch, Bench::BloatChurn, Bench::FaultTrace];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::HotTouch => "hot_touch",
            Bench::BloatChurn => "bloat_churn",
            Bench::FaultTrace => "fault_trace",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Simulated machine size.
    pub fn mib(self) -> u64 {
        match self {
            Bench::HotTouch => 768,
            Bench::BloatChurn => 176,
            Bench::FaultTrace => 256,
        }
    }

    /// The policies an iteration runs, in order. The last is the HawkEye
    /// policy the model outputs describe; a first one is the Linux-4KB
    /// baseline. `bloat_churn` times HawkEye-G alone, so that its daemons
    /// and not a baseline's touch loop dominate it.
    fn policies(self) -> &'static [PolicyKind] {
        match self {
            Bench::HotTouch => &[PolicyKind::Linux4k, PolicyKind::HawkEyePmu],
            Bench::BloatChurn => &[PolicyKind::HawkEyeG],
            Bench::FaultTrace => &[PolicyKind::Linux4k, PolicyKind::HawkEyeG],
        }
    }

    fn traced(self) -> bool {
        self == Bench::FaultTrace
    }
}

/// How an iteration is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No decorators at all (the self-test's reference).
    Bare,
    /// Workloads count the accesses they issue; nothing is timed inside
    /// the run. End-to-end figures come from these iterations.
    Counted,
    /// Counted, and the policy and workload calls are timed.
    Traced,
}

/// Seeds an iteration derives from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    graph: u64,
    redis: u64,
    fragment: u64,
}

impl Seeds {
    fn derive(seed: u64) -> Seeds {
        let mut rng = SplitMix64::new(seed);
        Seeds {
            graph: rng.next_u64(),
            redis: rng.next_u64(),
            fragment: rng.next_u64(),
        }
    }
}

fn fig1_script() -> Vec<RedisOp> {
    vec![
        RedisOp::Insert {
            keys: 40 * 1024,
            value_pages: 1,
            think: 300,
        },
        RedisOp::Serve {
            requests: 20_000,
            think: 2_000,
        },
        RedisOp::DeleteFrac { fraction: 0.8 },
        RedisOp::Serve {
            requests: 40_000,
            think: 150_000,
        },
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

/// Boots the machine for `kind` and prepares it as the workload's
/// set-up prescribes.
fn boot(
    bench: Bench,
    kind: PolicyKind,
    seeds: Seeds,
    probe: Probe,
    spans: &Arc<Spans>,
) -> Simulator {
    let mut cfg = kind.config(bench.mib());
    cfg.max_time = Cycles::from_secs(match bench {
        Bench::HotTouch => 400.0,
        Bench::BloatChurn => 120.0,
        Bench::FaultTrace => 600.0,
    });
    if bench == Bench::BloatChurn {
        cfg.cores = 2;
    }
    let policy = match probe {
        Probe::Traced => Box::new(TimedPolicy::new(kind.build(), spans.clone())),
        Probe::Bare | Probe::Counted => kind.build(),
    };
    let mut sim = Simulator::new(cfg, policy);
    match bench {
        Bench::HotTouch => sim.machine_mut().fragment(1.0, 0.55, seeds.fragment),
        Bench::BloatChurn => {}
        Bench::FaultTrace => {
            dirty_free_memory(sim.machine_mut());
            if kind.wants_zero_pool() {
                // The pre-zeroing daemon gets its steady-state head start.
                sim.spawn(script(
                    "warmup",
                    vec![MemOp::Compute {
                        cycles: 3_000_000_000,
                    }],
                ));
                sim.run();
            }
        }
    }
    sim
}

/// The workload's processes, measured one first.
fn workloads(bench: Bench, seeds: Seeds) -> Vec<Box<dyn Workload>> {
    match bench {
        Bench::HotTouch => vec![
            Box::new(HotspotWorkload::new(
                "graph500",
                56,
                14,
                0.85,
                4500,
                60,
                seeds.graph,
            )),
            Box::new(RedisKv::lightly_loaded(24 * 1024, 100_000_000, seeds.redis)),
        ],
        Bench::BloatChurn => vec![Box::new(RedisKv::new(
            120 * 1024,
            fig1_script(),
            seeds.redis,
        ))],
        Bench::FaultTrace => vec![Box::new(AllocTouch::new(40 * 1024, 10, 1150))],
    }
}

/// A process the timed section spawned.
struct Spawned {
    pid: u32,
    issued: Option<Arc<AtomicU64>>,
}

/// What one simulation left behind.
struct SimOut {
    label: &'static str,
    setup_ns: u64,
    segments_ns: Vec<u64>,
    run_ns: u64,
    sim: Simulator,
    spawned: Vec<Spawned>,
    quanta: u64,
    skipped: u64,
    registry: Option<Registry>,
    journal: Option<Journal>,
}

fn simulate(
    bench: Bench,
    kind: PolicyKind,
    seeds: Seeds,
    probe: Probe,
    spans: &Arc<Spans>,
    hook: Option<Box<dyn AccessHook>>,
) -> SimOut {
    registry::scope::begin();
    if bench.traced() {
        hawkeye_trace::scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
    }
    let before = spans.snapshot();
    let t0 = Instant::now();
    let mut sim = boot(bench, kind, seeds, probe, spans);
    sim.set_access_hook(hook);
    let setup_ns = t0.elapsed().as_nanos() as u64;
    // Policy calls during the pre-zero warm-up belong to set-up.
    spans.restore(before);
    let t0 = Instant::now();
    let spawned: Vec<Spawned> = workloads(bench, seeds)
        .into_iter()
        .map(|w| match probe {
            Probe::Bare => Spawned {
                pid: sim.spawn(w),
                issued: None,
            },
            Probe::Counted | Probe::Traced => {
                let issued = Arc::new(AtomicU64::new(0));
                let timed = (probe == Probe::Traced).then(|| spans.clone());
                let pid = sim.spawn(Box::new(ProbedWorkload::new(w, issued.clone(), timed)));
                Spawned {
                    pid,
                    issued: Some(issued),
                }
            }
        })
        .collect();
    let (q0, s0) = hawkeye_kernel::sched_stats::snapshot();
    // The engine checks `keep_going` at every quantum boundary, so the
    // gaps between its calls time each quantum. The first segment is the
    // spawning, the last the run's tail after its final check plus the
    // scopes' close.
    let measured = (bench == Bench::HotTouch).then(|| spawned[0].pid);
    let t_run = Instant::now();
    let mut segments_ns = vec![(t_run - t0).as_nanos() as u64];
    let mut last = t_run;
    sim.run_while(|m| {
        let now = Instant::now();
        segments_ns.push((now - last).as_nanos() as u64);
        last = now;
        measured.is_none_or(|pid| m.process(pid).is_some_and(|p| !p.is_finished()))
    });
    let run_ns = t_run.elapsed().as_nanos() as u64;
    let (q1, s1) = hawkeye_kernel::sched_stats::snapshot();
    let journal = if bench.traced() {
        hawkeye_trace::scope::end()
    } else {
        None
    };
    let registry = registry::scope::end();
    segments_ns.push(last.elapsed().as_nanos() as u64);
    // Dropping the hook hands a capturing hook's stream to its owner.
    sim.set_access_hook(None);
    SimOut {
        label: kind.label(),
        setup_ns,
        segments_ns,
        run_ns,
        sim,
        spawned,
        quanta: q1 - q0,
        skipped: s1 - s0,
        registry,
        journal,
    }
}

/// Journal round trip of one `fault_trace` iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalStats {
    /// Events retained in the journals.
    pub events: u64,
    /// Events the bounded ring overwrote.
    pub dropped: u64,
    /// Size of the serialized trace document.
    pub bytes: u64,
    /// Host ns to serialize the journals.
    pub serialize_ns: u64,
    /// Host ns to parse the document back.
    pub parse_ns: u64,
}

/// Deterministic work counts of one iteration, summed over its
/// simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Accesses executed (`ProcStats::accesses`).
    pub accesses: u64,
    /// Page faults taken.
    pub faults: u64,
    /// Accesses the workload decorators saw issued (0 when bare).
    pub issued: u64,
    /// Scheduler quanta elapsed.
    pub quanta: u64,
    /// Quanta the event-skip scheduler charged in closed form.
    pub skipped: u64,
    /// Huge-page promotions.
    pub promotions: u64,
    /// Huge-page demotions.
    pub demotions: u64,
    /// Pages the pre-zeroing daemon zeroed.
    pub prezeroed_pages: u64,
    /// Pages compaction migrated.
    pub compaction_migrated: u64,
    /// Zero pages de-duplicated.
    pub dedup_pages: u64,
    /// Bloat-recovery region scans.
    pub bloat_scans: u64,
    /// TLB page walks.
    pub walks: u64,
    /// Cycles spent in page walks.
    pub walk_cycles: u64,
    /// Multicore lock acquisitions replayed.
    pub lock_acquires: u64,
    /// Multicore CAS retries replayed.
    pub lock_retries: u64,
    /// Sum of |unhalted − attributed| cycles over every machine.
    pub residue: u64,
}

/// Span totals of one traced iteration's timed section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `on_tick` calls and ns.
    pub on_tick: (u64, u64),
    /// `on_fault` calls and ns.
    pub on_fault: (u64, u64),
    /// `next_op` calls and ns.
    pub next_op: (u64, u64),
    /// ns inside `Simulator::run` / `run_while`.
    pub run_ns: u64,
}

/// Everything one iteration reports.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host ns of each simulation's set-up.
    pub setup_ns: Vec<u64>,
    /// The timed section (spawn, run, scope close) split at every
    /// scheduler quantum, in host ns. The split is the same on every
    /// iteration of a workload and seed, since each simulates the same
    /// quanta.
    pub segments_ns: Vec<u64>,
    /// Span totals (zero unless traced).
    pub layers: LayerTimes,
    /// Deterministic work counts.
    pub counts: Counts,
    /// FNV-1a digest of every simulated statistic.
    pub digest: u64,
    /// Simulated CPU seconds of the measured process, per policy run.
    pub sim_secs: Vec<f64>,
    /// Table 4 MMU overhead of the measured process under HawkEye, in %.
    pub sim_mmu_overhead_pct: f64,
    /// Peak simulated allocated memory under HawkEye, in MiB.
    pub sim_peak_rss_mib: f64,
    /// Journal round trip (`fault_trace` only).
    pub journal: Option<JournalStats>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Iteration {
    /// Host seconds of the timed section.
    pub fn wall_s(&self) -> f64 {
        self.segments_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Linux-4KB over HawkEye simulated CPU time of the measured process.
/// `reference` is an iteration of `bench`; a workload that times no
/// baseline gets one untimed, undecorated baseline simulation here.
pub fn sim_speedup(bench: Bench, seed: u64, reference: &Iteration) -> f64 {
    let hawkeye = *reference
        .sim_secs
        .last()
        .expect("an iteration runs at least one policy");
    let baseline = match bench.policies() {
        [PolicyKind::Linux4k, ..] => reference.sim_secs[0],
        _ => {
            let out = simulate(
                bench,
                PolicyKind::Linux4k,
                Seeds::derive(seed),
                Probe::Bare,
                &Arc::default(),
                None,
            );
            let m = out.sim.machine();
            m.process(out.spawned[0].pid)
                .expect("measured pid exists")
                .cpu_time()
                .as_secs()
        }
    };
    baseline / hawkeye
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn lock_counts(reg: &Registry) -> (u64, u64) {
    let (mut acquires, mut retries) = (0, 0);
    for (_, m) in reg.machines() {
        for (k, v) in m.counters() {
            if k.starts_with("lock.core") && k.ends_with(".acquisitions") {
                acquires += v;
            } else if k.starts_with("lock.core") && k.ends_with(".cas_retries") {
                retries += v;
            }
        }
    }
    (acquires, retries)
}

/// Runs one iteration of `bench` for `seed`.
pub fn iterate(bench: Bench, seed: u64, probe: Probe) -> Iteration {
    run_iteration(bench, seed, probe, || None)
}

/// Runs one iteration, installing `hook()` as each simulation's access
/// hook.
pub fn run_iteration(
    bench: Bench,
    seed: u64,
    probe: Probe,
    mut hook: impl FnMut() -> Option<Box<dyn AccessHook>>,
) -> Iteration {
    let seeds = Seeds::derive(seed);
    let spans = Arc::new(Spans::default());
    let outs: Vec<SimOut> = bench
        .policies()
        .iter()
        .map(|&kind| simulate(bench, kind, seeds, probe, &spans, hook()))
        .collect();
    let mut it = Iteration {
        setup_ns: outs.iter().map(|o| o.setup_ns).collect(),
        segments_ns: outs
            .iter()
            .flat_map(|o| o.segments_ns.iter().copied())
            .collect(),
        layers: LayerTimes {
            on_tick: (spans.on_tick.calls(), spans.on_tick.ns()),
            on_fault: (spans.on_fault.calls(), spans.on_fault.ns()),
            next_op: (spans.next_op.calls(), spans.next_op.ns()),
            run_ns: outs.iter().map(|o| o.run_ns).sum(),
        },
        ..Iteration::default()
    };
    let mut text = String::new();
    let mut hawkeye = None;
    for o in &outs {
        let m = o.sim.machine();
        let ks = m.stats();
        let c = &mut it.counts;
        c.promotions += ks.promotions;
        c.demotions += ks.demotions;
        c.prezeroed_pages += ks.prezeroed_pages;
        c.compaction_migrated += ks.compaction_migrated;
        c.dedup_pages += ks.deduped_zero_pages;
        c.bloat_scans += ks.bloat_scans;
        c.quanta += o.quanta;
        c.skipped += o.skipped;
        c.walks += m.mmu().total_walks();
        let _ = write!(
            text,
            "{}|{ks:?}|walks={}|now={:?}",
            o.label,
            m.mmu().total_walks(),
            m.now()
        );
        for pid in m.pids() {
            let p = m.process(pid).expect("listed pid exists");
            let st = p.stats();
            let pmu = m.mmu().lifetime(pid);
            c.accesses += st.accesses;
            c.faults += st.faults;
            c.walk_cycles += (pmu.load_walk + pmu.store_walk).get();
            let _ = write!(
                text,
                "|{pid}:{st:?}:{pmu:?}:{}:{}:{:?}",
                p.is_finished(),
                p.is_oom(),
                p.finish_time()
            );
        }
        for s in &o.spawned {
            let Some(issued) = &s.issued else { continue };
            let issued = issued.load(Relaxed);
            c.issued += issued;
            let p = m.process(s.pid).expect("spawned pid exists");
            if p.is_finished() && issued != p.stats().accesses {
                it.failures.push(format!(
                    "{} pid {}: {issued} accesses issued, {} executed{}",
                    o.label,
                    s.pid,
                    p.stats().accesses,
                    if p.is_oom() { " (OOM)" } else { "" }
                ));
            }
        }
        if let Some(reg) = &o.registry {
            let (a, r) = lock_counts(reg);
            c.lock_acquires += a;
            c.lock_retries += r;
            for (id, mm) in reg.machines() {
                if mm.unhalted() != 0 && mm.residue() != 0 {
                    it.failures.push(format!(
                        "{} machine {id}: residue {}",
                        o.label,
                        mm.residue()
                    ));
                }
                c.residue += mm.residue().unsigned_abs() as u64;
            }
        }
        let p = m.process(o.spawned[0].pid).expect("measured pid exists");
        it.sim_secs.push(p.cpu_time().as_secs());
        it.sim_mmu_overhead_pct = 100.0 * m.mmu().lifetime(p.pid()).mmu_overhead();
        hawkeye = Some(m);
    }
    it.digest = fnv1a(text.as_bytes());
    it.sim_peak_rss_mib = hawkeye
        .expect("every workload runs a HawkEye policy")
        .recorder()
        .series("mem.allocated_pages")
        .and_then(|s| s.max_value())
        .unwrap_or(0.0)
        * 4096.0
        / (1024.0 * 1024.0);
    if bench.traced() {
        let journals: Vec<(String, Journal)> = outs
            .into_iter()
            .map(|o| {
                (
                    o.label.to_string(),
                    o.journal.unwrap_or(Journal {
                        records: Vec::new(),
                        dropped: 0,
                    }),
                )
            })
            .collect();
        it.journal = Some(round_trip(bench, &journals, &mut it.failures));
    }
    it
}

/// Serializes `journals` as the report pipeline does, parses the document
/// back, and checks that every retained event survived.
fn round_trip(
    bench: Bench,
    journals: &[(String, Journal)],
    failures: &mut Vec<String>,
) -> JournalStats {
    let t0 = Instant::now();
    let doc = hawkeye_bench::scenario::trace_doc_string(bench.name(), journals);
    let serialize_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let parsed = hawkeye_analyze::parse_trace(&doc);
    let parse_ns = t0.elapsed().as_nanos() as u64;
    match parsed {
        Ok(parsed) if parsed.scenarios.len() == journals.len() => {
            for (s, (name, j)) in parsed.scenarios.iter().zip(journals) {
                if s.records.len() != j.records.len() || s.dropped != j.dropped {
                    failures.push(format!(
                        "{name}: journal wrote {} events ({} dropped), parsed {} ({} dropped)",
                        j.records.len(),
                        j.dropped,
                        s.records.len(),
                        s.dropped
                    ));
                }
            }
        }
        Ok(parsed) => failures.push(format!(
            "trace document holds {} scenarios, {} written",
            parsed.scenarios.len(),
            journals.len()
        )),
        Err(e) => failures.push(format!("trace document does not parse: {e}")),
    }
    JournalStats {
        events: journals.iter().map(|(_, j)| j.records.len() as u64).sum(),
        dropped: journals.iter().map(|(_, j)| j.dropped).sum(),
        bytes: doc.len() as u64,
        serialize_ns,
        parse_ns,
    }
}

/// One page touch as the engine executed it, packed into 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Page touched.
    pub vpn: Vpn,
    /// Frame backing the page.
    pub pfn: u32,
    /// Process.
    pub pid: u16,
    /// Mapped by a huge page.
    pub huge: bool,
    /// Write access.
    pub write: bool,
}

impl Touch {
    /// Mapping size.
    pub fn size(&self) -> PageSize {
        if self.huge {
            PageSize::Huge
        } else {
            PageSize::Base
        }
    }
}

/// Touches a [`Capture`] keeps per simulation: the first 4 Mi, which on
/// every workload lie past the initial population and bound the
/// recording at 64 MiB.
pub const CAPTURE_LIMIT: usize = 1 << 22;

/// An access hook that records the first [`CAPTURE_LIMIT`] touches and,
/// when dropped, hands them to `sink`. It charges no cycles, so the
/// simulation is the one the fast path would have run (the engine's
/// differential tests pin fast path and reference path byte-identical).
pub struct Capture {
    touches: Vec<Touch>,
    sink: Arc<Mutex<Vec<Touch>>>,
}

impl Capture {
    /// A hook appending to `sink` when dropped.
    pub fn new(sink: Arc<Mutex<Vec<Touch>>>) -> Self {
        Capture {
            touches: Vec::new(),
            sink,
        }
    }
}

impl AccessHook for Capture {
    fn on_touch(
        &mut self,
        pid: u32,
        vpn: Vpn,
        pfn: Pfn,
        size: PageSize,
        write: bool,
        _walk: Cycles,
    ) -> Cycles {
        if self.touches.len() < CAPTURE_LIMIT {
            self.touches.push(Touch {
                vpn,
                pfn: u32::try_from(pfn.0).expect("simulated machines hold fewer than 2^32 frames"),
                pid: u16::try_from(pid).expect("fewer than 2^16 processes"),
                huge: size == PageSize::Huge,
                write,
            });
        }
        Cycles::ZERO
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        // A poisoned sink means the capturing thread already panicked;
        // the stream is abandoned with it.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.touches);
        }
    }
}
