//! The scenario engine: every bench target is a list of independent
//! [`Scenario`]s fanned out across cores and reassembled in submission
//! order.
//!
//! A scenario is a name plus a `Send` closure that builds and runs one
//! simulation (or any other self-contained computation) and returns its
//! result — usually a [`Row`]. [`run_scenarios`] executes the whole list
//! on the in-tree worker pool ([`crate::pool`]) and returns a [`Batch`]:
//! the results in submission order, so table output is byte-identical at
//! any worker count, plus the journals and registries recorded alongside
//! them. [`Report`] is the shared formatting tail: it prints the text
//! table every target used to hand-roll and owns the target's artifacts.
//! [`TargetRun`] wraps a built report with its host timing and scheduler
//! quanta, and [`TargetRun::write_in`] writes all of it to disk — the
//! JSON summary, trace journal, telemetry document and wall-clock
//! sidecar are pure functions of that one value.

use crate::json::{self, Json};
use crate::pool::{self, Job};
use crate::RunOutcome;
use hawkeye_kernel::{sched_stats, Simulator};
use hawkeye_metrics::{registry, Registry, Subsystem};
use hawkeye_trace::{scope, Journal};
use std::path::Path;
use std::time::Instant;

/// How a bench target runs: its pool worker count and whether its
/// scenarios record event journals. Binaries read both from the
/// environment (`HAWKEYE_BENCH_THREADS`, `HAWKEYE_TRACE`); the report
/// pipeline and tests pass them explicitly.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Pool workers for the scenario engine.
    pub threads: usize,
    /// Record one event journal per scenario for `<target>.trace.json`.
    pub trace: bool,
}

/// One independent unit of a bench target: a named closure producing a
/// result on a worker thread.
///
/// # Examples
///
/// Results come back in submission order regardless of worker count,
/// which is the whole byte-determinism story:
///
/// ```
/// use hawkeye_bench::{run_scenarios, Scenario};
///
/// let scenarios: Vec<Scenario<u64>> =
///     (0..4u64).map(|i| Scenario::new(format!("square {i}"), move || i * i)).collect();
/// assert_eq!(run_scenarios(scenarios, 2, false).results, vec![0, 1, 4, 9]);
/// ```
pub struct Scenario<T> {
    name: String,
    job: Job<T>,
}

impl<T: Send> Scenario<T> {
    /// A scenario from any `Send` closure.
    pub fn new(name: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        Scenario {
            name: name.into(),
            job: Box::new(job),
        }
    }

    /// The standard single-simulation shape: `build` returns a fully-built
    /// [`Simulator`] with the measured workload spawned (its pid); the
    /// engine runs it to completion and hands the [`RunOutcome`] to
    /// `format`.
    pub fn sim(
        name: impl Into<String>,
        build: impl FnOnce() -> (Simulator, u32) + Send + 'static,
        format: impl FnOnce(RunOutcome) -> T + Send + 'static,
    ) -> Self {
        Scenario::new(name, move || {
            let (mut sim, pid) = build();
            sim.run();
            format(RunOutcome { sim, pid })
        })
    }

    /// The scenario's name (diagnostics; results are matched by order,
    /// not name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the scenario inline on the current thread.
    pub fn run(self) -> T {
        (self.job)()
    }
}

/// One engine run's owned output, everything in submission order.
pub struct Batch<T> {
    /// The scenarios' results.
    pub results: Vec<T>,
    /// `(scenario name, journal)` per scenario; empty unless traced.
    pub journals: Vec<(String, Journal)>,
    /// `(scenario name, cycle-attribution registry)` per scenario.
    pub registries: Vec<(String, Registry)>,
}

/// Runs scenarios on `threads` workers and returns their [`Batch`].
/// Wall-clock goes to stderr so stdout stays byte-identical across worker
/// counts.
///
/// Every scenario records a cycle-attribution registry (the registry's
/// disabled-path guarantee means it cannot perturb the simulation); with
/// `trace` on, each also records an event journal.
pub fn run_scenarios<T: Send + 'static>(
    scenarios: Vec<Scenario<T>>,
    threads: usize,
    trace: bool,
) -> Batch<T> {
    let n = scenarios.len();
    let t0 = Instant::now();
    // Each job runs start-to-finish on one worker thread, so thread-local
    // scopes around it capture exactly that scenario's events and charges;
    // `run_ordered` brings everything back in submission order with the
    // results. The registry scope is always on — it never perturbs the
    // simulation (the drift test pins this) and feeds the summary's
    // `cycles` section; the trace scope costs a journal allocation per
    // scenario and stays opt-in.
    type Instrumented<T> = (T, Option<Journal>, Option<Registry>);
    let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
    let jobs: Vec<Job<Instrumented<T>>> = scenarios
        .into_iter()
        .map(|s| {
            let job = s.job;
            Box::new(move || {
                registry::scope::begin();
                if trace {
                    scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
                }
                let result = job();
                let journal = if trace { scope::end() } else { None };
                let mut reg = registry::scope::end();
                // Ring-buffer overflow must not stay silent: surface the
                // drop count as a registry counter (machine 0 = the
                // scenario's first machine) so it reaches the summary's
                // `cycles` section and REPORT.md can warn loudly.
                if let (Some(j), Some(r)) = (journal.as_ref(), reg.as_mut()) {
                    if j.dropped > 0 {
                        r.machine_entry(0).add("trace.dropped_events", j.dropped);
                    }
                }
                (result, journal, reg)
            }) as Job<Instrumented<T>>
        })
        .collect();
    let mut batch = Batch {
        results: Vec::with_capacity(n),
        journals: Vec::new(),
        registries: Vec::new(),
    };
    for (name, (result, journal, reg)) in names.into_iter().zip(pool::run_ordered(jobs, threads)) {
        batch.results.push(result);
        if let Some(j) = journal {
            batch.journals.push((name.clone(), j));
        }
        if let Some(r) = reg {
            batch.registries.push((name, r));
        }
    }
    eprintln!(
        "[scenario-engine] {n} scenario(s) on {} worker(s) in {:.2}s",
        threads.min(n.max(1)),
        t0.elapsed().as_secs_f64(),
    );
    batch
}

/// Serializes the `.trace.json` document for one target straight into a
/// `String` — byte-for-byte what [`trace_json`] + [`Json::write_into`]
/// produce, without materializing a [`Json`] tree first. Journals run to
/// millions of events; the intermediate tree costs ~10 heap allocations
/// per event (a `Vec` of pairs plus owned key strings), which dominates
/// the artifact dump on fault-heavy targets. A test pins the two paths
/// byte-identical across every event kind.
pub fn trace_doc_string(target: &str, journals: &[(String, Journal)]) -> String {
    // ~95 bytes/event across the suite's journals; oversizing slightly
    // avoids a late doubling of a hundred-megabyte buffer.
    let events: usize = journals.iter().map(|(_, j)| j.records.len()).sum();
    let mut out = String::with_capacity(128 * events + 1024);
    out.push_str("{\"target\":");
    json::escape_into(target, &mut out);
    out.push_str(",\"scenarios\":[");
    for (i, (name, journal)) in journals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::escape_into(name, &mut out);
        out.push_str(",\"dropped\":");
        json::num_into(journal.dropped as f64, &mut out);
        out.push_str(",\"events\":[");
        for (j, r) in journal.records.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"t\":");
            json::num_into(r.at.get() as f64, &mut out);
            out.push_str(",\"pid\":");
            json::num_into(r.pid as f64, &mut out);
            out.push_str(",\"machine\":");
            json::num_into(r.machine as f64, &mut out);
            out.push_str(",\"kind\":");
            json::escape_into(r.event.kind(), &mut out);
            for (k, v) in r.event.fields() {
                out.push(',');
                json::escape_into(k, &mut out);
                out.push(':');
                json::num_into(v as f64, &mut out);
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The `.trace.json` document for one target: every scenario's journal in
/// submission order, each event flattened to `{t, pid, machine, kind,
/// <payload fields>}`.
pub fn trace_json(target: &str, journals: &[(String, Journal)]) -> Json {
    let scenarios = journals
        .iter()
        .map(|(name, journal)| {
            let events = journal
                .records
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("t", Json::int(r.at.get())),
                        ("pid", Json::int(r.pid as u64)),
                        ("machine", Json::int(r.machine as u64)),
                        ("kind", Json::str(r.event.kind())),
                    ];
                    for (k, v) in r.event.fields() {
                        fields.push((k, Json::int(v)));
                    }
                    Json::obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("dropped", Json::int(journal.dropped)),
                ("events", Json::Arr(events)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("target", Json::str(target)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// The `cycles` section of a JSON summary: for every scenario, each
/// machine's exact cycle attribution — `CPU_CLK_UNHALTED`, the residue it
/// leaves after subtracting the CPU ledger (`null` when the machine never
/// recorded unhalted cycles, e.g. the virtualization host), both ledgers
/// by subsystem, plus non-cycle counters, gauges, and histogram
/// percentiles. Deterministic: registries arrive in submission order and
/// every map inside them iterates in key order.
pub fn cycles_json(snapshots: &[(String, Registry)]) -> Json {
    let scenarios = snapshots
        .iter()
        .map(|(name, reg)| {
            let machines = reg
                .machines()
                .map(|(id, m)| {
                    let ledger = |keyed: &dyn Fn(Subsystem) -> u64| {
                        Json::obj(
                            Subsystem::ALL
                                .iter()
                                .map(|s| (s.name(), Json::int(keyed(*s))))
                                .collect(),
                        )
                    };
                    let counters: Vec<(&str, Json)> = m
                        .counters()
                        .filter(|(k, _)| !k.starts_with("cycles."))
                        .map(|(k, v)| (k, Json::int(v)))
                        .collect();
                    let gauges: Vec<(&str, Json)> =
                        m.gauges().map(|(k, v)| (k, Json::num(v))).collect();
                    let hists: Vec<(&str, Json)> = m
                        .hists()
                        .map(|(k, h)| {
                            (
                                k,
                                Json::obj(vec![
                                    ("count", Json::int(h.count())),
                                    ("mean", Json::int(h.mean())),
                                    ("p50", Json::int(h.percentile(50.0))),
                                    ("p90", Json::int(h.percentile(90.0))),
                                    ("p99", Json::int(h.percentile(99.0))),
                                    ("max", Json::int(h.max())),
                                ]),
                            )
                        })
                        .collect();
                    let residue = if m.unhalted() == 0 {
                        Json::Null
                    } else {
                        Json::num(m.residue() as f64)
                    };
                    Json::obj(vec![
                        ("machine", Json::int(id as u64)),
                        ("unhalted", Json::int(m.unhalted())),
                        ("residue", residue),
                        ("cpu", ledger(&|s| m.cpu_cycles(s))),
                        ("daemon", ledger(&|s| m.daemon_cycles(s))),
                        (
                            "counters",
                            Json::Obj(
                                counters
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), v))
                                    .collect(),
                            ),
                        ),
                        (
                            "gauges",
                            Json::Obj(
                                gauges
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), v))
                                    .collect(),
                            ),
                        ),
                        (
                            "hist",
                            Json::Obj(hists.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
                        ),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("scenario", Json::str(name.clone())),
                ("machines", Json::Arr(machines)),
            ])
        })
        .collect();
    Json::Arr(scenarios)
}

/// One table row produced by a scenario: formatted cells, headline
/// numbers for the JSON summary, and optional free-text blocks (time
/// series printouts) emitted before the table.
pub struct Row {
    /// Table cells, in column order.
    pub cells: Vec<String>,
    /// Headline numbers for `target/bench-results/<target>.json`.
    pub json: Json,
    /// Extra text printed (in row order) above the table.
    pub lines: Vec<String>,
}

impl Row {
    /// A row with cells only.
    pub fn new(cells: Vec<String>) -> Self {
        Row {
            cells,
            json: Json::obj(vec![]),
            lines: Vec::new(),
        }
    }

    /// Attaches the JSON summary object.
    pub fn with_json(mut self, json: Json) -> Self {
        self.json = json;
        self
    }

    /// Appends a free-text block.
    pub fn line(mut self, line: impl Into<String>) -> Self {
        self.lines.push(line.into());
        self
    }
}

/// The shared formatting tail of a bench target: collects [`Row`]s,
/// renders free-text blocks + the aligned table + footnotes and the JSON
/// summary, and owns every other artifact the target's run produced.
pub struct Report {
    target: &'static str,
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Row>,
    footers: Vec<String>,
    /// `(scenario name, journal)` for `<target>.trace.json`, in a
    /// deterministic order; empty when nothing was traced.
    pub journals: Vec<(String, Journal)>,
    /// `(scenario name, registry)` for the summary's `cycles` section.
    pub registries: Vec<(String, Registry)>,
    /// The serialized `<target>.obs.json` telemetry document, when the
    /// target ran with telemetry on.
    pub obs_doc: Option<String>,
}

impl Report {
    /// A report for bench target `target` (the JSON file stem). Empty
    /// `columns` suppresses the table (series-only figures).
    pub fn new(target: &'static str, title: impl Into<String>, columns: Vec<&'static str>) -> Self {
        Report {
            target,
            title: title.into(),
            columns,
            rows: Vec::new(),
            footers: Vec::new(),
            journals: Vec::new(),
            registries: Vec::new(),
            obs_doc: None,
        }
    }

    /// Takes over a batch's journals and registries (appended after any
    /// already held) and returns its results for the caller to format.
    pub fn absorb<T>(&mut self, batch: Batch<T>) -> Vec<T> {
        self.journals.extend(batch.journals);
        self.registries.extend(batch.registries);
        batch.results
    }

    /// Appends one row.
    pub fn add(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends rows in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.rows.extend(rows);
    }

    /// Appends a footnote line printed after the table (paper context).
    pub fn footer(&mut self, line: impl Into<String>) {
        self.footers.push(line.into());
    }

    /// The collected rows, in insertion order (tests assert on cells).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders the full stdout text: free-text blocks, table, footers.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for block in &row.lines {
                out.push_str(block);
                if !block.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
        if !self.columns.is_empty() {
            let mut t = hawkeye_metrics::TextTable::new(self.columns.clone())
                .with_title(self.title.clone());
            for row in &self.rows {
                t.row(row.cells.clone());
            }
            out.push_str(&t.to_string());
        }
        for f in &self.footers {
            out.push_str(f);
            out.push('\n');
        }
        out
    }

    /// The machine-readable summary: target, title, and each row's
    /// headline numbers in row order.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("target", Json::str(self.target)),
            ("title", Json::str(self.title.clone())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| r.json.clone()).collect()),
            ),
        ])
    }
}

/// One target run's owned result: the [`Report`] with all of its
/// artifacts, the host seconds its build took, and the scheduler quanta
/// its simulations ran.
pub struct TargetRun {
    /// The built report (not yet printed or persisted).
    pub report: Report,
    /// Host wall-clock seconds spent building the report.
    pub engine_secs: f64,
    /// Scheduler quanta elapsed across the run's simulations.
    pub quanta_total: u64,
    /// Quanta the event-skip scheduler charged in closed form.
    pub quanta_skipped: u64,
}

impl TargetRun {
    /// Runs `build` on this thread, timing it and counting the scheduler
    /// quanta of every simulation it runs or submits to the pool
    /// ([`sched_stats`] is thread-scoped, so concurrent runs never mix).
    pub fn measure(build: impl FnOnce() -> Report) -> TargetRun {
        let (t0, s0) = sched_stats::snapshot();
        let start = Instant::now();
        let report = build();
        let engine_secs = start.elapsed().as_secs_f64();
        let (t1, s1) = sched_stats::snapshot();
        TargetRun {
            report,
            engine_secs,
            quanta_total: t1 - t0,
            quanta_skipped: s1 - s0,
        }
    }

    /// Writes the run's artifacts under `dir`: `<target>.json` (`summary`
    /// plus a `cycles` section from the report's registries),
    /// `<target>.trace.json` when it holds journals, `<target>.obs.json`
    /// when it holds a telemetry document, and last the
    /// `<target>.wallclock.json` sidecar. Returns the host phases the
    /// sidecar records: `engine`, `summary_write`, and `trace_write` when
    /// a journal was written. Outcomes are reported on stderr only.
    ///
    /// `summary` is normally [`Report::json`]; multi-section targets
    /// (ablations) assemble their own.
    pub fn write_in(&self, dir: &Path, summary: &Json) -> Vec<(&'static str, f64)> {
        let r = &self.report;
        let mut phases = vec![("engine", self.engine_secs)];
        let t0 = Instant::now();
        let mut summary = summary.clone();
        if !r.registries.is_empty() {
            summary.push("cycles", cycles_json(&r.registries));
        }
        match json::write_results_in(dir, r.target, &summary) {
            Ok(path) => eprintln!("[scenario-engine] wrote {}", path.display()),
            Err(e) => eprintln!("[scenario-engine] could not write {}.json: {e}", r.target),
        }
        phases.push(("summary_write", t0.elapsed().as_secs_f64()));
        if !r.journals.is_empty() {
            let t0 = Instant::now();
            write_doc(
                dir,
                &format!("{}.trace", r.target),
                trace_doc_string(r.target, &r.journals),
            );
            phases.push(("trace_write", t0.elapsed().as_secs_f64()));
        }
        if let Some(doc) = &r.obs_doc {
            write_doc(dir, &format!("{}.obs", r.target), doc.clone());
        }
        crate::wallclock::write_in(
            dir,
            r.target,
            &phases,
            self.quanta_total,
            self.quanta_skipped,
        );
        phases
    }

    /// Prints the report text to stdout and writes every artifact under
    /// [`json::results_dir`] — a standalone bench binary's whole tail.
    pub fn finish(self) {
        print!("{}", self.report.text());
        self.write_in(&json::results_dir(), &self.report.json());
    }
}

/// Writes `<dir>/<stem>.json` with a trailing newline, reporting the
/// outcome on stderr.
fn write_doc(dir: &Path, stem: &str, mut doc: String) {
    if !doc.ends_with('\n') {
        doc.push('\n');
    }
    let path = dir.join(format!("{stem}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("[scenario-engine] wrote {}", path.display()),
        Err(e) => eprintln!("[scenario-engine] could not write {stem}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use hawkeye_workloads::Spinup;

    /// Compile-time check: scenarios must be movable to workers.
    #[allow(dead_code)]
    fn assert_send<T: Send>() {}

    #[test]
    fn scenario_types_are_send() {
        assert_send::<Scenario<Row>>();
        assert_send::<Simulator>();
    }

    #[test]
    fn streamed_trace_doc_matches_tree_serialization() {
        use hawkeye_metrics::Cycles;
        use hawkeye_trace::{Journal, TraceEvent, TraceRecord};
        // One record per event kind, plus name characters that need
        // escaping — the streaming writer must reproduce the tree
        // serialization byte for byte.
        let events = vec![
            TraceEvent::Fault {
                vpn: 7,
                huge: true,
                cow: false,
                cycles: 6095,
            },
            TraceEvent::Promote {
                hvpn: 3,
                copied: 512,
                filled: 0,
                cycles: 1,
            },
            TraceEvent::Demote { hvpn: 3, cycles: 2 },
            TraceEvent::Compact {
                migrated: 10,
                huge_blocks: 2,
            },
            TraceEvent::PreZero { pages: 512 },
            TraceEvent::Dedup {
                hvpn: 4,
                zero_pages: 100,
                demoted: true,
                cycles: 9,
            },
            TraceEvent::Oom,
            TraceEvent::QuantumEnd {
                load_walk: 1,
                store_walk: 2,
                unhalted: 3,
                walks: 4,
            },
            TraceEvent::CycleSample {
                walk: 1,
                fault: 2,
                zero: 3,
                copy: 4,
                scan: 5,
                compact: 6,
                dedup: 7,
                idle: 8,
                unhalted: 36,
                daemon: 9,
            },
            TraceEvent::Contention {
                core: 3,
                role: 1,
                acquisitions: 250,
                cas_retries: 17,
                stall_cycles: 42_000,
            },
            TraceEvent::SloBreach {
                rule: 0,
                epoch: 3,
                cohort: 1,
            },
            TraceEvent::SloRecover {
                rule: 0,
                epoch: 6,
                cohort: 1,
            },
        ];
        let records = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                at: Cycles::new(i as u64 * 1_000_000_007),
                pid: i as u32,
                machine: (i % 2) as u32,
                event,
            })
            .collect();
        let journals = vec![
            (
                "quoted \"name\"\n".to_string(),
                Journal {
                    records,
                    dropped: 3,
                },
            ),
            (
                "empty".to_string(),
                Journal {
                    records: Vec::new(),
                    dropped: 0,
                },
            ),
        ];
        let streamed = trace_doc_string("demo \\target", &journals);
        assert_eq!(streamed, trace_json("demo \\target", &journals).to_string());
    }

    #[test]
    fn sim_scenarios_run_and_format() {
        let s = Scenario::sim(
            "spinup",
            || {
                let mut sim =
                    Simulator::new(PolicyKind::Linux4k.config(64), PolicyKind::Linux4k.build());
                let pid = sim.spawn(Box::new(Spinup::new("s", 512)));
                (sim, pid)
            },
            |out| out.faults(),
        );
        assert_eq!(s.name(), "spinup");
        assert_eq!(s.run(), 512);
    }

    #[test]
    fn ordered_results_match_serial_at_any_worker_count() {
        let build = || -> Vec<Scenario<u64>> {
            (0..6)
                .map(|i| {
                    Scenario::sim(
                        format!("s{i}"),
                        move || {
                            let mut sim = Simulator::new(
                                PolicyKind::Linux4k.config(64),
                                PolicyKind::Linux4k.build(),
                            );
                            let pid = sim.spawn(Box::new(Spinup::new("s", 128 * (i + 1))));
                            (sim, pid)
                        },
                        |out| out.faults(),
                    )
                })
                .collect()
        };
        let serial = run_scenarios(build(), 1, false).results;
        let parallel = run_scenarios(build(), 4, false).results;
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![128, 256, 384, 512, 640, 768]);
    }

    #[test]
    fn target_run_writes_every_owned_artifact() {
        let dir = std::env::temp_dir().join(format!("hawkeye-bench-write-{}", std::process::id()));
        let run = TargetRun::measure(|| {
            let mut report = Report::new("demo", "Demo", vec!["faults"]);
            let spin = Scenario::sim(
                "spin",
                || {
                    let mut sim =
                        Simulator::new(PolicyKind::Linux4k.config(64), PolicyKind::Linux4k.build());
                    let pid = sim.spawn(Box::new(Spinup::new("s", 512)));
                    (sim, pid)
                },
                |out| Row::new(vec![out.faults().to_string()]),
            );
            let rows = report.absorb(run_scenarios(vec![spin], 1, true));
            report.extend(rows);
            report.obs_doc = Some(r#"{"target":"demo"}"#.to_string());
            report
        });
        assert!(run.quanta_total > 0, "the simulation ran quanta");
        let phases = run.write_in(&dir, &run.report.json());
        let names: Vec<&str> = phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(names, ["engine", "summary_write", "trace_write"]);
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("artifact written");
        let summary = read("demo.json");
        assert!(summary.starts_with(
            r#"{"target":"demo","title":"Demo","rows":[{}],"cycles":[{"scenario":"spin""#
        ));
        assert!(
            read("demo.trace.json").starts_with(r#"{"target":"demo","scenarios":[{"name":"spin""#)
        );
        assert_eq!(read("demo.obs.json"), "{\"target\":\"demo\"}\n");
        let quanta = format!("\"quanta_total\":{}", run.quanta_total);
        assert!(read("demo.wallclock.json").contains(&quanta));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn report_renders_blocks_table_and_json() {
        let mut r = Report::new("demo", "Demo", vec!["a", "b"]);
        r.add(
            Row::new(vec!["1".into(), "2".into()])
                .with_json(Json::obj(vec![("a", Json::int(1))]))
                .line("series block"),
        );
        r.footer("(note)");
        let text = r.text();
        let series = text.find("series block").unwrap();
        let table = text.find("== Demo ==").unwrap();
        let note = text.find("(note)").unwrap();
        assert!(series < table && table < note);
        assert_eq!(
            r.json().to_string(),
            r#"{"target":"demo","title":"Demo","rows":[{"a":1}]}"#
        );
    }

    #[test]
    fn empty_columns_suppress_table() {
        let mut r = Report::new("demo", "Demo", vec![]);
        r.add(Row::new(vec![]).line("only text"));
        assert_eq!(r.text(), "only text\n");
    }
}
