//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the simulator benchmark as a closed loop: one
//! client thread repeats a fixed, seeded iteration until `--seconds` of
//! host time have passed (fractions allowed), after one untimed warm-up
//! iteration. `run.py` builds this binary and combines the runs of
//! several processes into one result. With
//! `--trace 0` it reports the end-to-end metrics, taken from iterations
//! without timing spans; with `--trace 1` it interleaves traced and
//! untraced iterations and reports the per-layer metrics. The last line
//! of standard output is one JSON object with the result.

use hawkeye_perfbench::layers;
use hawkeye_perfbench::scenarios::{iterate, sim_speedup, Bench, Iteration, Probe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed iterations a run makes at the least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 2;
/// Buddy-allocator operations the stand-alone churn times.
const BUDDY_OPS: u64 = 2_000_000;
/// Repetitions of each stand-alone layer timing (the fastest is kept).
const LAYER_REPS: usize = 3;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
                bench = Some(Bench::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("--seconds {value:?}: expected a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Attempted and failed iterations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one iteration, counting it as failed if it panics, fails one
    /// of its own output checks, or simulates anything other than the
    /// reference digest.
    fn run(&mut self, reference: Option<u64>, f: impl FnOnce() -> Iteration) -> Option<Iteration> {
        self.attempted += 1;
        let Ok(mut it) = catch_unwind(AssertUnwindSafe(f)) else {
            self.failed += 1;
            eprintln!("iteration {} panicked", self.attempted);
            return None;
        };
        if let Some(d) = reference.filter(|d| *d != it.digest) {
            it.failures.push(format!(
                "sim_digest {:016x} differs from the first run's {d:016x}",
                it.digest
            ));
        }
        if !it.failures.is_empty() {
            self.failed += 1;
            for f in &it.failures {
                eprintln!("iteration {} failed: {f}", self.attempted);
            }
        }
        Some(it)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Host seconds of the fixed work that `segments` splits every iteration
/// into, each segment taken at its fastest across `its` and summed. The
/// host is shared, and contention only ever adds time: a burst slows the
/// segments it overlaps in one iteration and drops out, without casting
/// out the rest of that iteration. Iterations split differently from
/// `reference` simulated something else (their digest check failed) and
/// are left out.
fn floor_s(
    reference: &Iteration,
    its: &[Iteration],
    segments: impl Fn(&Iteration) -> &[u64],
) -> f64 {
    let n = segments(reference).len();
    let alike: Vec<&[u64]> = its.iter().map(&segments).filter(|s| s.len() == n).collect();
    (0..n)
        .map(|k| {
            alike
                .iter()
                .map(|s| s[k])
                .min()
                .unwrap_or(segments(reference)[k])
        })
        .sum::<u64>() as f64
        * 1e-9
}

/// The iteration whose wall time is the median (the lower one of an even
/// count), so its layer times add up to the wall time it reports.
fn median_iteration(its: &[Iteration]) -> &Iteration {
    let mut order: Vec<&Iteration> = its.iter().collect();
    order.sort_by(|a, b| a.wall_s().total_cmp(&b.wall_s()));
    order[(order.len() - 1) / 2]
}

/// Host peak resident memory of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(
    bench: Bench,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    reference: &Iteration,
) -> Vec<Metric> {
    let mut its = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || its.len() < MIN_ITERATIONS {
        its.extend(tally.run(Some(reference.digest), || {
            iterate(bench, seed, Probe::Counted)
        }));
        if its.is_empty() && tally.attempted as usize >= MIN_ITERATIONS {
            break;
        }
    }
    if its.is_empty() {
        return Vec::new();
    }
    // Read before `sim_speedup` may boot an extra baseline machine.
    let peak_rss = peak_rss_mib();
    let wall_s = floor_s(reference, &its, |i| &i.segments_ns);
    vec![
        ("wall_s", wall_s, "s"),
        (
            "touches_per_s",
            reference.counts.accesses as f64 / wall_s,
            "1/s",
        ),
        ("setup_s", floor_s(reference, &its, |i| &i.setup_ns), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("sim_speedup", sim_speedup(bench, seed, reference), "x"),
        ("sim_mmu_overhead_pct", reference.sim_mmu_overhead_pct, "%"),
        ("sim_peak_rss_mib", reference.sim_peak_rss_mib, "MiB"),
    ]
}

fn per_layer(
    bench: Bench,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    reference: &Iteration,
) -> Vec<Metric> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < budget || plain.len() < MIN_ITERATIONS {
        let p = tally.run(Some(reference.digest), || {
            iterate(bench, seed, Probe::Counted)
        });
        let t = tally.run(Some(reference.digest), || {
            iterate(bench, seed, Probe::Traced)
        });
        if let (Some(p), Some(t)) = (p, t) {
            plain.push(p);
            traced.push(t);
        }
        if plain.is_empty() && tally.attempted as usize >= 2 * MIN_ITERATIONS {
            return Vec::new();
        }
    }
    let streams = layers::capture(bench, seed);
    let replay_ops: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let reps = |f: &dyn Fn() -> f64| (0..LAYER_REPS).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mmu_ns = reps(&|| layers::mmu_access_ns(&streams));
    let pt_ns = reps(&|| layers::pt_access_ns(&streams));
    drop(streams);
    let buddy_ns = reps(&|| layers::buddy_ns_per_op(bench, seed, BUDDY_OPS));
    let compact_ns = reps(&|| layers::compact_ns_per_page(bench, seed));

    let it = median_iteration(&traced);
    let l = &it.layers;
    let c = &it.counts;
    let wall_ns = it.wall_s() * 1e9;
    let engine_ns = l.run_ns as f64 - (l.on_tick.1 + l.on_fault.1 + l.next_op.1) as f64;
    // Each traced iteration runs right after an untraced one; pairing
    // them keeps slow drifts in host speed out of the ratio.
    let overhead = median(
        plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| t.wall_s() / p.wall_s() - 1.0)
            .collect(),
    );
    let j = it.journal.unwrap_or_default();
    vec![
        ("policy.on_tick.calls", l.on_tick.0 as f64, "count"),
        ("policy.on_tick.self_ns", l.on_tick.1 as f64, "ns"),
        ("policy.on_fault.calls", l.on_fault.0 as f64, "count"),
        ("policy.on_fault.self_ns", l.on_fault.1 as f64, "ns"),
        ("workloads.next_op.calls", l.next_op.0 as f64, "count"),
        ("workloads.next_op.self_ns", l.next_op.1 as f64, "ns"),
        ("workloads.accesses_issued", c.issued as f64, "count"),
        ("kernel.engine_self_ns", engine_ns, "ns"),
        (
            "kernel.engine_ns_per_access",
            engine_ns / c.accesses.max(1) as f64,
            "ns",
        ),
        (
            "kernel.engine_ns_per_fault",
            engine_ns / c.faults.max(1) as f64,
            "ns",
        ),
        ("kernel.quanta", c.quanta as f64, "count"),
        (
            "kernel.skip_ratio",
            c.skipped as f64 / c.quanta.max(1) as f64,
            "ratio",
        ),
        ("kernel.promotions", c.promotions as f64, "count"),
        ("kernel.demotions", c.demotions as f64, "count"),
        ("kernel.prezeroed_pages", c.prezeroed_pages as f64, "count"),
        (
            "mem.compaction_migrated",
            c.compaction_migrated as f64,
            "count",
        ),
        ("core.dedup_pages", c.dedup_pages as f64, "count"),
        (
            "policy.dedup_yield",
            c.dedup_pages as f64 / (c.bloat_scans * 512).max(1) as f64,
            "ratio",
        ),
        ("tlb.walks", c.walks as f64, "count"),
        ("tlb.walk_cycles", c.walk_cycles as f64, "cycles"),
        ("tlb.mmu_access_ns", mmu_ns, "ns"),
        ("vm.pt_access_ns", pt_ns, "ns"),
        ("bench.replay_ops", replay_ops as f64, "count"),
        ("mem.buddy_ns_per_op", buddy_ns, "ns"),
        ("mem.compact_ns_per_page", compact_ns, "ns"),
        ("multicore.lock_acquires", c.lock_acquires as f64, "count"),
        ("multicore.lock_retries", c.lock_retries as f64, "count"),
        ("trace.events", j.events as f64, "count"),
        ("trace.dropped", j.dropped as f64, "count"),
        ("trace.journal_bytes", j.bytes as f64, "bytes"),
        ("trace.serialize_ns", j.serialize_ns as f64, "ns"),
        ("analyze.parse_ns", j.parse_ns as f64, "ns"),
        (
            "journal_ns_per_event",
            (j.serialize_ns + j.parse_ns) as f64 / j.events.max(1) as f64,
            "ns",
        ),
        ("metrics.residue", c.residue as f64, "cycles"),
        ("bench.traced_wall_ns", wall_ns, "ns"),
        ("bench.unattributed_ns", wall_ns - l.run_ns as f64, "ns"),
        ("bench.span_overhead_pct", 100.0 * overhead, "%"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    // The untimed warm-up fills caches and gives the digest every later
    // iteration must reproduce.
    let warm = tally.run(None, || iterate(args.bench, args.seed, Probe::Counted));
    let metrics = match &warm {
        Some(warm) if args.trace => per_layer(args.bench, args.seed, budget, &mut tally, warm),
        Some(warm) => end_to_end(args.bench, args.seed, budget, &mut tally, warm),
        None => Vec::new(),
    };
    if metrics.is_empty() {
        eprintln!("perfbench: no iteration of {} completed", args.bench.name());
        return ExitCode::FAILURE;
    }
    let warm = warm.expect("metrics imply a warm-up");
    println!(
        "workload {} seed {} trace {}",
        args.bench.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("sim_digest {} {:016x}", args.bench.name(), warm.digest);
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>18.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
