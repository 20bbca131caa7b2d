//! Ad-hoc wall-clock harness for the simulator's hot path.
//!
//! Replicates the fig8 "sensitive + lightly-loaded Redis" pair (the
//! suite's most touch-bound shape) under the same scopes the report
//! suite uses, so optimizations can be timed in isolation:
//!
//! ```text
//! cargo run --release -p hawkeye-bench --example hotpath_prof [bare|scoped|micro]
//! ```
//!
//! `micro` times single components instead: page-table and MMU accesses,
//! then one charge into each metric/trace sink path with scopes open.

use hawkeye_bench::PolicyKind;
use hawkeye_kernel::Simulator;
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{HotspotWorkload, RedisKv};
use std::time::Instant;

fn run_pair(kind: PolicyKind) -> f64 {
    let mut cfg = kind.config(768);
    cfg.max_time = Cycles::from_secs(400.0);
    let mut sim = Simulator::new(cfg, kind.build());
    sim.machine_mut().fragment(1.0, 0.55, 7);
    let sens_pid = sim.spawn(Box::new(HotspotWorkload::graph500(56, 4500)));
    sim.spawn(Box::new(RedisKv::lightly_loaded(24 * 1024, 100_000_000, 23)));
    sim.run_while(|m| m.process(sens_pid).map(|p| !p.is_finished()).unwrap_or(false));
    sim.machine()
        .process(sens_pid)
        .and_then(|p| p.finish_time())
        .unwrap_or(sim.machine().now())
        .as_secs()
}

/// Component timings: page-table access, MMU model, PMU recording.
fn micro() {
    use hawkeye_mem::rng::SplitMix64;
    use hawkeye_mem::Pfn;
    use hawkeye_vm::{PageSize, PageTable, Vpn};

    const PAGES: u64 = 56 * 512;
    const N: u64 = 10_000_000;
    let mut rng = SplitMix64::new(7);
    let vpns: Vec<Vpn> = (0..N).map(|_| Vpn(rng.below(PAGES))).collect();

    let mut pt = PageTable::new();
    for v in 0..PAGES {
        pt.map_base(Vpn(v), Pfn(v), false).unwrap();
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in &vpns {
        acc = acc.wrapping_add(pt.access(*v, false).unwrap().pfn.0);
    }
    println!("pt.access (base): {:.1} ns/op ({acc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let mut pth = PageTable::new();
    for h in 0..56u64 {
        pth.map_huge(hawkeye_vm::Hvpn(h), Pfn(h * 512)).unwrap();
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in &vpns {
        acc = acc.wrapping_add(pth.access(*v, false).unwrap().pfn.0);
    }
    println!("pt.access (huge): {:.1} ns/op ({acc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let mut mmu = hawkeye_tlb::Mmu::new(hawkeye_tlb::TlbConfig::default());
    let t0 = Instant::now();
    let mut cyc = 0u64;
    for v in &vpns {
        cyc = cyc.wrapping_add(mmu.access(1, *v, PageSize::Base, false).cycles.get());
    }
    println!("mmu.access (base): {:.1} ns/op ({cyc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let t0 = Instant::now();
    let mut cyc = 0u64;
    for v in &vpns {
        cyc = cyc.wrapping_add(mmu.access(1, *v, PageSize::Huge, false).cycles.get());
    }
    println!("mmu.access (huge): {:.1} ns/op ({cyc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    sinks();
}

/// Times `N` calls of `op(i)` and prints the mean.
fn per_op(label: &str, mut op: impl FnMut(u64)) {
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        op(std::hint::black_box(i));
    }
    println!("{label}: {:.1} ns/op", t0.elapsed().as_nanos() as f64 / N as f64);
}

/// Sink costs per charge with a registry scope and a trace scope open,
/// as in a report run: the by-name add cold callers use, the three
/// registry paths a fault could take (handle add, ledger charge, handle
/// observe), the whole set of charges one synchronously-zeroed base
/// fault makes — published per fault, and batched the way `Machine` and
/// `PhysMemory` batch them, with one flush per 390 faults (a
/// `fault_trace` quantum's worth) — and one journal emit into a ring that
/// fills after its first 65,536 records.
fn sinks() {
    use hawkeye_metrics::{registry, LogHistogram, MetricsSink, Subsystem};
    use hawkeye_trace::{TraceEvent, TraceSink};

    registry::scope::begin();
    hawkeye_trace::scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
    let metrics = MetricsSink::attach_current();
    let trace = TraceSink::attach_current();
    per_op("metrics.add (by name)", |i| metrics.add("bench.by_name", i | 1));
    let counter = metrics.counter("bench.handle");
    per_op("metrics.add (handle)", |i| counter.add(i | 1));
    per_op("metrics.charge_cpu (ledger slot)", |i| {
        metrics.charge_cpu(Subsystem::Fault, Cycles::new(i | 1))
    });
    let hist = metrics.histogram("bench.hist");
    per_op("metrics.observe (handle)", |i| hist.observe(i & 0xffff));
    let misses = metrics.counter("bench.misses");
    let fault_cycles = metrics.histogram("bench.fault_cycles");
    per_op("fault charge set, per fault", |i| {
        metrics.charge_cpu(Subsystem::Fault, Cycles::new(3000 + (i & 0xff)));
        metrics.charge_cpu(Subsystem::Zero, Cycles::new(5000));
        misses.add(1);
        fault_cycles.observe(8000 + (i & 0xff));
    });
    let (mut fault, mut zero, mut missed, mut batch) = (0u64, 0u64, 0u64, LogHistogram::new());
    per_op("fault charge set, batched", |i| {
        fault += 3000 + (i & 0xff);
        zero += 5000;
        missed += 1;
        batch.observe(8000 + (i & 0xff));
        if i % 390 == 389 {
            metrics.charge_cpu(Subsystem::Fault, Cycles::new(std::mem::take(&mut fault)));
            metrics.charge_cpu(Subsystem::Zero, Cycles::new(std::mem::take(&mut zero)));
            misses.add(std::mem::take(&mut missed));
            fault_cycles.merge(&std::mem::take(&mut batch));
        }
    });
    per_op("trace.emit (full ring)", |i| {
        trace.emit(1, TraceEvent::Fault { vpn: i, huge: false, cow: false, cycles: 8119 })
    });
    let journal = hawkeye_trace::scope::end().expect("trace scope open");
    let reg = registry::scope::end().expect("registry scope open");
    let m = reg.machine(0).expect("sink attached");
    println!(
        "  (sums: {:x} {:x} {:x}, {} observed, {} journaled + {} dropped)",
        m.counter("bench.by_name"),
        m.counter("bench.handle"),
        m.cpu_cycles(Subsystem::Fault),
        m.hist("bench.hist").map_or(0, |h| h.count()),
        journal.records.len(),
        journal.dropped,
    );
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "scoped".into());
    if mode == "micro" {
        micro();
        return;
    }
    let scoped = mode != "bare";
    for kind in [PolicyKind::Linux4k, PolicyKind::HawkEyePmu] {
        let t0 = Instant::now();
        let finish;
        if scoped {
            hawkeye_metrics::registry::scope::begin();
            hawkeye_trace::scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
            finish = run_pair(kind);
            let _ = hawkeye_trace::scope::end();
            let _ = hawkeye_metrics::registry::scope::end();
        } else {
            finish = run_pair(kind);
        }
        println!("{kind:?} ({mode}): host {:.2?}, sim finish {finish:.3}s", t0.elapsed());
    }
}
