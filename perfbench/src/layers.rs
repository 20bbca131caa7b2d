//! Stand-alone layer timings. Each replays an exact number of operations
//! against one crate's public API, outside the engine, so a layer's cost
//! per operation is measured without the run loop around it.

use crate::scenarios::{run_iteration, Bench, Capture, Probe, Touch};
use hawkeye_kernel::{KernelConfig, Machine};
use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::{AllocPref, Allocation, Order, Pfn, HUGE_ORDER};
use hawkeye_tlb::Mmu;
use hawkeye_vm::{PageSize, PageTable};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs one iteration of `bench` with its touches recorded, and returns
/// each simulation's touch stream.
pub fn capture(bench: Bench, seed: u64) -> Vec<Vec<Touch>> {
    let mut sinks = Vec::new();
    run_iteration(bench, seed, Probe::Counted, || {
        let sink = Arc::new(Mutex::new(Vec::new()));
        sinks.push(sink.clone());
        Some(Box::new(Capture::new(sink)))
    });
    sinks
        .into_iter()
        .map(|s| std::mem::take(&mut *s.lock().expect("capture finished without panicking")))
        .collect()
}

/// Host ns per `Mmu::access` over `streams`, each on a fresh MMU
/// configured as the simulated machines are.
pub fn mmu_access_ns(streams: &[Vec<Touch>]) -> f64 {
    let (mut ns, mut ops) = (0u128, 0u64);
    for stream in streams {
        let mut mmu = Mmu::new(KernelConfig::small().tlb);
        let t0 = Instant::now();
        let mut cycles = 0u64;
        for t in stream {
            cycles = cycles.wrapping_add(
                mmu.access(t.pid as u32, t.vpn, t.size(), t.write)
                    .cycles
                    .get(),
            );
        }
        black_box(cycles);
        ns += t0.elapsed().as_nanos();
        ops += stream.len() as u64;
    }
    ns as f64 / ops.max(1) as f64
}

/// Host ns per `PageTable::access` over `streams`. Each process gets a
/// page table holding the mapping each page had when first touched (a
/// region touched both ways keeps the first); building the tables is not
/// timed.
pub fn pt_access_ns(streams: &[Vec<Touch>]) -> f64 {
    let (mut ns, mut ops) = (0u128, 0u64);
    for stream in streams {
        let mut tables: BTreeMap<u16, (PageTable, Vec<&Touch>)> = BTreeMap::new();
        for t in stream {
            let (pt, touches) = tables
                .entry(t.pid)
                .or_insert_with(|| (PageTable::new(), Vec::new()));
            if pt.translate(t.vpn).is_none() {
                // A page inside a region already mapped the other way
                // keeps that mapping.
                let pfn = t.pfn as u64;
                let _ = match t.size() {
                    PageSize::Huge => pt.map_huge(t.vpn.hvpn(), Pfn(pfn - t.vpn.huge_offset())),
                    PageSize::Base => pt.map_base(t.vpn, Pfn(pfn), false),
                };
            }
            touches.push(t);
        }
        for (pt, touches) in tables.values_mut() {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for t in touches.iter() {
                acc = acc.wrapping_add(pt.access(t.vpn, t.write).map_or(0, |tr| tr.pfn.0));
            }
            black_box(acc);
            ns += t0.elapsed().as_nanos();
            ops += touches.len() as u64;
        }
    }
    ns as f64 / ops.max(1) as f64
}

/// A machine of `bench`'s size fragmented by the standard antagonist.
fn fragmented(bench: Bench, seed: u64) -> Machine {
    let mut m = Machine::new(KernelConfig::with_mib(bench.mib()));
    m.fragment(1.0, 0.55, seed);
    m
}

/// Host ns per buddy-allocator operation: `ops` seeded allocations
/// (one in sixteen huge) and frees on a fragmented machine. A failed
/// huge allocation counts as an operation.
pub fn buddy_ns_per_op(bench: Bench, seed: u64, ops: u64) -> f64 {
    let mut m = fragmented(bench, seed);
    let pm = m.pm_mut();
    let mut rng = SplitMix64::new(seed ^ 0xb0dd);
    let mut live: Vec<Allocation> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..ops {
        if live.is_empty() || rng.below(2) == 0 {
            let order = if rng.below(16) == 0 {
                HUGE_ORDER
            } else {
                Order(0)
            };
            if let Ok(a) = pm.alloc(order, AllocPref::NonZeroed) {
                live.push(a);
            }
        } else {
            let a = live.swap_remove(rng.below(live.len() as u64) as usize);
            pm.free(a.pfn, a.order);
        }
    }
    let ns = t0.elapsed().as_nanos();
    black_box(&live);
    ns as f64 / ops.max(1) as f64
}

/// Host ns per page a full compaction pass migrates on a fragmented
/// machine.
pub fn compact_ns_per_page(bench: Bench, seed: u64) -> f64 {
    let mut m = fragmented(bench, seed);
    let t0 = Instant::now();
    let stats = m.run_compaction(u64::MAX);
    let ns = t0.elapsed().as_nanos();
    ns as f64 / stats.migrated_pages.max(1) as f64
}
