//! Self-test of the benchmark's instrumentation: the span decorators and
//! the touch capture are transparent, and a traced iteration's layer
//! self times fit inside its wall time. Full-size workloads, so run it
//! optimized: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hawkeye_kernel::AccessHook;
use hawkeye_perfbench::scenarios::{iterate, run_iteration, Bench, Capture, Probe};
use std::sync::{Arc, Mutex};

const SEED: u64 = 7;

#[test]
fn instrumentation_leaves_every_simulated_statistic_unchanged() {
    for bench in Bench::ALL {
        let bare = iterate(bench, SEED, Probe::Bare);
        let traced = iterate(bench, SEED, Probe::Traced);
        let sink = Arc::new(Mutex::new(Vec::new()));
        let captured = run_iteration(bench, SEED, Probe::Counted, || {
            Some(Box::new(Capture::new(sink.clone())) as Box<dyn AccessHook>)
        });
        let name = bench.name();
        assert_eq!(
            bare.digest, traced.digest,
            "{name}: spans changed the simulation"
        );
        assert_eq!(
            bare.digest, captured.digest,
            "{name}: the capture changed the simulation"
        );
        assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
        assert!(
            !sink.lock().unwrap().is_empty(),
            "{name}: no touch captured"
        );

        let l = traced.layers;
        let spans = l.on_tick.1 + l.on_fault.1 + l.next_op.1;
        assert!(
            spans <= l.run_ns,
            "{name}: span self times {spans} ns exceed the run's {} ns",
            l.run_ns
        );
        assert!(
            l.run_ns as f64 <= traced.wall_s() * 1e9,
            "{name}: the run outlasts the timed section"
        );
    }
}

#[test]
fn the_seed_chooses_the_inputs() {
    let a = iterate(Bench::BloatChurn, SEED, Probe::Bare);
    let b = iterate(Bench::BloatChurn, SEED, Probe::Bare);
    let c = iterate(Bench::BloatChurn, SEED + 1, Probe::Bare);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
}
