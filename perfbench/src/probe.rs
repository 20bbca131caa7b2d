//! Span decorators around the simulator's two plug-in traits.
//!
//! The benchmark times layers from the outside: it wraps the policy and
//! every workload it hands to a `Simulator` and times each call that
//! crosses the trait boundary. The decorators delegate every trait
//! method, so a decorated run simulates exactly what an undecorated one
//! does (the self-test pins the simulated-stat digest).

use hawkeye_kernel::{FaultAction, HugePagePolicy, Machine, MemOp, Steering, Workload};
use hawkeye_vm::Vpn;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls made into one decorated method and the host time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Host nanoseconds inside the calls.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// The spans one iteration records. None nests inside another: the
/// engine calls each of them directly from its run loop.
#[derive(Debug, Default)]
pub struct Spans {
    /// `HugePagePolicy::on_tick`.
    pub on_tick: Span,
    /// `HugePagePolicy::on_fault`.
    pub on_fault: Span,
    /// `Workload::next_op`.
    pub next_op: Span,
}

/// Calls and ns of every span at one instant.
pub type SpansSnapshot = [(u64, u64); 3];

impl Spans {
    fn all(&self) -> [&Span; 3] {
        [&self.on_tick, &self.on_fault, &self.next_op]
    }

    /// The current totals.
    pub fn snapshot(&self) -> SpansSnapshot {
        self.all().map(|s| (s.calls(), s.ns()))
    }

    /// Puts the totals back to `snap`, discarding what was recorded since.
    pub fn restore(&self, snap: SpansSnapshot) {
        for (s, (calls, ns)) in self.all().into_iter().zip(snap) {
            s.calls.store(calls, Relaxed);
            s.ns.store(ns, Relaxed);
        }
    }
}

/// A policy whose `on_tick` and `on_fault` calls are timed.
pub struct TimedPolicy {
    inner: Box<dyn HugePagePolicy>,
    spans: Arc<Spans>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: Box<dyn HugePagePolicy>, spans: Arc<Spans>) -> Self {
        TimedPolicy { inner, spans }
    }
}

impl HugePagePolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fault(&mut self, m: &mut Machine, pid: u32, vpn: Vpn) -> FaultAction {
        let inner = &mut self.inner;
        self.spans.on_fault.time(|| inner.on_fault(m, pid, vpn))
    }

    fn on_tick(&mut self, m: &mut Machine) {
        let inner = &mut self.inner;
        self.spans.on_tick.time(|| inner.on_tick(m))
    }

    fn on_release(&mut self, m: &mut Machine, pid: u32, start: Vpn, pages: u64) {
        self.inner.on_release(m, pid, start, pages)
    }

    fn on_exit(&mut self, m: &mut Machine, pid: u32) {
        self.inner.on_exit(m, pid)
    }

    fn on_steer(&mut self, m: &mut Machine, s: &Steering) {
        self.inner.on_steer(m, s)
    }
}

/// A workload that counts the memory accesses its ops ask for and,
/// when given spans, times its `next_op` calls.
pub struct ProbedWorkload {
    inner: Box<dyn Workload>,
    issued: Arc<AtomicU64>,
    spans: Option<Arc<Spans>>,
}

impl ProbedWorkload {
    /// Wraps `inner`; `issued` receives the access count of every op.
    pub fn new(
        inner: Box<dyn Workload>,
        issued: Arc<AtomicU64>,
        spans: Option<Arc<Spans>>,
    ) -> Self {
        ProbedWorkload {
            inner,
            issued,
            spans,
        }
    }
}

/// Accesses an op asks for, counted the way `ProcStats::accesses` counts
/// executed ones (`repeats` below 1 counts as 1).
fn accesses(op: &MemOp) -> u64 {
    match op {
        MemOp::Touch { repeats, .. } => (*repeats).max(1) as u64,
        MemOp::TouchRange { pages, repeats, .. } => pages * (*repeats).max(1) as u64,
        MemOp::TouchList { vpns, .. } => vpns.len() as u64,
        MemOp::Mmap { .. }
        | MemOp::Munmap { .. }
        | MemOp::Madvise { .. }
        | MemOp::Compute { .. } => 0,
    }
}

impl Workload for ProbedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> Option<MemOp> {
        let inner = &mut self.inner;
        let op = match &self.spans {
            Some(spans) => spans.next_op.time(|| inner.next_op()),
            None => inner.next_op(),
        };
        if let Some(op) = &op {
            self.issued.fetch_add(accesses(op), Relaxed);
        }
        op
    }

    fn dirt_offset(&mut self) -> u16 {
        self.inner.dirt_offset()
    }
}
