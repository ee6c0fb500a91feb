//! Per-layer timing taken from outside the program.
//!
//! Every probe here wraps one of the product's public seams and forwards
//! each call unchanged: [`TimedScheduler`] around a
//! [`Scheduler`], [`TimedBroker`] around a [`Broker`], [`TimedEnv`] around
//! an [`Env`]. Each adds the call's wall time to a shared [`Span`]. The
//! counting global allocator counts heap allocations only while
//! [`count_allocations`] has switched it on, so untraced runs pay one
//! relaxed load per allocation.
//!
//! Spans use relaxed atomics: they publish no other data, and they are read
//! only after the run that fed them has returned (the parallel service
//! harness joins its workers before `run` returns).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qcs_qcloud::{
    AllocationPlan, Broker, CloudState, CloudView, QJob, Scheduler, SchedulingDecision,
};
use qcs_rl::env::{Env, StepInfo, StepResult};

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    fn record(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed wall time of the recorded calls, in seconds. Calls made
    /// concurrently on several threads add up, so this can exceed the wall
    /// time of the run that made them.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// The spans one traced run feeds.
#[derive(Debug, Default)]
pub struct Spans {
    /// `Scheduler::decide`, including the broker calls made inside it.
    pub decide: Span,
    /// `Broker::select`.
    pub select: Span,
    /// `Env::step` and `Env::step_into`.
    pub env_step: Span,
    /// `Env::reset` and `Env::reset_into`, auto-resets included.
    pub env_reset: Span,
}

/// Forwards every call to the wrapped scheduler and times `decide`.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    spans: Arc<Spans>,
}

impl TimedScheduler {
    /// Wraps `inner`; `decide` calls are recorded in `spans.decide`.
    pub fn new(inner: Box<dyn Scheduler>, spans: Arc<Spans>) -> Self {
        TimedScheduler { inner, spans }
    }
}

impl Scheduler for TimedScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let t0 = Instant::now();
        let decision = self.inner.decide(queue, state);
        self.spans.decide.record(t0);
        decision
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Forwards every call to the wrapped broker and times `select`.
pub struct TimedBroker {
    inner: Box<dyn Broker>,
    spans: Arc<Spans>,
}

impl TimedBroker {
    /// Wraps `inner`; `select` calls are recorded in `spans.select`.
    pub fn new(inner: Box<dyn Broker>, spans: Arc<Spans>) -> Self {
        TimedBroker { inner, spans }
    }
}

impl Broker for TimedBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        let t0 = Instant::now();
        let plan = self.inner.select(job, view);
        self.spans.select.record(t0);
        plan
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Forwards every call to the wrapped environment and times the stepping
/// and resetting ones. Overrides the `_into` forms too, so the wrapped
/// environment keeps its allocation-free paths.
pub struct TimedEnv<E> {
    inner: E,
    spans: Arc<Spans>,
}

impl<E: Env> TimedEnv<E> {
    /// Wraps `inner`; steps are recorded in `spans.env_step`, resets in
    /// `spans.env_reset`.
    pub fn new(inner: E, spans: Arc<Spans>) -> Self {
        TimedEnv { inner, spans }
    }
}

impl<E: Env> Env for TimedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let t0 = Instant::now();
        let obs = self.inner.reset(seed);
        self.spans.env_reset.record(t0);
        obs
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        let t0 = Instant::now();
        let r = self.inner.step(action);
        self.spans.env_step.record(t0);
        r
    }

    fn reset_into(&mut self, seed: u64, obs_out: &mut [f32]) {
        let t0 = Instant::now();
        self.inner.reset_into(seed, obs_out);
        self.spans.env_reset.record(t0);
    }

    fn step_into(&mut self, action: &[f32], obs_out: &mut [f32]) -> StepInfo {
        let t0 = Instant::now();
        let info = self.inner.step_into(action, obs_out);
        self.spans.env_step.record(t0);
        info
    }
}

/// The system allocator, counting allocations while switched on.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting switched on; returns its result and
/// the allocations made meanwhile, on any thread.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
