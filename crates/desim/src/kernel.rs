//! The simulation kernel: slab-allocated processes and events, the event
//! heap, and the FIFO grant machinery for (multi-)container requests.
//!
//! # Slab/handle model
//!
//! The kernel stores processes and scheduled resume events in `Vec`-backed
//! slabs with free lists, so a long run (100k+ jobs) reuses a small pool of
//! slots instead of growing without bound. Handles ([`ProcessId`],
//! [`EventId`]) are `(index, generation)` pairs:
//!
//! * the **index** names the slot in the slab;
//! * the **generation** is bumped every time the slot is freed, so a handle
//!   from a previous occupant never resolves to the new one.
//!
//! A stale [`ProcessId`] (its process finished, was killed, or its slot was
//! reused) degrades safely everywhere: [`Simulation::wake`],
//! [`Simulation::interrupt`] and [`Simulation::kill`] return `false`,
//! [`Simulation::is_done`] returns `true`. This is what makes `kill` safe
//! in the presence of slot reuse — a registry holding a pid of an
//! already-finished process cannot accidentally kill its successor.
//!
//! The event heap is a `BinaryHeap` of plain `(time, seq, EventId)`
//! entries. Cancelling a pending resume (interrupt of a sleeping process,
//! kill) just frees the event slot; the heap entry stays behind and is
//! recognised as stale by its generation when popped. Each process has at
//! most one pending resume event (`pending_ev`), so cancellation is O(1).
//!
//! Request parts ride in a `PartsList` — a small-vector that keeps the
//! common one- and two-container requests inline, so the blocking path
//! does not allocate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::container::{Container, ContainerId};
use crate::process::{Coroutine, Ctx, Effect, ProcessId, Step};
use crate::rng::Xoshiro256StarStar;
use crate::time::SimTime;

/// Kernel configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard cap on processed events, to catch accidental infinite loops.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: u64::MAX,
        }
    }
}

/// Generation-checked handle to a scheduled resume event.
///
/// Events live in a slab inside the kernel; an `EventId` is the
/// `(slot, generation)` pair identifying one scheduled resume. When the
/// event fires or is cancelled its slot is freed (generation bumped), so
/// any heap entry or handle still naming the old generation is recognised
/// as stale and discarded. The type is exposed for diagnostics and for
/// mirroring the kernel's handle discipline in embedding code; there is no
/// public API that consumes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

impl EventId {
    /// The slab slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The slot generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// One slot of the event slab: which process the event resumes, plus the
/// slot's current generation (bumped on free, so stale heap entries and
/// handles never match).
#[derive(Debug, Clone, Copy)]
struct EventSlot {
    gen: u32,
    pid: ProcessId,
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Has a resume event in the heap (or is being resumed right now).
    Scheduled,
    /// Blocked on a queued container request.
    WaitingReq(ReqId),
    /// Parked on [`Effect::Suspend`] until woken.
    Suspended,
    /// Finished; the slot is on the free list awaiting reuse.
    Done,
}

struct ProcSlot {
    co: Option<Box<dyn Coroutine>>,
    state: ProcState,
    /// Slot generation: bumped when the process finishes or is killed and
    /// the slot returns to the free list. Handles carry the generation they
    /// were issued under; a mismatch marks the handle stale.
    gen: u32,
    /// Set by [`Simulation::interrupt`]; cleared by `take_interrupted`.
    interrupted: bool,
    /// The slab slot of this process's pending resume event, if any. Kept
    /// in lock-step with `state == Scheduled`; cancelling a wait frees the
    /// event here, which is what invalidates the heap entry.
    pending_ev: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReqId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqDir {
    Get,
    Put,
}

/// Small-vector of `(container, amount)` request parts: the common one-
/// and two-container requests stay inline, larger multi-container
/// requests spill to the heap. Keeps the request submission path
/// allocation-free for `Get`/`Put`/`GetPri`.
#[derive(Debug)]
enum PartsList {
    Inline {
        buf: [(ContainerId, u64); 2],
        len: u8,
    },
    Heap(Vec<(ContainerId, u64)>),
}

impl PartsList {
    #[inline]
    fn one(container: ContainerId, amount: u64) -> Self {
        PartsList::Inline {
            buf: [(container, amount), (container, 0)],
            len: 1,
        }
    }

    #[inline]
    fn from_vec(v: Vec<(ContainerId, u64)>) -> Self {
        match v.as_slice() {
            [] => PartsList::Inline {
                buf: [(ContainerId(0), 0); 2],
                len: 0,
            },
            &[a] => PartsList::Inline {
                buf: [a, a],
                len: 1,
            },
            &[a, b] => PartsList::Inline {
                buf: [a, b],
                len: 2,
            },
            _ => PartsList::Heap(v),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[(ContainerId, u64)] {
        match self {
            PartsList::Inline { buf, len } => &buf[..*len as usize],
            PartsList::Heap(v) => v.as_slice(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops zero amounts, merges duplicate containers, sorts by id —
    /// the normal form `submit_request` relies on.
    fn normalize(&mut self) {
        match self {
            PartsList::Inline { buf, len } => {
                let n = *len as usize;
                let mut tmp = *buf;
                let mut m = 0usize;
                for i in 0..n {
                    if tmp[i].1 > 0 {
                        tmp[m] = tmp[i];
                        m += 1;
                    }
                }
                if m == 2 {
                    if tmp[0].0 > tmp[1].0 {
                        tmp.swap(0, 1);
                    }
                    if tmp[0].0 == tmp[1].0 {
                        tmp[0].1 += tmp[1].1;
                        m = 1;
                    }
                }
                *buf = tmp;
                *len = m as u8;
            }
            PartsList::Heap(v) => {
                v.retain(|&(_, amt)| amt > 0);
                v.sort_by_key(|&(c, _)| c);
                v.dedup_by(|b, a| {
                    if a.0 == b.0 {
                        a.1 += b.1;
                        true
                    } else {
                        false
                    }
                });
            }
        }
    }
}

#[derive(Debug)]
struct PendingReq {
    pid: ProcessId,
    dir: ReqDir,
    /// Sorted by container id, amounts > 0, no duplicates.
    parts: PartsList,
    /// Queue priority: lower is served first; FIFO within a priority via
    /// `order`. The comparison key `(priority, order)` is *global*, so a
    /// multi-container request that is minimal overall is at the head of
    /// every queue it joined — the same progress argument as pure FIFO.
    priority: i32,
    /// Global submission counter (FIFO tiebreak).
    order: u64,
}

/// A heap entry naming a slab event. Ordered by `(time, seq)` so
/// simultaneous events fire in insertion order (deterministic). The event
/// slot's generation detects cancellation: a mismatch means the event was
/// freed (interrupt/kill) and the entry is skipped.
#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    ev: u32,
    gen: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic process-interaction discrete-event simulation.
///
/// See the [crate docs](crate) and the [module docs](self) for the
/// programming and slab/handle model.
pub struct Simulation {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    procs: Vec<ProcSlot>,
    /// Free-listed process slots (retired, generation already bumped).
    proc_free: Vec<u32>,
    /// Event slab; entries are reused across the run.
    events: Vec<EventSlot>,
    event_free: Vec<u32>,
    containers: Vec<Container>,
    reqs: Vec<Option<PendingReq>>,
    req_free: Vec<u32>,
    get_queues: Vec<VecDeque<ReqId>>,
    put_queues: Vec<VecDeque<ReqId>>,
    rng: Xoshiro256StarStar,
    events_processed: u64,
    live_processes: usize,
    config: SimConfig,
    /// Scratch worklist for grant propagation (reused across calls).
    dirty_scratch: Vec<ContainerId>,
    /// Global request submission counter (FIFO tiebreak within a priority).
    req_order: u64,
}

impl Simulation {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, SimConfig::default())
    }

    /// Creates an empty simulation with explicit configuration.
    pub fn with_config(seed: u64, config: SimConfig) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::with_capacity(1024),
            procs: Vec::with_capacity(256),
            proc_free: Vec::new(),
            events: Vec::with_capacity(1024),
            event_free: Vec::new(),
            containers: Vec::new(),
            reqs: Vec::new(),
            req_free: Vec::new(),
            get_queues: Vec::new(),
            put_queues: Vec::new(),
            rng: Xoshiro256StarStar::new(seed),
            events_processed: 0,
            live_processes: 0,
            config,
            dirty_scratch: Vec::new(),
            req_order: 0,
        }
    }

    /// Current simulation time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now.seconds()
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of processes that have been spawned and not yet finished.
    #[inline]
    pub fn live_processes(&self) -> usize {
        self.live_processes
    }

    /// Size of the process slab (high-water mark of concurrently live
    /// processes, not the total ever spawned — retired slots are reused).
    #[inline]
    pub fn process_slots(&self) -> usize {
        self.procs.len()
    }

    /// The kernel RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Slab plumbing
    // ------------------------------------------------------------------

    /// The slot behind a handle, if the handle is still current.
    #[inline]
    fn live(&self, pid: ProcessId) -> Option<&ProcSlot> {
        self.procs
            .get(pid.index())
            .filter(|s| s.gen == pid.generation())
    }

    /// Allocates a process slot (reusing a retired one when available).
    fn alloc_proc(&mut self, co: Box<dyn Coroutine>) -> ProcessId {
        if let Some(idx) = self.proc_free.pop() {
            let slot = &mut self.procs[idx as usize];
            debug_assert!(slot.co.is_none() && slot.pending_ev.is_none());
            slot.co = Some(co);
            slot.state = ProcState::Scheduled;
            slot.interrupted = false;
            ProcessId::new(idx, slot.gen)
        } else {
            let idx = self.procs.len() as u32;
            self.procs.push(ProcSlot {
                co: Some(co),
                state: ProcState::Scheduled,
                gen: 0,
                interrupted: false,
                pending_ev: None,
            });
            ProcessId::new(idx, 0)
        }
    }

    /// Frees an event slot: bumps its generation (staling any heap entry
    /// or handle that names the old one) and returns it to the free list.
    fn free_event(&mut self, ev: u32) {
        let slot = &mut self.events[ev as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.event_free.push(ev);
    }

    // ------------------------------------------------------------------
    // Containers
    // ------------------------------------------------------------------

    /// Registers a container and returns its id.
    pub fn add_container(
        &mut self,
        label: impl Into<String>,
        capacity: u64,
        initial_level: u64,
    ) -> ContainerId {
        let id = ContainerId(self.containers.len() as u32);
        self.containers
            .push(Container::new(label, capacity, initial_level));
        self.get_queues.push(VecDeque::new());
        self.put_queues.push(VecDeque::new());
        id
    }

    /// Read access to a container.
    #[inline]
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.index()]
    }

    /// Number of registered containers.
    #[inline]
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Instantly deposits units into a container from outside any process
    /// (e.g. initial provisioning), then propagates grants.
    pub fn deposit(&mut self, id: ContainerId, amount: u64) {
        let now = self.now();
        self.containers[id.index()].apply(now, amount as i64);
        self.dirty_scratch.push(id);
        self.drain_queues();
    }

    /// Instantly withdraws units (panics if unavailable — external
    /// withdrawal never blocks).
    pub fn withdraw(&mut self, id: ContainerId, amount: u64) {
        let now = self.now();
        self.containers[id.index()].apply(now, -(amount as i64));
        self.dirty_scratch.push(id);
        self.drain_queues();
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process, scheduled to run at the current time (after any
    /// events already queued for this instant).
    pub fn spawn(&mut self, co: Box<dyn Coroutine>) -> ProcessId {
        self.spawn_after(0.0, co)
    }

    /// Spawns a process that first runs `delay` seconds from now. The slot
    /// may be one reused from a finished process; the returned handle
    /// carries the slot's new generation.
    pub fn spawn_after(&mut self, delay: f64, co: Box<dyn Coroutine>) -> ProcessId {
        let pid = self.alloc_proc(co);
        self.live_processes += 1;
        let t = self.now.after(delay);
        self.push_event(t, pid);
        pid
    }

    /// Wakes a process parked on [`Effect::Suspend`]. Returns `true` if the
    /// process was suspended and is now scheduled. Stale handles (the
    /// process finished, or its slot was reused) are a safe no-op.
    pub fn wake(&mut self, pid: ProcessId) -> bool {
        let Some(slot) = self.live(pid) else {
            return false;
        };
        if slot.state == ProcState::Suspended {
            self.procs[pid.index()].state = ProcState::Scheduled;
            let t = self.now;
            self.push_event(t, pid);
            true
        } else {
            false
        }
    }

    /// Whether the given process has finished. Stale handles answer `true`:
    /// the incarnation the handle names is gone even if its slot now hosts
    /// a different process.
    pub fn is_done(&self, pid: ProcessId) -> bool {
        match self.live(pid) {
            Some(slot) => slot.state == ProcState::Done,
            None => true,
        }
    }

    /// Interrupts a process: cancels whatever it is currently waiting on
    /// and reschedules it at the current time with its interrupted flag
    /// set. The process observes the cut-short wait via
    /// [`Ctx::take_interrupted`](crate::process::Ctx::take_interrupted):
    ///
    /// * blocked on [`Effect::Timeout`] — the sleep ends now;
    /// * blocked on a container request — the request is cancelled (nothing
    ///   was acquired) and removed from all queues;
    /// * parked on [`Effect::Suspend`] — equivalent to [`wake`](Self::wake)
    ///   plus the flag.
    ///
    /// Returns `false` (no-op) if the process has already finished or the
    /// handle is stale. Interrupting a process that is *scheduled but not
    /// waiting* (e.g. its grant already fired this instant) still sets the
    /// flag — interrupters should target processes whose waiting state they
    /// control, as in the watchdog/reneging pattern.
    pub fn interrupt(&mut self, pid: ProcessId) -> bool {
        let Some(slot) = self.live(pid) else {
            return false;
        };
        match slot.state {
            ProcState::Done => false,
            ProcState::Scheduled => {
                // `push_event` frees any pending resume event (staling its
                // heap entry) before scheduling the replacement.
                self.procs[pid.index()].interrupted = true;
                let t = self.now;
                self.push_event(t, pid);
                true
            }
            ProcState::Suspended => {
                let slot = &mut self.procs[pid.index()];
                slot.interrupted = true;
                slot.state = ProcState::Scheduled;
                let t = self.now;
                self.push_event(t, pid);
                true
            }
            ProcState::WaitingReq(rid) => {
                self.cancel_request(rid);
                let slot = &mut self.procs[pid.index()];
                slot.interrupted = true;
                slot.state = ProcState::Scheduled;
                let t = self.now;
                self.push_event(t, pid);
                true
            }
        }
    }

    /// Terminates a process immediately, whatever it is doing. The body is
    /// dropped (releasing any shared state it held), a queued container
    /// request is cancelled (nothing was acquired), any pending resume
    /// event is freed, and the slot returns to the pool for reuse — the
    /// handle goes stale. Units the process already withdrew are **not**
    /// returned — the killer owns that cleanup (deposit them back
    /// explicitly), exactly as with an OS-level `kill -9`.
    ///
    /// Returns `false` (no-op) if the process had already finished or the
    /// handle is stale — slot reuse can never redirect a kill at the
    /// slot's next occupant.
    pub fn kill(&mut self, pid: ProcessId) -> bool {
        let Some(slot) = self.live(pid) else {
            return false;
        };
        match slot.state {
            ProcState::Done => false,
            ProcState::WaitingReq(rid) => {
                self.cancel_request(rid);
                self.retire(pid);
                true
            }
            ProcState::Scheduled | ProcState::Suspended => {
                self.retire(pid);
                true
            }
        }
    }

    /// Retires a live process: frees its pending event, drops its body,
    /// bumps the slot generation (staling every outstanding handle) and
    /// returns the slot to the free list.
    fn retire(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if let Some(ev) = self.procs[idx].pending_ev.take() {
            self.free_event(ev);
        }
        let slot = &mut self.procs[idx];
        slot.state = ProcState::Done;
        slot.co = None;
        slot.interrupted = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.proc_free.push(idx as u32);
        self.live_processes -= 1;
    }

    /// Whether `pid`'s interrupted flag is set (does not clear it). Stale
    /// handles answer `false`.
    #[inline]
    pub fn interrupted(&self, pid: ProcessId) -> bool {
        self.live(pid).is_some_and(|s| s.interrupted)
    }

    /// Reads and clears `pid`'s interrupted flag. Stale handles answer
    /// `false`.
    #[inline]
    pub fn take_interrupted(&mut self, pid: ProcessId) -> bool {
        if self.live(pid).is_none() {
            return false;
        }
        std::mem::take(&mut self.procs[pid.index()].interrupted)
    }

    /// Removes a queued request from every queue it joined and releases its
    /// slot. Successors may become grantable (the cancelled request might
    /// have been a blocked head), so grants are re-propagated.
    fn cancel_request(&mut self, rid: ReqId) {
        let req = self.reqs[rid.0 as usize]
            .take()
            .expect("cancelled request missing (kernel bug)");
        self.req_free.push(rid.0);
        for &(c, _) in req.parts.as_slice() {
            let q = match req.dir {
                ReqDir::Get => &mut self.get_queues[c.index()],
                ReqDir::Put => &mut self.put_queues[c.index()],
            };
            let pos = q
                .iter()
                .position(|&r| r == rid)
                .expect("request not in queue (kernel bug)");
            q.remove(pos);
            self.dirty_scratch.push(c);
        }
        self.drain_queues();
    }

    /// Schedules a resume event for `pid`, replacing (freeing) any pending
    /// one — a process has at most one resume event in flight.
    fn push_event(&mut self, time: SimTime, pid: ProcessId) {
        let idx = pid.index();
        if let Some(old) = self.procs[idx].pending_ev.take() {
            self.free_event(old);
        }
        let ev = if let Some(e) = self.event_free.pop() {
            self.events[e as usize].pid = pid;
            e
        } else {
            self.events.push(EventSlot { gen: 0, pid });
            (self.events.len() - 1) as u32
        };
        let gen = self.events[ev as usize].gen;
        self.procs[idx].pending_ev = Some(ev);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { time, seq, ev, gen }));
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Processes a single event. Returns `false` when the heap is empty.
    /// Stale entries (their event slot was freed by an interrupt or kill)
    /// are discarded without advancing the clock; the call still returns
    /// `true`.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(entry)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "event heap not monotone");
        let slot = self.events[entry.ev as usize];
        if slot.gen != entry.gen {
            // Cancelled wait: the interrupt already queued a replacement.
            return true;
        }
        let pid = slot.pid;
        self.free_event(entry.ev);
        let pslot = &mut self.procs[pid.index()];
        debug_assert_eq!(pslot.gen, pid.generation(), "live event on a retired slot");
        debug_assert_eq!(pslot.pending_ev, Some(entry.ev));
        debug_assert_eq!(pslot.state, ProcState::Scheduled);
        pslot.pending_ev = None;
        self.now = entry.time;
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.config.max_events,
            "exceeded max_events = {} — runaway simulation?",
            self.config.max_events
        );
        self.run_process(pid);
        true
    }

    /// Runs until no events remain. Returns the final simulation time.
    pub fn run(&mut self) -> f64 {
        while self.step() {}
        self.now()
    }

    /// Runs every event at the earliest pending instant — including events
    /// that instant schedules for itself (wakes, zero-delay timeouts,
    /// spawns) — and returns `true`; returns `false` when no event is left.
    /// Stale heap entries left by [`kill`](Self::kill) and
    /// [`interrupt`](Self::interrupt) are dropped first, so they never
    /// count as an instant of their own.
    ///
    /// This is the ask/tell primitive: between two calls the caller may
    /// inspect shared state and [`wake`](Self::wake) a process, whose
    /// resume the next call runs at the unchanged clock.
    pub fn run_next_instant(&mut self) -> bool {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.events[head.ev as usize].gen == head.gen {
                break;
            }
            self.heap.pop();
        }
        let Some(Reverse(head)) = self.heap.peek() else {
            return false;
        };
        let instant = head.time;
        while self.heap.peek().is_some_and(|Reverse(h)| h.time == instant) {
            self.step();
        }
        true
    }

    /// Runs until the next event would be after `t_end` (or the heap
    /// empties), then sets the clock to `t_end` if it was reached.
    pub fn run_until(&mut self, t_end: f64) -> f64 {
        let end = SimTime::new(t_end);
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > end {
                self.now = end;
                break;
            }
            self.step();
        }
        if self.now < end && self.heap.is_empty() {
            // No more events; clock stays at last event time, which is the
            // conventional DES behaviour. Callers who want wall-alignment can
            // read the return value.
        }
        self.now()
    }

    /// Conservative epoch barrier: processes every event with time ≤
    /// `t_end` (inclusive), then pins the clock to **exactly** `t_end` —
    /// even when the heap drained first, and never backwards.
    ///
    /// This is the pause/resume primitive for running several kernels in
    /// bounded sim-time windows on separate OS threads: after each shard
    /// kernel returns from `run_epoch(t)` a coordinator may inspect shared
    /// state and [`wake`](Self::wake)/[`spawn`](Self::spawn) at the common
    /// instant `t`, and every kernel stamps those injected events with the
    /// same clock value regardless of where its own event stream ran dry.
    /// [`run_until`](Self::run_until) cannot serve here: it leaves the clock at the last
    /// event time on an empty heap, so two shards paused at the "same"
    /// epoch would disagree about `now`.
    pub fn run_epoch(&mut self, t_end: f64) -> f64 {
        let end = SimTime::new(t_end);
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > end {
                break;
            }
            self.step();
        }
        if self.now < end {
            self.now = end;
        }
        self.now()
    }

    /// Panics if any process is still blocked on a request or suspended.
    /// Call after [`run`](Self::run) to catch models that starve jobs.
    pub fn assert_quiescent(&self) {
        for (i, p) in self.procs.iter().enumerate() {
            match p.state {
                ProcState::WaitingReq(_) => {
                    panic!("process {i} still blocked on a container request at end of run")
                }
                ProcState::Suspended => {
                    panic!("process {i} still suspended at end of run")
                }
                _ => {}
            }
        }
    }

    /// Number of processes currently blocked on container requests.
    pub fn blocked_processes(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::WaitingReq(_)))
            .count()
    }

    // ------------------------------------------------------------------
    // Process execution + effect handling
    // ------------------------------------------------------------------

    fn run_process(&mut self, pid: ProcessId) {
        loop {
            let idx = pid.index();
            let mut co = self.procs[idx]
                .co
                .take()
                .expect("process body missing (kernel bug)");
            let step = co.resume(&mut Ctx { sim: self, pid });
            // The body may have killed itself during resume — its slot was
            // retired (and possibly reused by a spawn). Only this
            // incarnation may write the body back.
            if self.procs[idx].gen != pid.generation() {
                return;
            }
            self.procs[idx].co = Some(co);

            match step {
                Step::Done => {
                    self.retire(pid);
                    return;
                }
                Step::Wait(effect) => {
                    if !self.handle_effect(pid, effect) {
                        // Blocked (or scheduled) — stop driving this process.
                        return;
                    }
                    // Effect completed synchronously: resume immediately.
                }
            }
        }
    }

    /// Applies an effect. Returns `true` if it completed synchronously and
    /// the process should be resumed immediately.
    fn handle_effect(&mut self, pid: ProcessId, effect: Effect) -> bool {
        match effect {
            Effect::Timeout(dt) => {
                let t = self.now.after(dt);
                self.procs[pid.index()].state = ProcState::Scheduled;
                self.push_event(t, pid);
                false
            }
            Effect::Yield => {
                let t = self.now;
                self.procs[pid.index()].state = ProcState::Scheduled;
                self.push_event(t, pid);
                false
            }
            Effect::Suspend => {
                self.procs[pid.index()].state = ProcState::Suspended;
                false
            }
            Effect::Get { container, amount } => {
                self.submit_request(pid, ReqDir::Get, PartsList::one(container, amount), 0)
            }
            Effect::Put { container, amount } => {
                self.submit_request(pid, ReqDir::Put, PartsList::one(container, amount), 0)
            }
            Effect::GetAll(parts) => {
                self.submit_request(pid, ReqDir::Get, PartsList::from_vec(parts), 0)
            }
            Effect::PutAll(parts) => {
                self.submit_request(pid, ReqDir::Put, PartsList::from_vec(parts), 0)
            }
            Effect::GetPri {
                container,
                amount,
                priority,
            } => self.submit_request(
                pid,
                ReqDir::Get,
                PartsList::one(container, amount),
                priority,
            ),
            Effect::GetAllPri { parts, priority } => {
                self.submit_request(pid, ReqDir::Get, PartsList::from_vec(parts), priority)
            }
        }
    }

    /// The `(priority, order)` service key of a queued request.
    fn req_key(&self, rid: ReqId) -> (i32, u64) {
        let req = self.reqs[rid.0 as usize]
            .as_ref()
            .expect("queued request missing (kernel bug)");
        (req.priority, req.order)
    }

    /// Normalises a request, grants it immediately when possible (only if
    /// no request with a smaller `(priority, order)` key is queued on any
    /// involved container — strict FIFO within a priority, overtaking
    /// across priorities), otherwise enqueues it in key order.
    fn submit_request(
        &mut self,
        pid: ProcessId,
        dir: ReqDir,
        mut parts: PartsList,
        priority: i32,
    ) -> bool {
        parts.normalize();
        for &(c, amt) in parts.as_slice() {
            assert!(
                c.index() < self.containers.len(),
                "request names unknown container {c:?}"
            );
            // A single request larger than the capacity can never be granted;
            // fail fast instead of blocking forever.
            assert!(
                amt <= self.containers[c.index()].capacity(),
                "request of {amt} units exceeds capacity {} of container {:?} — never satisfiable",
                self.containers[c.index()].capacity(),
                c
            );
        }
        if parts.is_empty() {
            return true; // trivially satisfied
        }

        let order = self.req_order;
        self.req_order += 1;
        let key = (priority, order);

        // Unobstructed: at the head position of every involved queue, i.e.
        // no queued request there has a smaller key. (A fresh request
        // always has the largest `order`, so within a priority this means
        // "queue empty of same-or-higher-priority requests" — strict FIFO.)
        let mut unobstructed = true;
        for &(c, _) in parts.as_slice() {
            let q = match dir {
                ReqDir::Get => &self.get_queues[c.index()],
                ReqDir::Put => &self.put_queues[c.index()],
            };
            if let Some(&front) = q.front() {
                if self.req_key(front) < key {
                    unobstructed = false;
                    break;
                }
            }
        }
        let satisfiable = parts.as_slice().iter().all(|&(c, amt)| match dir {
            ReqDir::Get => self.containers[c.index()].can_get(amt),
            ReqDir::Put => self.containers[c.index()].can_put(amt),
        });

        if unobstructed && satisfiable {
            let now = self.now();
            for &(c, amt) in parts.as_slice() {
                let delta = match dir {
                    ReqDir::Get => -(amt as i64),
                    ReqDir::Put => amt as i64,
                };
                self.containers[c.index()].apply(now, delta);
                self.dirty_scratch.push(c);
            }
            // A get may free queue capacity for puts (and vice versa).
            self.drain_queues();
            return true;
        }

        // Enqueue in (priority, order) position — no overtaking within a
        // priority even if satisfiable.
        let n_parts = parts.len();
        let rid = self.alloc_req(PendingReq {
            pid,
            dir,
            parts,
            priority,
            order,
        });
        for pi in 0..n_parts {
            // Re-borrow the request per part instead of collecting its
            // container ids into a temporary Vec — enqueueing is on the
            // blocking path and must not allocate when tracing is off.
            let c = self.reqs[rid.0 as usize].as_ref().unwrap().parts.as_slice()[pi].0;
            // Queues stay sorted by key; scan for the insertion point (the
            // queues are short — bounded by blocked processes).
            let pos = {
                let q = match dir {
                    ReqDir::Get => &self.get_queues[c.index()],
                    ReqDir::Put => &self.put_queues[c.index()],
                };
                let mut pos = q.len();
                for (i, &r) in q.iter().enumerate() {
                    if key < self.req_key(r) {
                        pos = i;
                        break;
                    }
                }
                pos
            };
            match dir {
                ReqDir::Get => self.get_queues[c.index()].insert(pos, rid),
                ReqDir::Put => self.put_queues[c.index()].insert(pos, rid),
            }
        }
        self.procs[pid.index()].state = ProcState::WaitingReq(rid);
        false
    }

    fn alloc_req(&mut self, req: PendingReq) -> ReqId {
        if let Some(idx) = self.req_free.pop() {
            self.reqs[idx as usize] = Some(req);
            ReqId(idx)
        } else {
            self.reqs.push(Some(req));
            ReqId((self.reqs.len() - 1) as u32)
        }
    }

    /// Propagates grants after container levels changed. Processes the
    /// worklist in `dirty_scratch`; for each container, repeatedly tries to
    /// grant the head of its put queue then its get queue. A multi-container
    /// request is granted only when it heads *every* involved queue and all
    /// parts are satisfiable.
    fn drain_queues(&mut self) {
        while let Some(c) = self.dirty_scratch.pop() {
            loop {
                let granted =
                    self.try_grant_head(c, ReqDir::Put) || self.try_grant_head(c, ReqDir::Get);
                if !granted {
                    break;
                }
            }
        }
    }

    fn try_grant_head(&mut self, c: ContainerId, dir: ReqDir) -> bool {
        let queue = match dir {
            ReqDir::Get => &self.get_queues[c.index()],
            ReqDir::Put => &self.put_queues[c.index()],
        };
        let Some(&rid) = queue.front() else {
            return false;
        };
        let req = self.reqs[rid.0 as usize]
            .as_ref()
            .expect("queued request missing (kernel bug)");
        debug_assert_eq!(req.dir, dir);

        // Head of every involved queue?
        let all_heads = req.parts.as_slice().iter().all(|&(rc, _)| {
            let q = match dir {
                ReqDir::Get => &self.get_queues[rc.index()],
                ReqDir::Put => &self.put_queues[rc.index()],
            };
            q.front() == Some(&rid)
        });
        if !all_heads {
            return false;
        }
        // Satisfiable everywhere?
        let ok = req.parts.as_slice().iter().all(|&(rc, amt)| match dir {
            ReqDir::Get => self.containers[rc.index()].can_get(amt),
            ReqDir::Put => self.containers[rc.index()].can_put(amt),
        });
        if !ok {
            return false;
        }

        // Grant: apply deltas, dequeue everywhere, schedule the process.
        // Take the request out of its slot (it is freed either way) so its
        // parts are used by move — no clone on the grant hot path.
        let req = self.reqs[rid.0 as usize]
            .take()
            .expect("queued request missing (kernel bug)");
        self.req_free.push(rid.0);
        let pid = req.pid;
        let parts = req.parts;
        let now = self.now();
        for &(rc, amt) in parts.as_slice() {
            let delta = match dir {
                ReqDir::Get => -(amt as i64),
                ReqDir::Put => amt as i64,
            };
            self.containers[rc.index()].apply(now, delta);
        }
        for &(rc, _) in parts.as_slice() {
            let q = match dir {
                ReqDir::Get => &mut self.get_queues[rc.index()],
                ReqDir::Put => &mut self.put_queues[rc.index()],
            };
            let popped = q.pop_front();
            debug_assert_eq!(popped, Some(rid));
            self.dirty_scratch.push(rc);
        }
        self.procs[pid.index()].state = ProcState::Scheduled;
        let t = self.now;
        self.push_event(t, pid);
        true
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .field("live_processes", &self.live_processes)
            .field("process_slots", &self.procs.len())
            .field("containers", &self.containers.len())
            .field("heap_len", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that repeats `Timeout(dt)` n times.
    struct Ticker {
        dt: f64,
        n: u32,
        fired: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }
    impl Coroutine for Ticker {
        fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
            if self.n == 0 {
                return Step::Done;
            }
            self.n -= 1;
            self.fired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Step::Wait(Effect::Timeout(self.dt))
        }
    }

    #[test]
    fn timeouts_advance_clock() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(1);
        sim.spawn(Box::new(Ticker {
            dt: 2.0,
            n: 5,
            fired: fired.clone(),
        }));
        let end = sim.run();
        assert_eq!(end, 10.0);
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(sim.live_processes(), 0);
        sim.assert_quiescent();
    }

    /// Two-phase process used for container tests: get -> hold -> put.
    struct HoldAndRelease {
        container: ContainerId,
        amount: u64,
        hold: f64,
        phase: u8,
        log: HoldLog,
    }

    type HoldLog = std::sync::Arc<parking_lot_stub::Mutex<Vec<(f64, &'static str, u64)>>>;

    // tiny local mutex to avoid a dev-dependency in unit tests
    mod parking_lot_stub {
        pub use std::sync::Mutex;
        pub trait LockExt<T> {
            fn lock_unwrap(&self) -> std::sync::MutexGuard<'_, T>;
        }
        impl<T> LockExt<T> for Mutex<T> {
            fn lock_unwrap(&self) -> std::sync::MutexGuard<'_, T> {
                self.lock().unwrap()
            }
        }
    }
    use parking_lot_stub::LockExt;

    impl Coroutine for HoldAndRelease {
        fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Wait(Effect::Get {
                        container: self.container,
                        amount: self.amount,
                    })
                }
                1 => {
                    self.log.lock_unwrap().push((cx.now(), "got", self.amount));
                    self.phase = 2;
                    Step::Wait(Effect::Timeout(self.hold))
                }
                2 => {
                    self.phase = 3;
                    Step::Wait(Effect::Put {
                        container: self.container,
                        amount: self.amount,
                    })
                }
                _ => {
                    self.log.lock_unwrap().push((cx.now(), "put", self.amount));
                    Step::Done
                }
            }
        }
    }

    #[test]
    fn container_blocks_and_grants_fifo() {
        let mut sim = Simulation::new(2);
        let c = sim.add_container("qpu", 100, 100);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        // First job takes 80 for 10s; second needs 50 and must wait.
        sim.spawn(Box::new(HoldAndRelease {
            container: c,
            amount: 80,
            hold: 10.0,
            phase: 0,
            log: log.clone(),
        }));
        sim.spawn(Box::new(HoldAndRelease {
            container: c,
            amount: 50,
            hold: 5.0,
            phase: 0,
            log: log.clone(),
        }));
        sim.run();
        sim.assert_quiescent();
        let log = log.lock().unwrap();
        // job1 gets at t=0, puts at t=10; job2 gets at t=10, puts at t=15.
        assert_eq!(log[0], (0.0, "got", 80));
        assert_eq!(log[1], (10.0, "put", 80));
        assert_eq!(log[2], (10.0, "got", 50));
        assert_eq!(log[3], (15.0, "put", 50));
        assert_eq!(sim.container(c).level(), 100);
    }

    struct MultiGetter {
        parts: Vec<(ContainerId, u64)>,
        hold: f64,
        phase: u8,
        events: std::sync::Arc<std::sync::Mutex<Vec<(f64, &'static str)>>>,
        tag: &'static str,
    }
    impl Coroutine for MultiGetter {
        fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Wait(Effect::GetAll(self.parts.clone()))
                }
                1 => {
                    self.events.lock().unwrap().push((cx.now(), self.tag));
                    self.phase = 2;
                    Step::Wait(Effect::Timeout(self.hold))
                }
                2 => {
                    self.phase = 3;
                    Step::Wait(Effect::PutAll(self.parts.clone()))
                }
                _ => Step::Done,
            }
        }
    }

    #[test]
    fn multiget_is_atomic_and_deadlock_free() {
        // Classic crossing pattern: A wants (c1:80, c2:80), B wants
        // (c2:80, c1:80). With partial holds this deadlocks; atomic GetAll
        // must serialize them.
        let mut sim = Simulation::new(3);
        let c1 = sim.add_container("d1", 100, 100);
        let c2 = sim.add_container("d2", 100, 100);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c1, 80), (c2, 80)],
            hold: 3.0,
            phase: 0,
            events: events.clone(),
            tag: "A",
        }));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c2, 80), (c1, 80)],
            hold: 3.0,
            phase: 0,
            events: events.clone(),
            tag: "B",
        }));
        sim.run();
        sim.assert_quiescent();
        let ev = events.lock().unwrap();
        assert_eq!(ev.as_slice(), &[(0.0, "A"), (3.0, "B")]);
        assert_eq!(sim.container(c1).level(), 100);
        assert_eq!(sim.container(c2).level(), 100);
    }

    #[test]
    fn fifo_no_overtaking_even_if_satisfiable() {
        // Big request queues first; a small request that *could* be served
        // must wait behind it (strict FIFO, like SimPy).
        let mut sim = Simulation::new(4);
        let c = sim.add_container("qpu", 100, 100);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        // Holder takes 60 at t=0 for 10s.
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 60)],
            hold: 10.0,
            phase: 0,
            events: events.clone(),
            tag: "holder",
        }));
        // Big wants 80 -> must queue.
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 80)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "big",
        }));
        // Small wants 30 -> satisfiable immediately (level is 40), but
        // strict FIFO queues it behind big, and after big's grant only 20
        // remain, so small must wait for big's release at t=11.
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 30)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "small",
        }));
        sim.run();
        sim.assert_quiescent();
        let ev = events.lock().unwrap();
        assert_eq!(
            ev.as_slice(),
            &[(0.0, "holder"), (10.0, "big"), (11.0, "small")]
        );
    }

    #[test]
    fn zero_amount_requests_complete_synchronously() {
        let mut sim = Simulation::new(5);
        let c = sim.add_container("qpu", 10, 0);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 0)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "noop",
        }));
        sim.run();
        assert_eq!(events.lock().unwrap().as_slice(), &[(0.0, "noop")]);
    }

    #[test]
    fn duplicate_containers_in_request_are_merged() {
        let mut sim = Simulation::new(6);
        let c = sim.add_container("qpu", 100, 100);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 30), (c, 30)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "dup",
        }));
        sim.run_until(0.5);
        assert_eq!(sim.container(c).level(), 40); // 100 - 60
        sim.run();
        assert_eq!(sim.container(c).level(), 100);
    }

    #[test]
    fn deposit_and_withdraw_wake_waiters() {
        let mut sim = Simulation::new(7);
        let c = sim.add_container("qpu", 100, 0);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 50)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "waiter",
        }));
        sim.run(); // waiter blocks, heap empties
        assert_eq!(sim.blocked_processes(), 1);
        sim.deposit(c, 50);
        sim.run();
        sim.assert_quiescent();
        assert_eq!(events.lock().unwrap().as_slice(), &[(0.0, "waiter")]);
    }

    struct Sleeper;
    impl Coroutine for Sleeper {
        fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
            Step::Wait(Effect::Suspend)
        }
    }

    #[test]
    fn suspend_then_wake() {
        let mut sim = Simulation::new(8);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run();
        assert!(!sim.is_done(pid));
        assert!(sim.wake(pid));
        sim.run();
        // Sleeper suspends forever each resume; wake it once more and it
        // suspends again — state machine remains consistent.
        assert!(!sim.is_done(pid));
        assert!(sim.wake(pid));
        assert!(!sim.wake(pid)); // already scheduled, wake is a no-op
    }

    #[test]
    fn kill_terminates_in_every_wait_state() {
        // Sleeping (Scheduled with a pending timeout event).
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(21);
        let pid = sim.spawn(Box::new(Ticker {
            dt: 5.0,
            n: 10,
            fired: fired.clone(),
        }));
        sim.run_until(7.0); // fired at t=0 and t=5
        assert!(sim.kill(pid));
        assert!(sim.is_done(pid));
        assert!(!sim.kill(pid)); // already done: no-op
        sim.run();
        // The pending t=10 event is stale; no further fires.
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(sim.live_processes(), 0);

        // Suspended.
        let mut sim = Simulation::new(22);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run();
        assert!(sim.kill(pid));
        assert!(!sim.wake(pid)); // retired slot cannot be woken
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn kill_cancels_queued_request_and_unblocks_successor() {
        let mut sim = Simulation::new(23);
        let c = sim.add_container("qpu", 100, 100);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        // Holder takes 80 for 10s; "big" queues for 90 and blocks "small"
        // (30) behind it under strict FIFO.
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 80)],
            hold: 10.0,
            phase: 0,
            events: events.clone(),
            tag: "holder",
        }));
        let big = sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 90)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "big",
        }));
        sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 30)],
            hold: 1.0,
            phase: 0,
            events: events.clone(),
            tag: "small",
        }));
        sim.run_until(1.0);
        assert_eq!(sim.blocked_processes(), 2);
        // Killing the queued head cancels its request; "small" (level 20…
        // no: 100-80=20 < 30) still waits for the holder's release, but is
        // now the queue head and runs at t=10 instead of never.
        assert!(sim.kill(big));
        assert_eq!(sim.blocked_processes(), 1);
        sim.run();
        sim.assert_quiescent();
        let ev = events.lock().unwrap();
        assert_eq!(ev.as_slice(), &[(0.0, "holder"), (10.0, "small")]);
        assert_eq!(sim.container(c).level(), 100);
    }

    #[test]
    fn killed_holder_leaks_units_until_killer_deposits() {
        // kill() does not return held units — that is the killer's job.
        let mut sim = Simulation::new(24);
        let c = sim.add_container("qpu", 100, 100);
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let holder = sim.spawn(Box::new(MultiGetter {
            parts: vec![(c, 60)],
            hold: 100.0,
            phase: 0,
            events: events.clone(),
            tag: "holder",
        }));
        sim.run_until(1.0);
        assert_eq!(sim.container(c).level(), 40);
        assert!(sim.kill(holder));
        assert_eq!(sim.container(c).level(), 40); // still held
        sim.deposit(c, 60); // killer's cleanup
        assert_eq!(sim.container(c).level(), 100);
    }

    #[test]
    fn slots_are_reused_and_stale_handles_stay_safe() {
        // Spawn-finish-spawn: the second process reuses the first's slot
        // under a bumped generation; the first handle must stay inert.
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(25);
        let a = sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 1,
            fired: fired.clone(),
        }));
        sim.run();
        assert!(sim.is_done(a));
        let b = sim.spawn(Box::new(Sleeper));
        // Same slot, different generation: distinct handles.
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        sim.run();
        // Operations through the stale handle must not reach `b`.
        assert!(sim.is_done(a));
        assert!(!sim.wake(a));
        assert!(!sim.interrupt(a));
        assert!(!sim.kill(a));
        assert!(!sim.is_done(b));
        assert!(sim.wake(b));
        assert_eq!(sim.process_slots(), 1, "one pooled slot serves both");
    }

    #[test]
    fn event_slab_reuses_slots() {
        // A long ticker run schedules thousands of events but only ever has
        // one in flight — the slab must stay at a single slot.
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(26);
        sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 1000,
            fired,
        }));
        sim.run();
        assert_eq!(sim.events.len(), 1, "event slots must be pooled");
    }

    #[test]
    fn raw_pid_roundtrip_preserves_generation() {
        let mut sim = Simulation::new(27);
        let a = sim.spawn(Box::new(Sleeper));
        sim.run();
        sim.kill(a);
        let b = sim.spawn(Box::new(Sleeper));
        let restored = ProcessId::from_raw(b.as_raw());
        assert_eq!(restored, b);
        // The stale handle round-trips too, and stays stale.
        let stale = ProcessId::from_raw(a.as_raw());
        assert!(sim.is_done(stale));
        assert!(!sim.wake(stale));
    }

    #[test]
    fn run_until_stops_at_bound() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(9);
        sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 100,
            fired: fired.clone(),
        }));
        sim.run_until(10.5);
        assert_eq!(sim.now(), 10.5);
        // Ticks at t=0..=10 → 11 resumes... ticker fires on each resume
        // until n exhausted; fired counts resumes where n>0: t=0,1,..,10.
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 11);
        sim.run();
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn run_next_instant_runs_one_instant_and_skips_stale_entries() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(3);
        // Two tickers share the instants 2 and 4; a third fires at 1 but is
        // killed first, leaving only a stale heap entry at t = 1.
        for _ in 0..2 {
            sim.spawn_after(
                2.0,
                Box::new(Ticker {
                    dt: 2.0,
                    n: 2,
                    fired: fired.clone(),
                }),
            );
        }
        let doomed = sim.spawn_after(
            1.0,
            Box::new(Ticker {
                dt: 1.0,
                n: 1,
                fired: fired.clone(),
            }),
        );
        assert!(sim.kill(doomed));
        let count = |f: &std::sync::Arc<std::sync::atomic::AtomicU32>| {
            f.load(std::sync::atomic::Ordering::SeqCst)
        };
        assert!(sim.run_next_instant());
        assert_eq!(sim.now(), 2.0, "the stale entry at t = 1 is not an instant");
        assert_eq!(count(&fired), 2, "both tickers ran at t = 2");
        // A wake at the current instant runs on the next call without
        // moving the clock.
        struct Parker;
        impl Coroutine for Parker {
            fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
                Step::Wait(Effect::Suspend)
            }
        }
        let parker = sim.spawn(Box::new(Parker));
        assert!(sim.run_next_instant());
        assert_eq!(sim.now(), 2.0);
        assert!(sim.wake(parker));
        assert!(sim.run_next_instant());
        assert_eq!(sim.now(), 2.0);
        assert!(sim.run_next_instant());
        assert_eq!(sim.now(), 4.0);
        assert_eq!(count(&fired), 4);
        assert!(sim.run_next_instant(), "the tickers retire at t = 6");
        assert_eq!(sim.now(), 6.0);
        assert!(!sim.run_next_instant(), "only the parked process is left");
        assert!(sim.kill(parker));
    }

    #[test]
    fn run_epoch_pins_clock_when_heap_drains() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(9);
        sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 3,
            fired: fired.clone(),
        }));
        // Last event fires at t=2; run_until would leave the clock there,
        // run_epoch pins it to the barrier time.
        sim.run_epoch(10.0);
        assert_eq!(sim.now(), 10.0);
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn run_epoch_is_inclusive_and_monotone() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(9);
        sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 100,
            fired: fired.clone(),
        }));
        sim.run_epoch(5.0);
        assert_eq!(sim.now(), 5.0);
        // Ticks at t=0..=5 inclusive.
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 6);
        // A barrier in the past never moves the clock backwards.
        sim.run_epoch(1.0);
        assert_eq!(sim.now(), 5.0);
        sim.run_epoch(6.0);
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 7);
        assert_eq!(sim.now(), 6.0);
    }

    #[test]
    fn run_epoch_injected_events_stamp_at_barrier() {
        // A suspended process woken at a drained-heap barrier resumes at
        // exactly the barrier time — the contract the parallel service
        // coordinator relies on.
        let mut sim = Simulation::new(9);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run_epoch(7.5);
        assert_eq!(sim.now(), 7.5);
        assert!(sim.wake(pid));
        sim.run();
        // The wake resumed the sleeper at exactly the pinned instant.
        assert_eq!(sim.now(), 7.5);
    }

    #[test]
    fn deterministic_event_interleaving() {
        // Two identical runs must produce identical traces.
        let run = || {
            let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut sim = Simulation::new(42);
            let c1 = sim.add_container("a", 50, 50);
            let c2 = sim.add_container("b", 50, 50);
            for i in 0..10u64 {
                sim.spawn(Box::new(MultiGetter {
                    parts: vec![(c1, 20 + (i % 3) * 10), (c2, 10 + (i % 4) * 10)],
                    hold: 1.0 + i as f64 * 0.25,
                    phase: 0,
                    events: events.clone(),
                    tag: "job",
                }));
            }
            sim.run();
            sim.assert_quiescent();
            let v = events.lock().unwrap().clone();
            (v, sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn max_events_guard_fires() {
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::with_config(1, SimConfig { max_events: 10 });
        sim.spawn(Box::new(Ticker {
            dt: 1.0,
            n: 1000,
            fired,
        }));
        sim.run();
    }

    /// A producer that puts `amount` into a container `n` times with no
    /// delay; blocks whenever the container is full.
    struct BlindProducer {
        container: ContainerId,
        amount: u64,
        n: u32,
        puts_done: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
        phase: u8,
    }
    impl Coroutine for BlindProducer {
        fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
            if self.phase == 1 {
                self.puts_done.lock().unwrap().push(cx.now());
                self.n -= 1;
                self.phase = 0;
            }
            if self.n == 0 {
                return Step::Done;
            }
            self.phase = 1;
            Step::Wait(Effect::Put {
                container: self.container,
                amount: self.amount,
            })
        }
    }

    /// A consumer that drains `amount` every `period` seconds.
    struct SlowConsumer {
        container: ContainerId,
        amount: u64,
        period: f64,
        n: u32,
        phase: u8,
    }
    impl Coroutine for SlowConsumer {
        fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
            match self.phase {
                0 => {
                    if self.n == 0 {
                        return Step::Done;
                    }
                    self.n -= 1;
                    self.phase = 1;
                    Step::Wait(Effect::Timeout(self.period))
                }
                _ => {
                    self.phase = 0;
                    Step::Wait(Effect::Get {
                        container: self.container,
                        amount: self.amount,
                    })
                }
            }
        }
    }

    #[test]
    fn puts_block_on_full_container() {
        // Bounded-buffer: capacity 10, producer pushes 5×5 instantly but
        // must wait for the consumer to drain.
        let mut sim = Simulation::new(12);
        let c = sim.add_container("buf", 10, 0);
        let puts = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.spawn(Box::new(BlindProducer {
            container: c,
            amount: 5,
            n: 5,
            puts_done: puts.clone(),
            phase: 0,
        }));
        sim.spawn(Box::new(SlowConsumer {
            container: c,
            amount: 5,
            period: 10.0,
            n: 5,
            phase: 0,
        }));
        sim.run();
        sim.assert_quiescent();
        let puts = puts.lock().unwrap();
        // First two puts fit immediately (level 0→5→10); each further put
        // waits for a drain at t = 10, 20, 30.
        assert_eq!(puts.as_slice(), &[0.0, 0.0, 10.0, 20.0, 30.0]);
        assert_eq!(sim.container(c).level(), 0); // 25 in, 25 out
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn external_withdraw_checks_level() {
        let mut sim = Simulation::new(13);
        let c = sim.add_container("x", 10, 5);
        sim.withdraw(c, 6);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn external_deposit_checks_capacity() {
        let mut sim = Simulation::new(14);
        let c = sim.add_container("x", 10, 5);
        sim.deposit(c, 6);
    }

    #[test]
    #[should_panic(expected = "never satisfiable")]
    fn over_capacity_request_rejected_eagerly() {
        struct Greedy {
            c: ContainerId,
        }
        impl Coroutine for Greedy {
            fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
                Step::Wait(Effect::Get {
                    container: self.c,
                    amount: 11,
                })
            }
        }
        let mut sim = Simulation::new(15);
        let c = sim.add_container("x", 10, 10);
        sim.spawn(Box::new(Greedy { c }));
        sim.run();
    }

    #[test]
    fn self_kill_during_resume_is_safe() {
        // A process that kills itself mid-resume: the kernel must not write
        // the stale body back into the (possibly reused) slot.
        struct SelfKiller {
            spawned: std::sync::Arc<std::sync::atomic::AtomicU32>,
        }
        impl Coroutine for SelfKiller {
            fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
                let me = cx.pid();
                cx.kill(me);
                // Immediately reuse the freed slot.
                cx.spawn(Box::new(Ticker {
                    dt: 1.0,
                    n: 1,
                    fired: self.spawned.clone(),
                }));
                Step::Done // ignored: the slot is already retired
            }
        }
        let spawned = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Simulation::new(28);
        sim.spawn(Box::new(SelfKiller {
            spawned: spawned.clone(),
        }));
        sim.run();
        assert_eq!(spawned.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(sim.live_processes(), 0);
        sim.assert_quiescent();
    }
}
