//! Processes: cooperative coroutines driven by the kernel.
//!
//! A process is any type implementing [`Coroutine`]. Each time the kernel
//! resumes it, the process performs some computation and either finishes
//! ([`Step::Done`]) or yields an [`Effect`] describing what it is waiting
//! for. This mirrors SimPy's generator-based processes, expressed as an
//! explicit state machine (Rust has no stable generators, and explicit
//! states are easier to unit-test).

use crate::container::ContainerId;
use crate::kernel::Simulation;
use crate::rng::Xoshiro256StarStar;

/// Generation-checked handle to a spawned process within one [`Simulation`].
///
/// Process slots are pooled: after a process finishes or is killed, its
/// slot is reused by a later spawn under a bumped generation. A handle
/// therefore names one *incarnation*, not a slot — operations through a
/// handle whose process is gone are safe no-ops (see the
/// [kernel docs](crate::kernel)), even if the slot now hosts someone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

impl ProcessId {
    #[inline]
    pub(crate) fn new(idx: u32, gen: u32) -> Self {
        ProcessId { idx, gen }
    }

    /// The slab slot index (shared between incarnations; use the full
    /// handle, not the index, to identify a process).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The slot generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Packs the handle into a `u64` for storage in atomics/registries
    /// (low 32 bits: slot index, high 32 bits: generation).
    #[inline]
    pub fn as_raw(self) -> u64 {
        (self.idx as u64) | ((self.gen as u64) << 32)
    }

    /// Rebuilds a handle from [`ProcessId::as_raw`]. The caller is
    /// responsible for only using raw values obtained from the same
    /// simulation; the generation check still applies on use.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        ProcessId {
            idx: raw as u32,
            gen: (raw >> 32) as u32,
        }
    }
}

/// What a process is waiting for.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Resume after the given number of simulated seconds (must be ≥ 0).
    Timeout(f64),
    /// Take `amount` units from a container, blocking FIFO until available.
    Get {
        /// Source container.
        container: ContainerId,
        /// Units to take.
        amount: u64,
    },
    /// Add `amount` units to a container, blocking FIFO while it would
    /// overflow the capacity.
    Put {
        /// Destination container.
        container: ContainerId,
        /// Units to add.
        amount: u64,
    },
    /// Atomically take units from several containers. The request is granted
    /// only when **all** containers can supply their amount and the request
    /// is at the head of every involved FIFO queue — all-or-nothing, so
    /// partial-hold deadlocks cannot occur.
    GetAll(Vec<(ContainerId, u64)>),
    /// Atomically add units to several containers (all-or-nothing, FIFO).
    PutAll(Vec<(ContainerId, u64)>),
    /// Like [`Effect::Get`] with an explicit queue priority: lower values
    /// are served first; equal priorities stay FIFO. A waiting
    /// high-priority request overtakes queued lower-priority ones
    /// (non-preemptive priority service, as in SimPy's `PriorityResource`).
    GetPri {
        /// Source container.
        container: ContainerId,
        /// Units to take.
        amount: u64,
        /// Queue priority (lower = more urgent; plain `Get` is priority 0).
        priority: i32,
    },
    /// Like [`Effect::GetAll`] with an explicit queue priority.
    GetAllPri {
        /// `(container, amount)` parts, granted all-or-nothing.
        parts: Vec<(ContainerId, u64)>,
        /// Queue priority (lower = more urgent).
        priority: i32,
    },
    /// Park until another component calls [`Simulation::wake`].
    Suspend,
    /// Immediately reschedule at the current time, after already-queued
    /// events (a cooperative yield).
    Yield,
}

/// Result of one resumption of a [`Coroutine`].
#[derive(Debug)]
pub enum Step {
    /// The process blocks on the given effect.
    Wait(Effect),
    /// The process has finished and will be dropped.
    Done,
}

/// A cooperative simulation process.
///
/// Implementations are state machines: keep an explicit `state` enum field,
/// advance it in `resume`, and yield the effect the new state waits on.
pub trait Coroutine: Send {
    /// Advances the process. Called once at spawn time and then once per
    /// completed effect.
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step;

    /// Optional human-readable label for diagnostics.
    fn label(&self) -> &str {
        "process"
    }
}

/// The kernel-side view handed to a process while it runs.
///
/// `Ctx` exposes read-only queries (time, container levels), the simulation's
/// RNG, tracing, and the ability to spawn further processes. All *blocking*
/// interactions go through the yielded [`Effect`] instead.
pub struct Ctx<'a> {
    pub(crate) sim: &'a mut Simulation,
    pub(crate) pid: ProcessId,
}

impl Ctx<'_> {
    /// Current simulation time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.sim.now()
    }

    /// The id of the running process.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current level of a container.
    #[inline]
    pub fn level(&self, c: ContainerId) -> u64 {
        self.sim.container(c).level()
    }

    /// Capacity of a container.
    #[inline]
    pub fn capacity(&self, c: ContainerId) -> u64 {
        self.sim.container(c).capacity()
    }

    /// Instantaneous busy fraction of a container: `1 - level/capacity`.
    #[inline]
    pub fn busy_fraction(&self, c: ContainerId) -> f64 {
        let cont = self.sim.container(c);
        if cont.capacity() == 0 {
            0.0
        } else {
            1.0 - cont.level() as f64 / cont.capacity() as f64
        }
    }

    /// Time-weighted mean utilisation of a container since t = 0.
    #[inline]
    pub fn mean_utilization(&self, c: ContainerId) -> f64 {
        let now = self.sim.now();
        self.sim.container(c).mean_utilization(now)
    }

    /// Mutable access to the simulation's root RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        self.sim.rng()
    }

    /// Spawns a child process, scheduled to start at the current time.
    pub fn spawn(&mut self, co: Box<dyn Coroutine>) -> ProcessId {
        self.sim.spawn(co)
    }

    /// Spawns a child process that starts after `delay` seconds.
    pub fn spawn_after(&mut self, delay: f64, co: Box<dyn Coroutine>) -> ProcessId {
        self.sim.spawn_after(delay, co)
    }

    /// Wakes a process parked on [`Effect::Suspend`].
    pub fn wake(&mut self, pid: ProcessId) {
        self.sim.wake(pid);
    }

    /// Wakes several suspended processes in slice order. The order is part
    /// of the contract: wakes enqueue resume events at the current time, so
    /// callers fanning out to many waiters (e.g. a router finalising every
    /// shard scheduler at once) get a deterministic resume sequence.
    pub fn wake_many(&mut self, pids: &[ProcessId]) {
        for &pid in pids {
            self.sim.wake(pid);
        }
    }

    /// Interrupts another process: cancels its current wait (timeout,
    /// container request, or suspension) and reschedules it at the current
    /// time with its interrupted flag set. See [`Simulation::interrupt`].
    pub fn interrupt(&mut self, pid: ProcessId) -> bool {
        self.sim.interrupt(pid)
    }

    /// Terminates another process immediately (drops its body, cancels any
    /// queued request; held units are the killer's to return). Returns
    /// `false` if it had already finished. See [`Simulation::kill`].
    pub fn kill(&mut self, pid: ProcessId) -> bool {
        self.sim.kill(pid)
    }

    /// Whether this process's last wait was cut short by
    /// [`Simulation::interrupt`]. Reading does not clear the flag; use
    /// [`Ctx::take_interrupted`] for consume-on-read semantics.
    #[inline]
    pub fn interrupted(&self) -> bool {
        self.sim.interrupted(self.pid)
    }

    /// Reads **and clears** this process's interrupted flag. Call at the
    /// top of `resume` after any wait that an interrupter might target:
    /// `true` means the wait did not complete normally (a cancelled
    /// timeout slept short; a cancelled request acquired nothing).
    #[inline]
    pub fn take_interrupted(&mut self) -> bool {
        self.sim.take_interrupted(self.pid)
    }

    /// Atomically withdraws `parts` from several containers **without
    /// blocking**: if every container can supply its amount right now, the
    /// withdrawal happens and `true` is returned; otherwise nothing changes.
    ///
    /// This is the primitive for *scheduler-style* components that keep
    /// their own queue discipline instead of the containers' FIFO queues.
    pub fn try_withdraw_many(&mut self, parts: &[(ContainerId, u64)]) -> bool {
        let ok = parts
            .iter()
            .all(|&(c, amt)| self.sim.container(c).can_get(amt));
        if ok {
            for &(c, amt) in parts {
                if amt > 0 {
                    self.sim.withdraw(c, amt);
                }
            }
        }
        ok
    }

    /// Deposits `parts` into several containers immediately (never blocks;
    /// panics on overflow, which indicates a release/acquire imbalance).
    pub fn deposit_many(&mut self, parts: &[(ContainerId, u64)]) {
        for &(c, amt) in parts {
            if amt > 0 {
                self.sim.deposit(c, amt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let pid = ProcessId::new(7, 3);
        assert_eq!(pid.index(), 7);
        assert_eq!(pid.generation(), 3);
        assert_eq!(ProcessId::from_raw(pid.as_raw()), pid);
        // Different generations of the same slot are distinct handles.
        assert_ne!(ProcessId::new(7, 3), ProcessId::new(7, 4));
    }

    #[test]
    fn effect_equality() {
        assert_eq!(Effect::Timeout(1.0), Effect::Timeout(1.0));
        assert_ne!(Effect::Timeout(1.0), Effect::Yield);
    }
}
