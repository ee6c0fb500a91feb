//! # qcs-desim — deterministic discrete-event simulation kernel
//!
//! A process-interaction discrete-event simulation (DES) engine in the style
//! of [SimPy](https://simpy.readthedocs.io), built for the `qcs` quantum cloud
//! simulator (Luo et al., ICPP 2025) but fully general.
//!
//! ## Model
//!
//! * A [`Simulation`] owns a monotone event heap, a set of *processes*
//!   (cooperative coroutines implementing [`Coroutine`]), and a set of
//!   [`Container`]s (counted resources with FIFO blocking semantics).
//! * Processes advance by returning [`Step::Wait`] with an [`Effect`] —
//!   a timeout, a (multi-)container get/put, or a suspension. The kernel
//!   resumes them when the effect completes.
//! * Multi-container requests ([`Effect::GetAll`]) are **atomic and
//!   all-or-nothing**: a job reserving qubits on several quantum devices
//!   either acquires every partition or keeps waiting, which makes
//!   cross-device reservation deadlock-free by construction.
//! * Requests carry an optional **priority** ([`Effect::GetPri`],
//!   [`Effect::GetAllPri`]): lower values are served first and may overtake
//!   queued lower-priority requests (non-preemptive priority service);
//!   equal priorities stay strictly FIFO. The service key `(priority,
//!   submission order)` is global across containers, so multi-container
//!   priority requests inherit the FIFO deadlock-freedom argument.
//! * Processes can be **interrupted** ([`Simulation::interrupt`]): a
//!   pending timeout, container request or suspension is cancelled and the
//!   process resumes immediately with a flag it reads via
//!   [`process::Ctx::take_interrupted`] — the building block for reneging
//!   (give up after waiting too long), watchdogs, and preemptive failure
//!   injection.
//! * Everything is deterministic: events are ordered by `(time, seq)`,
//!   requests by `(priority, ticket)`, and all randomness flows from
//!   explicit seeds through the bundled [`rng::Xoshiro256StarStar`]
//!   generator.
//!
//! ## Slab allocation and handles
//!
//! Processes and scheduled resume events live in `Vec`-backed slabs with
//! free lists: a finished or killed process returns its slot to a pool
//! that the next spawn reuses, and every heap entry names a pooled event
//! slot, so long runs (100k+ jobs) recycle a bounded set of allocations
//! instead of growing without bound.
//!
//! Handles ([`ProcessId`], [`kernel::EventId`]) are `(index, generation)`
//! pairs. Freeing a slot bumps its generation, so a handle from a previous
//! occupant can never resolve to the new one:
//!
//! * [`Simulation::wake`] / [`Simulation::interrupt`] /
//!   [`Simulation::kill`] through a stale handle return `false` and do
//!   nothing — holding a pid of a finished process is always safe, even
//!   after its slot was reused;
//! * [`Simulation::is_done`] answers `true` for a stale handle (that
//!   incarnation is gone);
//! * [`ProcessId::as_raw`] packs `(index, generation)` into a `u64` for
//!   storage in atomics/registries, and [`ProcessId::from_raw`] restores
//!   the full handle — staleness checks survive the round-trip.
//!
//! Cancelling a pending wait (interrupt, kill) frees the event slot and
//! leaves the heap entry behind; the kernel recognises it as stale by its
//! generation when popped and discards it without advancing the clock.
//!
//! ## Quick example
//!
//! ```
//! use qcs_desim::{Simulation, Coroutine, Ctx, Step, Effect};
//!
//! struct Pulse { remaining: u32 }
//! impl Coroutine for Pulse {
//!     fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
//!         if self.remaining == 0 { return Step::Done; }
//!         self.remaining -= 1;
//!         Step::Wait(Effect::Timeout(1.5))
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! sim.spawn(Box::new(Pulse { remaining: 4 }));
//! sim.run();
//! assert_eq!(sim.now(), 6.0);
//! ```

#![warn(missing_docs)]

pub mod container;
pub mod dist;
pub mod kernel;
pub mod parallel;
pub mod process;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod store;
pub mod time;

pub use container::{Container, ContainerId};
pub use kernel::{EventId, SimConfig, Simulation};
pub use process::{Coroutine, Ctx, Effect, ProcessId, Step};
pub use resource::Resource;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, TimeWeighted, Welford};
pub use store::Store;
pub use time::SimTime;
