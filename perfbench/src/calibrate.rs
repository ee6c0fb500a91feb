//! Host-speed calibration.
//!
//! The development host is a share of a machine other tenants also load,
//! and its speed changes in phases of seconds to minutes: the same
//! iteration can take 30–50% longer in a slow phase. Medians within a run
//! cannot remove phases as long as the run. So a run also times a fixed,
//! benchmark-owned reference kernel ([`Reference`]) before the first
//! iteration and after every iteration. An iteration's slowdown is the
//! mean of the two reference times around it over [`NOMINAL_S`], and the
//! end-to-end metrics divide the iteration's host times by it: they are
//! host times on a host as fast as the development host in a quiet phase.
//! The kernel does not call the product, so a change to the product moves
//! the calibrated times exactly as much as the raw ones. The raw numbers
//! are printed too.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's wall time on the development host (Intel Xeon,
/// 2-vCPU KVM guest) in a quiet phase, in seconds.
pub const NOMINAL_S: f64 = 0.075;

/// The host's slowdown over an iteration bracketed by two reference
/// timings: 1 in a quiet phase, above 1 when the host is slower.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    0.5 * (before_s + after_s) / NOMINAL_S
}

/// A fixed mix of the kinds of work the simulator and the trainer do:
/// sorting floats (branchy comparisons), an event heap (the desim
/// kernel's queue) and a small dense f32 matrix product (the policy
/// network's arithmetic). Its buffers are allocated once, so its speed
/// does not depend on the heap state the workloads leave behind.
pub struct Reference {
    floats: Vec<f64>,
    heap: BinaryHeap<u64>,
    a: Vec<f32>,
    c: Vec<f32>,
}

const FLOATS: usize = 25_000;
const HEAP: usize = 20_000;
const N: usize = 64;

impl Default for Reference {
    fn default() -> Self {
        Reference {
            floats: Vec::with_capacity(FLOATS),
            heap: BinaryHeap::with_capacity(HEAP + 1),
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect(),
            c: vec![0.0; N * N],
        }
    }
}

impl Reference {
    /// Times one run of the kernel, in seconds.
    pub fn time_s(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.run());
        t0.elapsed().as_secs_f64()
    }

    /// Runs the kernel; every run does the same work and returns the same
    /// value.
    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };

        let mut median = 0.0;
        for _ in 0..16 {
            self.floats.clear();
            self.floats
                .extend((0..FLOATS).map(|_| (next() % 1_000_000) as f64));
            self.floats.sort_unstable_by(f64::total_cmp);
            median += self.floats[FLOATS / 2];
        }

        self.heap.clear();
        self.heap.extend((0..HEAP).map(|_| next() % 1_000_000));
        let mut popped = 0u64;
        for _ in 0..300_000 {
            let top = self.heap.pop().unwrap_or(0);
            popped = popped.wrapping_add(top);
            self.heap.push(next() % 1_000_000);
        }

        self.c.fill(0.0);
        for _ in 0..150 {
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for j in 0..N {
                        self.c[i * N + j] += aik * self.a[k * N + j];
                    }
                }
            }
            black_box(&mut self.c);
        }

        median as u64 ^ popped ^ self.c[N + 1].to_bits() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_run() {
        let mut r = Reference::default();
        assert_eq!(r.run(), r.run());
        assert_eq!(r.run(), Reference::default().run());
    }

    #[test]
    fn slowdown_is_the_bracketing_mean_over_nominal() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(slowdown(NOMINAL_S, 2.0 * NOMINAL_S), 1.5);
    }
}
