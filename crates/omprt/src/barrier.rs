//! The team barrier.
//!
//! One implementation: a central sense-reversing barrier with bounded
//! spinning before parking. The runtime exposes *distinct* implicit and
//! explicit barrier entry points built on it — the paper had to split its
//! single `__ompc_barrier` call into implicit/explicit variants so the two
//! could be distinguished by tools (§IV-C2); we mirror that split at the
//! runtime-call layer (`crate::context`), not in the algorithm.
//!
//! ## Scalability notes
//!
//! The arrival counter and the sense flag live in separate
//! [`CachePadded`] cells so an arrival `fetch_add` never invalidates the
//! line a late spinner is polling. Waiting is per-thread: each
//! participant owns a [`ParkSlot`] and the releaser unparks only the
//! slots whose owners actually blocked — threads still in their spin
//! phase cost the releaser one uncontended atomic swap, and there is no
//! shared mutex or `notify_all` herd anywhere on the path. Counter
//! *reset* is part of the release edge: the releaser zeroes the counter
//! and only then publishes the sense flip, so a next-episode arrival
//! (which must first have observed the flip) can never read a stale
//! count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ora_core::pad::CachePadded;
use ora_core::park::ParkSlot;

/// A reusable barrier for a fixed-size team.
pub struct Barrier {
    size: usize,
    /// Arrivals in the current episode.
    count: CachePadded<AtomicUsize>,
    /// Sense flag on its own line: written once per episode, polled by
    /// every spinner — must not share a line with the arrival counter.
    sense: CachePadded<AtomicBool>,
    /// One parking spot per participant, each on its own line.
    slots: Box<[CachePadded<ParkSlot>]>,
}

impl Barrier {
    /// A barrier for `size` threads.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "barrier needs at least one participant");
        Barrier {
            size,
            count: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicBool::new(false)),
            slots: (0..size)
                .map(|_| CachePadded::new(ParkSlot::new()))
                .collect(),
        }
    }

    /// Number of participating threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wait until all `size` threads have called `wait` for this episode.
    /// Reusable across episodes (sense reversal).
    pub fn wait(&self, tid: usize) {
        debug_assert!(tid < self.size);
        if self.size == 1 {
            return; // solo team: nothing to synchronize
        }
        let local_sense = !self.sense.load(Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            // Reset *before* the sense flip so the reset is ordered into
            // the release edge: a thread can only start the next episode
            // after acquiring the flip, which makes this plain store
            // visible to it.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(local_sense, Ordering::Release);
            // Targeted wake: one swap per slot, a syscall only for owners
            // that actually parked (ParkSlot reports PARKED state).
            for (tid_other, slot) in self.slots.iter().enumerate() {
                if tid_other != tid {
                    slot.unpark();
                }
            }
        } else {
            let sense = &self.sense;
            self.slots[tid].wait(crate::spin::long_budget(), || {
                sense.load(Ordering::Acquire) == local_sense
            });
        }
    }
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier").field("size", &self.size).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn exercise(threads: usize, episodes: usize) {
        let barrier = Arc::new(Barrier::new(threads));
        let phase = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = barrier.clone();
                let phase = phase.clone();
                std::thread::spawn(move || {
                    for ep in 0..episodes {
                        // Everyone must observe the same completed phase
                        // count before entering episode `ep`.
                        assert_eq!(phase.load(Ordering::SeqCst) / threads as u64, ep as u64);
                        phase.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(tid);
                        // After the barrier, all arrivals of this episode
                        // are visible.
                        assert!(phase.load(Ordering::SeqCst) >= ((ep + 1) * threads) as u64);
                        barrier.wait(tid); // separate episodes
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), (threads * episodes) as u64);
    }

    #[test]
    fn central_barrier_synchronizes_and_reuses() {
        exercise(4, 50);
    }

    #[test]
    fn central_barrier_handles_odd_team_sizes() {
        for threads in [1, 2, 3, 5, 7] {
            exercise(threads, 10);
        }
    }

    #[test]
    fn single_thread_barrier_is_a_no_op() {
        let b = Barrier::new(1);
        for _ in 0..10 {
            b.wait(0);
        }
    }

    #[test]
    fn parked_waiters_are_released() {
        // Force parking by making one thread arrive long after the others.
        let b = Arc::new(Barrier::new(2));
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.wait(1));
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.wait(0);
        h.join().unwrap();
    }
}
