//! Round and space accounting for the Lemma 17 charges.
//!
//! `graphops` folds each charge over its nodes on the `parcolor-exec`
//! pool and publishes the fold once through
//! [`MpcMetrics::observe_machines`], so per-node closures never touch
//! these atomics.  Every tracker is an atomic (`fetch_add`/`fetch_max`),
//! so callers may publish from any thread without a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate metrics of an MPC execution.
#[derive(Debug, Default)]
pub struct MpcMetrics {
    rounds: AtomicU64,
    max_machine_words: AtomicU64,
    budget_violations: AtomicU64,
}

/// Point-in-time snapshot of [`MpcMetrics`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Total rounds charged.
    pub rounds: u64,
    /// Peak words held by any single machine.
    pub max_machine_words: u64,
    /// Number of times a machine exceeded its budget.
    pub budget_violations: u64,
}

impl MpcMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `r` synchronous rounds.
    pub fn add_rounds(&self, r: u64) {
        self.rounds.fetch_add(r, Ordering::Relaxed);
    }

    /// Record that some machine currently holds `words` words.
    pub fn observe_machine(&self, words: u64, budget: u64) {
        self.observe_machines(words, u64::from(words > budget));
    }

    /// Record a folded batch of machines whose largest holds `max_words`
    /// words and of which `over_budget` exceeded their budget — the same
    /// totals as one [`observe_machine`](Self::observe_machine) per
    /// machine, published with one update per tracker.
    pub fn observe_machines(&self, max_words: u64, over_budget: u64) {
        self.max_machine_words
            .fetch_max(max_words, Ordering::Relaxed);
        if over_budget > 0 {
            self.budget_violations
                .fetch_add(over_budget, Ordering::Relaxed);
        }
    }

    /// Total rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Peak single-machine residency so far.
    pub fn max_machine_words(&self) -> u64 {
        self.max_machine_words.load(Ordering::Relaxed)
    }

    /// Budget violations recorded so far.
    pub fn budget_violations(&self) -> u64 {
        self.budget_violations.load(Ordering::Relaxed)
    }

    /// Snapshot of the totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rounds: self.rounds.load(Ordering::Relaxed),
            max_machine_words: self.max_machine_words.load(Ordering::Relaxed),
            budget_violations: self.budget_violations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_and_messages_accumulate() {
        let m = MpcMetrics::new();
        m.add_rounds(2);
        m.add_rounds(3);
        assert_eq!(m.rounds(), 5);
    }

    #[test]
    fn machine_peak_tracks_max() {
        let m = MpcMetrics::new();
        m.observe_machine(10, 100);
        m.observe_machine(50, 100);
        m.observe_machine(20, 100);
        assert_eq!(m.max_machine_words(), 50);
        assert_eq!(m.budget_violations(), 0);
    }

    #[test]
    fn violations_count() {
        let m = MpcMetrics::new();
        m.observe_machine(101, 100);
        m.observe_machine(99, 100);
        m.observe_machine(150, 100);
        assert_eq!(m.budget_violations(), 2);
    }

    #[test]
    fn concurrent_observation_is_safe() {
        const THREADS: u64 = 4;
        let m = MpcMetrics::new();
        // Each thread observes a disjoint slice of 0..1000; the barrier
        // releases them together so the atomics see contended updates.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    start.wait();
                    for i in (t * 1000 / THREADS)..((t + 1) * 1000 / THREADS) {
                        m.observe_machine(i, 500);
                    }
                });
            }
        });
        assert_eq!(m.max_machine_words(), 999);
        assert_eq!(m.budget_violations(), 499);
    }
}
