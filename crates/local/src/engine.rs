//! Synchronous LOCAL round engine and metrics.
//!
//! The LOCAL model charges one round per synchronous message exchange.  The
//! procedures in this workspace are written as whole-graph data-parallel
//! passes, so the engine's job is to *account* rounds and message volume
//! rather than to route individual messages: each procedure declares how
//! many LOCAL rounds a pass costs, mirroring how the paper charges its
//! subprocedures (Definition 5 fixes a per-procedure τ).

/// Cumulative LOCAL-model metrics for one execution.
#[derive(Clone, Debug, Default)]
pub struct LocalMetrics {
    /// Total LOCAL rounds charged.
    pub rounds: u64,
    /// Total messages (words) charged across all rounds.
    pub messages: u64,
    /// Per-phase breakdown: (label, rounds, messages).
    pub phases: Vec<(String, u64, u64)>,
}

impl LocalMetrics {
    /// Accumulate another execution's metrics into this one.
    pub fn merge(&mut self, other: &LocalMetrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.phases.extend(other.phases.iter().cloned());
    }
}

/// Round accountant for a LOCAL execution.
///
/// Usage: `engine.charge("slack_color", rounds, messages)` after each pass.
/// A `RoundEngine` is deliberately cheap (no interior locking) — executions
/// are single-owner; cross-seed parallel evaluation clones sub-engines and
/// discards them (only the chosen seed's run is charged).
#[derive(Clone, Debug, Default)]
pub struct RoundEngine {
    metrics: LocalMetrics,
    phase_label: Option<String>,
    phase_start_rounds: u64,
    phase_start_messages: u64,
}

impl RoundEngine {
    /// Fresh engine with zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `rounds` LOCAL rounds and `messages` words of communication.
    pub fn charge(&mut self, rounds: u64, messages: u64) {
        self.metrics.rounds += rounds;
        self.metrics.messages += messages;
    }

    /// Begin a labelled phase (ends any open phase).
    pub fn begin_phase(&mut self, label: impl Into<String>) {
        self.end_phase();
        self.phase_label = Some(label.into());
        self.phase_start_rounds = self.metrics.rounds;
        self.phase_start_messages = self.metrics.messages;
    }

    /// Close the open phase, recording its deltas.
    pub fn end_phase(&mut self) {
        if let Some(label) = self.phase_label.take() {
            self.metrics.phases.push((
                label,
                self.metrics.rounds - self.phase_start_rounds,
                self.metrics.messages - self.phase_start_messages,
            ));
        }
    }

    /// Rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Message words charged so far.
    pub fn messages(&self) -> u64 {
        self.metrics.messages
    }

    /// Finish and extract metrics.
    pub fn finish(mut self) -> LocalMetrics {
        self.end_phase();
        self.metrics
    }

    /// Read-only snapshot.
    pub fn metrics(&self) -> &LocalMetrics {
        &self.metrics
    }
}

/// `log* x` with base-2 iterated logarithm (number of times `log2` must be
/// applied before the value drops to at most 1).  Used in round-budget
/// assertions: SlackColor runs `O(log* n)` LOCAL rounds.
pub fn log_star(x: f64) -> u32 {
    let mut v = x;
    let mut k = 0;
    while v > 1.0 {
        v = v.log2();
        k += 1;
        if k > 64 {
            break;
        }
    }
    k
}

/// Iterated exponentiation `2 ↑↑ i` saturating at `u64::MAX`
/// (`2↑↑0 = 1`, `2↑↑(i+1) = 2^(2↑↑i)`), as used by SlackColor's
/// doubling schedule (Algorithm 2, line 5 of the paper).
pub fn tower(i: u32) -> u64 {
    let mut v: u64 = 1;
    for _ in 0..i {
        if v >= 64 {
            return u64::MAX;
        }
        v = 1u64 << v;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut e = RoundEngine::new();
        e.charge(3, 100);
        e.charge(2, 50);
        assert_eq!(e.rounds(), 5);
        assert_eq!(e.messages(), 150);
    }

    #[test]
    fn phases_record_deltas() {
        let mut e = RoundEngine::new();
        e.begin_phase("a");
        e.charge(2, 10);
        e.begin_phase("b");
        e.charge(5, 20);
        let m = e.finish();
        assert_eq!(m.phases, vec![("a".into(), 2, 10), ("b".into(), 5, 20)]);
        assert_eq!(m.rounds, 7);
    }

    #[test]
    fn metrics_merge() {
        let mut a = LocalMetrics {
            rounds: 1,
            messages: 2,
            phases: vec![("x".into(), 1, 2)],
        };
        let b = LocalMetrics {
            rounds: 3,
            messages: 4,
            phases: vec![("y".into(), 3, 4)],
        };
        a.merge(&b);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.messages, 6);
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(1e18), 5);
    }

    #[test]
    fn tower_values() {
        assert_eq!(tower(0), 1);
        assert_eq!(tower(1), 2);
        assert_eq!(tower(2), 4);
        assert_eq!(tower(3), 16);
        assert_eq!(tower(4), 65536);
        assert_eq!(tower(5), u64::MAX); // saturates: 2^65536
    }

    #[test]
    fn unlabelled_charges_have_no_phase() {
        let mut e = RoundEngine::new();
        e.charge(1, 1);
        let m = e.finish();
        assert!(m.phases.is_empty());
        assert_eq!(m.rounds, 1);
    }
}
