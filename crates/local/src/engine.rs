//! Synchronous LOCAL round accounting.
//!
//! The LOCAL model charges one round per synchronous message exchange.  The
//! procedures in this workspace are written as whole-graph data-parallel
//! passes, so the engine's job is to *count* rounds rather than to route
//! individual messages: each procedure declares how many LOCAL rounds a
//! pass costs, mirroring how the paper charges its subprocedures
//! (Definition 5 fixes a per-procedure τ).

/// Round counter for a LOCAL execution.
///
/// Usage: `engine.charge(rounds)` after each pass; the solver reports
/// [`RoundEngine::rounds`] as its LOCAL round count.
#[derive(Clone, Debug, Default)]
pub struct RoundEngine {
    rounds: u64,
}

impl RoundEngine {
    /// Fresh engine with no rounds charged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `rounds` LOCAL rounds.
    pub fn charge(&mut self, rounds: u64) {
        self.rounds += rounds;
    }

    /// Rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
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
        e.charge(3);
        e.charge(2);
        assert_eq!(e.rounds(), 5);
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
}
