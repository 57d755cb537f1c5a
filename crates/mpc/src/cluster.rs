//! Materialized record-level MPC engine.
//!
//! Records genuinely live in per-machine buffers; exchanges genuinely move
//! them.  The primitives below are the ones the paper's Section 2.1 takes
//! from Goodrich–Sitchinava–Zhang \[GSZ11\]: constant-round deterministic
//! sorting, prefix sums, and broadcast — "with this tool, we can gather
//! nodes' neighborhoods to contiguous blocks of machines … in O(1) rounds".
//!
//! Round charges: `sort_by_key` charges 3 rounds (sample gather, splitter
//! broadcast, routed exchange), `prefix_sum` charges 2 (converge-cast,
//! scatter), `exchange` and `broadcast` charge 1.  Local computation within
//! a round is free in the model and runs machine by machine here.

use crate::config::MpcConfig;
use crate::metrics::MpcMetrics;

/// A dataset partitioned across machines.
#[derive(Clone, Debug)]
pub struct Dist<T> {
    /// One buffer per machine.
    pub parts: Vec<Vec<T>>,
}

impl<T> Dist<T> {
    /// Number of machines holding the dataset.
    pub fn machine_count(&self) -> usize {
        self.parts.len()
    }

    /// Total records across machines.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Whether no machine holds any record.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Concatenate all machine buffers (test/inspection helper — a real
    /// MPC could not do this, so production code must not rely on it).
    pub fn gather(self) -> Vec<T> {
        self.parts.into_iter().flatten().collect()
    }
}

/// The cluster: a machine-count, a per-machine word budget, and metrics.
pub struct Cluster {
    cfg: MpcConfig,
    metrics: MpcMetrics,
}

impl Cluster {
    /// Create a cluster with fresh metrics.
    pub fn new(cfg: MpcConfig) -> Self {
        Cluster {
            cfg,
            metrics: MpcMetrics::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &MpcMetrics {
        &self.metrics
    }

    fn capacity(&self) -> usize {
        self.cfg.local_space()
    }

    fn observe_dist<T>(&self, d: &Dist<T>, words_per: usize) {
        let cap = self.capacity() as u64;
        let mut global = 0u64;
        for p in &d.parts {
            let w = (p.len() * words_per) as u64;
            self.metrics.observe_machine(w, cap);
            global += w;
        }
        self.metrics.observe_global(global);
    }

    /// Load `items` onto the minimum number of machines, filling each to
    /// (at most) its word budget.  `words_per` is the width of one record
    /// in machine words.
    pub fn distribute<T: Send>(&self, items: Vec<T>, words_per: usize) -> Dist<T> {
        assert!(words_per >= 1);
        let per = (self.capacity() / words_per).max(1);
        let mut parts: Vec<Vec<T>> = Vec::new();
        let mut cur = Vec::with_capacity(per.min(items.len()));
        for it in items {
            if cur.len() == per {
                parts.push(std::mem::take(&mut cur));
            }
            cur.push(it);
        }
        parts.push(cur);
        let d = Dist { parts };
        self.observe_dist(&d, words_per);
        d
    }

    /// Per-machine transformation within a single round (free in the
    /// model; the closure sees the machine index and its buffer).
    pub fn map_machines<T: Send, U: Send>(
        &self,
        d: Dist<T>,
        words_per_out: usize,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Sync,
    ) -> Dist<U> {
        let parts: Vec<Vec<U>> = d
            .parts
            .into_iter()
            .enumerate()
            .map(|(i, p)| f(i, p))
            .collect();
        let out = Dist { parts };
        self.observe_dist(&out, words_per_out);
        out
    }

    /// Route every record to the machine named by `route`; one round.
    /// Send and receive volumes are charged against the budget.
    pub fn exchange<T: Send>(
        &self,
        d: Dist<T>,
        words_per: usize,
        route: impl Fn(&T) -> usize + Sync,
    ) -> Dist<T> {
        let p = d.machine_count();
        // Outboxes: machine i computes, for each destination, its records.
        let outboxes: Vec<Vec<(usize, T)>> = d
            .parts
            .into_iter()
            .map(|part| {
                part.into_iter()
                    .map(|r| {
                        let dest = route(&r);
                        assert!(dest < p, "route produced machine {dest} of {p}");
                        (dest, r)
                    })
                    .collect()
            })
            .collect();
        let cap = self.capacity() as u64;
        let mut total_msgs = 0u64;
        for ob in &outboxes {
            let w = (ob.len() * words_per) as u64;
            self.metrics.observe_machine(w, cap); // send volume
            total_msgs += w;
        }
        let mut parts: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for ob in outboxes {
            for (dest, r) in ob {
                parts[dest].push(r);
            }
        }
        self.metrics.add_rounds(1);
        self.metrics.add_messages(total_msgs);
        let out = Dist { parts };
        self.observe_dist(&out, words_per); // receive volume
        out
    }

    /// Deterministic sample sort by `key`; 3 rounds.  The result is
    /// globally sorted: every record on machine `i` precedes every record
    /// on machine `i+1`, and each buffer is locally sorted.  Stable for
    /// equal keys only up to machine granularity — callers needing total
    /// determinism should use distinct keys (all call sites do).
    pub fn sort_by_key<T, K>(
        &self,
        d: Dist<T>,
        words_per: usize,
        key: impl Fn(&T) -> K + Sync,
    ) -> Dist<T>
    where
        T: Send,
        K: Ord + Copy + Send + Sync,
    {
        let p = d.machine_count();
        if p <= 1 {
            self.metrics.add_rounds(3);
            return self.map_machines(d, words_per, |_, mut part| {
                part.sort_by_key(&key);
                part
            });
        }
        // Round 0 (local): sort each buffer.
        let d = self.map_machines(d, words_per, |_, mut part| {
            part.sort_by_key(&key);
            part
        });
        // Round 1: every machine sends p evenly spaced sample keys to the
        // coordinator (machine 0).  p² words must fit on the coordinator.
        let mut samples: Vec<K> = Vec::with_capacity(p * p);
        for part in &d.parts {
            if part.is_empty() {
                continue;
            }
            for j in 0..p {
                let idx = (j * part.len()) / p;
                samples.push(key(&part[idx]));
            }
        }
        self.metrics.add_rounds(1);
        self.metrics.add_messages(samples.len() as u64);
        self.metrics
            .observe_machine(samples.len() as u64, self.capacity() as u64);
        samples.sort_unstable();
        // p-1 splitters (round 2: broadcast).
        let splitters: Vec<K> = (1..p).map(|i| samples[(i * samples.len()) / p]).collect();
        self.metrics.add_rounds(1);
        self.metrics.add_messages((splitters.len() * p) as u64);
        // Round 3: route by splitter bucket.
        let routed = self.exchange(d, words_per, |r| {
            let k = key(r);
            splitters.partition_point(|s| *s <= k)
        });
        // Local merge (free).
        self.map_machines(routed, words_per, |_, mut part| {
            part.sort_by_key(&key);
            part
        })
    }

    /// Exclusive prefix sum of `value` over the global record order;
    /// 2 rounds.  Returns the dataset with each record paired with the sum
    /// of all values strictly before it.
    pub fn prefix_sum<T: Send + Sync>(
        &self,
        d: Dist<T>,
        words_per: usize,
        value: impl Fn(&T) -> u64 + Sync,
    ) -> Dist<(T, u64)> {
        let local_sums: Vec<u64> = d
            .parts
            .iter()
            .map(|part| part.iter().map(&value).sum::<u64>())
            .collect();
        // Converge-cast local sums to coordinator, scatter offsets back.
        self.metrics.add_rounds(2);
        self.metrics.add_messages(2 * local_sums.len() as u64);
        let mut offsets = Vec::with_capacity(local_sums.len());
        let mut acc = 0u64;
        for s in &local_sums {
            offsets.push(acc);
            acc += s;
        }
        let parts: Vec<Vec<(T, u64)>> = d
            .parts
            .into_iter()
            .zip(offsets)
            .map(|(part, mut off)| {
                part.into_iter()
                    .map(|r| {
                        let v = value(&r);
                        let out = (r, off);
                        off += v;
                        out
                    })
                    .collect()
            })
            .collect();
        let out = Dist { parts };
        self.observe_dist(&out, words_per + 1);
        out
    }

    /// Broadcast a small value from the coordinator to all machines;
    /// 1 round (constant-fan-out trees would take `O(1/φ)` rounds; the
    /// model charges O(1)).
    pub fn broadcast<V: Clone>(&self, v: V, machine_count: usize) -> Vec<V> {
        self.metrics.add_rounds(1);
        self.metrics.add_messages(machine_count as u64);
        vec![v; machine_count]
    }

    /// Converge-cast an associative reduction of per-machine summaries;
    /// 1 round.
    pub fn all_reduce<T: Send + Sync, A: Send>(
        &self,
        d: &Dist<T>,
        summarize: impl Fn(&[T]) -> A + Sync,
        combine: impl Fn(A, A) -> A,
        identity: A,
    ) -> A {
        let partials: Vec<A> = d.parts.iter().map(|p| summarize(p)).collect();
        self.metrics.add_rounds(1);
        self.metrics.add_messages(partials.len() as u64);
        partials.into_iter().fold(identity, combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(n: usize) -> Cluster {
        // phi = 0.5, constant 8 → enough machines to make routing non-trivial.
        Cluster::new(MpcConfig::new(n, n, 0.5).with_space_constant(2.0))
    }

    #[test]
    fn distribute_respects_capacity() {
        let c = small_cluster(256);
        let cap = c.config().local_space();
        let d = c.distribute((0..1000u64).collect(), 1);
        assert!(d.parts.iter().all(|p| p.len() <= cap));
        assert_eq!(d.len(), 1000);
        assert_eq!(c.metrics().budget_violations(), 0);
    }

    #[test]
    fn sort_orders_globally() {
        let c = small_cluster(1024);
        let items: Vec<u64> = (0..5000u64).map(|i| (i * 2_654_435_761) % 5000).collect();
        let d = c.distribute(items.clone(), 1);
        let sorted = c.sort_by_key(d, 1, |&x| x);
        // Globally non-decreasing across machine boundaries.
        let flat = sorted.gather();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(flat, expect);
        assert!(c.metrics().rounds() >= 3);
    }

    #[test]
    fn sort_charges_constant_rounds() {
        let c = small_cluster(4096);
        let d = c.distribute((0..20_000u64).rev().collect(), 1);
        let before = c.metrics().rounds();
        let _ = c.sort_by_key(d, 1, |&x| x);
        let after = c.metrics().rounds();
        assert!(after - before <= 4, "sort used {} rounds", after - before);
    }

    #[test]
    fn exchange_routes_and_counts() {
        let c = small_cluster(256);
        let d = c.distribute((0..100u64).collect(), 1);
        let p = d.machine_count();
        let routed = c.exchange(d, 1, |&x| (x as usize) % p);
        for (i, part) in routed.parts.iter().enumerate() {
            assert!(part.iter().all(|&x| x as usize % p == i));
        }
        assert_eq!(routed.len(), 100);
    }

    #[test]
    fn prefix_sum_matches_scan() {
        let c = small_cluster(512);
        let vals: Vec<u64> = (1..=100).collect();
        let d = c.distribute(vals.clone(), 1);
        let scanned = c.prefix_sum(d, 1, |&v| v).gather();
        let mut acc = 0;
        for (i, (v, off)) in scanned.iter().enumerate() {
            assert_eq!(*v, vals[i]);
            assert_eq!(*off, acc, "at {i}");
            acc += v;
        }
    }

    #[test]
    fn all_reduce_sums() {
        let c = small_cluster(256);
        let d = c.distribute((0..100u64).collect(), 1);
        let total = c.all_reduce(&d, |p| p.iter().sum::<u64>(), |a, b| a + b, 0);
        assert_eq!(total, 4950);
    }

    #[test]
    fn overload_is_recorded_not_hidden() {
        let c = Cluster::new(MpcConfig::new(64, 64, 0.5).with_space_constant(1.0));
        // Route everything to machine 0: receive volume blows the budget.
        let d = c.distribute((0..500u64).collect(), 1);
        let _ = c.exchange(d, 1, |_| 0);
        assert!(c.metrics().budget_violations() > 0);
    }

    #[test]
    fn map_machines_preserves_counts() {
        let c = small_cluster(256);
        let d = c.distribute((0..50u64).collect(), 1);
        let doubled = c.map_machines(d, 1, |_, p| p.into_iter().map(|x| x * 2).collect());
        let mut flat = doubled.gather();
        flat.sort_unstable();
        assert_eq!(flat, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sort_with_duplicate_keys_keeps_multiset() {
        let c = small_cluster(512);
        let items: Vec<u64> = (0..3000u64).map(|i| i % 7).collect();
        let d = c.distribute(items.clone(), 1);
        let flat = c.sort_by_key(d, 1, |&x| x).gather();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(flat, expect);
    }

    #[test]
    fn single_machine_sort() {
        let c = Cluster::new(MpcConfig::new(16, 16, 0.9).with_space_constant(100.0));
        let d = c.distribute(vec![5u64, 3, 1, 4], 1);
        assert_eq!(d.machine_count(), 1);
        assert_eq!(c.sort_by_key(d, 1, |&x| x).gather(), vec![1, 3, 4, 5]);
    }
}
