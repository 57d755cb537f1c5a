//! The coordinator/worker message set and its wire encoding (v2).
//!
//! See the crate docs for the protocol narrative.  Every message is one
//! frame; the first payload byte is the message tag.  Unknown tags and
//! malformed payloads decode to errors (never panics) — the receiving
//! loop drops the connection, and the lease layer absorbs the loss.
//!
//! ## Version 2
//!
//! v2 is the failover revision: `Hello` carries the peer's [`Role`],
//! `Welcome`/`Grant`/`Chosen` carry the coordinator **epoch** (fencing:
//! frames from a deposed primary are dropped by epoch mismatch, never
//! merged), `Result` became a *list* of unit aggregates (a worker sends
//! each unit as a one-entry `Result`; the coordinator still merges lists
//! of any length), and three messages were added: [`Msg::Replicate`]
//! (primary → standby unit-completion stream), [`Msg::Promote`]
//! (deliberate leadership handover) and [`Msg::Refuse`] (friendly
//! handshake refusal — version mismatch or "not primary yet").
//!
//! Count fields never size memory on their own: every reservation is
//! capped by the bytes left in the frame over the entry's minimum wire
//! size, so a frame claiming 2^24 selections but carrying none fails on
//! truncation without reserving a gigabyte first.

use crate::frame::{Dec, Enc};
use parcolor_prg::SeedSelection;
use std::io;

/// Protocol version carried in `Hello`; mismatched peers are refused
/// with [`Msg::Refuse`].
pub const PROTO_VERSION: u32 = 2;

const T_HELLO: u8 = 1;
const T_WELCOME: u8 = 2;
const T_GRANT: u8 = 3;
const T_RESULT: u8 = 4;
const T_CHOSEN: u8 = 5;
const T_PING: u8 = 6;
const T_BYE: u8 = 7;
const T_REPLICATE: u8 = 8;
const T_PROMOTE: u8 = 9;
const T_REFUSE: u8 = 10;

/// Minimum wire sizes of the count-prefixed entries, for capping
/// decoder reservations by the bytes left in the frame: a selection
/// with an empty trace (five 8-byte fields and the `u32` trace count),
/// one trace entry, and one [`UnitResult`].
const SELECTION_MIN_WIRE: usize = 5 * 8 + 4;
const TRACE_ENTRY_WIRE: usize = 4 + 2 * 8;
const UNIT_RESULT_WIRE: usize = 4 + 4 * 8;

/// `Vec::with_capacity` for `n` claimed entries of at least `min_wire`
/// bytes each, never reserving more than the rest of the frame can hold.
fn reserve_for<T>(d: &Dec, n: usize, min_wire: usize) -> Vec<T> {
    Vec::with_capacity(n.min(d.remaining() / min_wire))
}

/// What a connecting peer is (carried in `Hello` since v2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A lease-serving worker replica.
    Worker,
    /// A standby coordinator tailing the replication stream.
    Standby,
}

impl Role {
    fn to_u8(self) -> u8 {
        match self {
            Role::Worker => 0,
            Role::Standby => 1,
        }
    }

    fn from_u8(v: u8) -> io::Result<Role> {
        match v {
            0 => Ok(Role::Worker),
            1 => Ok(Role::Standby),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "unknown role")),
        }
    }
}

/// One unit's grouping-invariant aggregate inside a [`Msg::Result`]
/// batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitResult {
    /// Echo of the grant's lease.
    pub lease_id: u64,
    /// Echo of the grant's unit (the dedup key).
    pub unit: u32,
    /// Sum of the unit's costs.
    pub sum: f64,
    /// Minimum cost in the unit.
    pub min: f64,
    /// Lowest seed achieving the minimum.
    pub argmin: u64,
}

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Peer → coordinator: first frame on every connection.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
        /// Worker or standby.
        role: Role,
    },
    /// Coordinator → peer: handshake reply.  Carries everything a fresh
    /// (or reconnecting) peer needs to join mid-solve: the opaque job
    /// bytes, the coordinator's epoch, and the full history of
    /// already-chosen selections (`history[s]` is search `s`'s outcome),
    /// which the peer's replicated solve fast-forwards through.
    Welcome {
        /// Coordinator-assigned peer identity (unique per connection).
        worker_id: u64,
        /// The coordinator's epoch (bumped on every promotion); echoed
        /// by workers in `Result` so a deposed primary's frames fence.
        epoch: u64,
        /// Opaque job payload (the CLI encodes graph + parameters here).
        job: Vec<u8>,
        /// Selections of all completed searches, in search order.
        history: Vec<SeedSelection>,
    },
    /// Coordinator → worker: lease of one work unit — evaluate seeds
    /// `start .. start + len` and fold them.
    Grant {
        /// Issuing coordinator's epoch (echoed in the result).
        epoch: u64,
        /// Search this fold belongs to (workers serve only their
        /// current search).
        search_id: u64,
        /// Monotonic fold counter *within this coordinator* (one search
        /// may run many folds — the bitwise walk folds two half-spaces
        /// per bit).
        fold_id: u64,
        /// Lease identity, echoed in the result.
        lease_id: u64,
        /// Unit index within the fold (the dedup key).
        unit: u32,
        /// First seed of the unit.
        start: u64,
        /// Number of seeds in the unit.
        len: u64,
    },
    /// Worker → coordinator: completed unit aggregates for one
    /// `(epoch, search, fold)`.  A worker sends each unit as a one-entry
    /// `Result` as soon as it is folded; the coordinator still merges a
    /// list of any length, each entry independently (first copy per unit
    /// wins), and drops whole lists whose epoch is stale (fencing).
    Result {
        /// Epoch of the grants being answered.
        epoch: u64,
        /// Echo of the grants' search.
        search_id: u64,
        /// Echo of the grants' fold.
        fold_id: u64,
        /// The completed units (at least one).
        batch: Vec<UnitResult>,
    },
    /// Coordinator → all peers: a search concluded with this selection;
    /// workers and standbys adopt it and advance their replicas.
    Chosen {
        /// Epoch of the concluding coordinator.
        epoch: u64,
        /// The search that concluded.
        search_id: u64,
        /// Its outcome (trace included, so replicas report identically).
        selection: SeedSelection,
    },
    /// Primary → standby: one work unit completed, with enough fold
    /// geometry for the standby to rebuild the fold's `LeaseTable` after
    /// a promotion and re-lease only what is still in flight.  The
    /// stream is idempotent — every entry is self-describing and
    /// deduplicates by `(search, fold_seq, unit)`.
    Replicate {
        /// Epoch of the replicating primary.
        epoch: u64,
        /// Search the fold belongs to.
        search_id: u64,
        /// Fold index *within the search* (deterministic across
        /// replicas: both primaries count `fold_range` calls the same
        /// way, unlike the coordinator-global `fold_id`).
        fold_seq: u64,
        /// First seed of the whole fold.
        fold_start: u64,
        /// Seed count of the whole fold.
        fold_len: u64,
        /// Seeds per unit in this fold.
        unit_len: u64,
        /// The completed unit.
        unit: u32,
        /// Sum of the unit's costs.
        sum: f64,
        /// Minimum cost in the unit.
        min: f64,
        /// Lowest seed achieving the minimum.
        argmin: u64,
    },
    /// Primary → standby: deliberate leadership handover.  The standby
    /// promotes itself immediately with the given epoch instead of
    /// waiting out the crash-detection probation.
    Promote {
        /// The epoch the standby must adopt (the primary's epoch + 1).
        epoch: u64,
    },
    /// Coordinator → peer: friendly handshake refusal (version
    /// mismatch, or a standby that has not been promoted yet).  The
    /// peer must close the connection and report `reason`.
    Refuse {
        /// The protocol version this coordinator speaks.
        required_version: u32,
        /// Human-readable explanation.
        reason: String,
    },
    /// Worker → coordinator: liveness heartbeat (sent when idle).
    Ping,
    /// Either direction: orderly goodbye.
    Bye,
}

fn put_selection(e: &mut Enc, s: &SeedSelection) {
    e.u64(s.seed);
    e.f64(s.cost);
    e.f64(s.mean_cost);
    e.f64(s.min_cost);
    e.u64(s.evaluated);
    e.u32(s.trace.len() as u32);
    for &(bit, m0, m1) in &s.trace {
        e.u32(bit);
        e.f64(m0);
        e.f64(m1);
    }
}

fn get_selection(d: &mut Dec) -> io::Result<SeedSelection> {
    let seed = d.u64()?;
    let cost = d.f64()?;
    let mean_cost = d.f64()?;
    let min_cost = d.f64()?;
    let evaluated = d.u64()?;
    let ntrace = d.u32()? as usize;
    if ntrace > 1 << 16 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "absurd trace length",
        ));
    }
    let mut trace = reserve_for(d, ntrace, TRACE_ENTRY_WIRE);
    for _ in 0..ntrace {
        let bit = d.u32()?;
        let m0 = d.f64()?;
        let m1 = d.f64()?;
        trace.push((bit, m0, m1));
    }
    Ok(SeedSelection {
        seed,
        cost,
        mean_cost,
        min_cost,
        evaluated,
        trace,
    })
}

impl Msg {
    /// Encode to one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Msg::Hello { version, role } => {
                e.u8(T_HELLO);
                e.u32(*version);
                e.u8(role.to_u8());
            }
            Msg::Welcome {
                worker_id,
                epoch,
                job,
                history,
            } => {
                e.u8(T_WELCOME);
                e.u64(*worker_id);
                e.u64(*epoch);
                e.bytes(job);
                e.u32(history.len() as u32);
                for s in history {
                    put_selection(&mut e, s);
                }
            }
            Msg::Grant {
                epoch,
                search_id,
                fold_id,
                lease_id,
                unit,
                start,
                len,
            } => {
                e.u8(T_GRANT);
                e.u64(*epoch);
                e.u64(*search_id);
                e.u64(*fold_id);
                e.u64(*lease_id);
                e.u32(*unit);
                e.u64(*start);
                e.u64(*len);
            }
            Msg::Result {
                epoch,
                search_id,
                fold_id,
                batch,
            } => {
                e.u8(T_RESULT);
                e.u64(*epoch);
                e.u64(*search_id);
                e.u64(*fold_id);
                e.u32(batch.len() as u32);
                for r in batch {
                    e.u64(r.lease_id);
                    e.u32(r.unit);
                    e.f64(r.sum);
                    e.f64(r.min);
                    e.u64(r.argmin);
                }
            }
            Msg::Chosen {
                epoch,
                search_id,
                selection,
            } => {
                e.u8(T_CHOSEN);
                e.u64(*epoch);
                e.u64(*search_id);
                put_selection(&mut e, selection);
            }
            Msg::Replicate {
                epoch,
                search_id,
                fold_seq,
                fold_start,
                fold_len,
                unit_len,
                unit,
                sum,
                min,
                argmin,
            } => {
                e.u8(T_REPLICATE);
                e.u64(*epoch);
                e.u64(*search_id);
                e.u64(*fold_seq);
                e.u64(*fold_start);
                e.u64(*fold_len);
                e.u64(*unit_len);
                e.u32(*unit);
                e.f64(*sum);
                e.f64(*min);
                e.u64(*argmin);
            }
            Msg::Promote { epoch } => {
                e.u8(T_PROMOTE);
                e.u64(*epoch);
            }
            Msg::Refuse {
                required_version,
                reason,
            } => {
                e.u8(T_REFUSE);
                e.u32(*required_version);
                e.bytes(reason.as_bytes());
            }
            Msg::Ping => e.u8(T_PING),
            Msg::Bye => e.u8(T_BYE),
        }
        e.0
    }

    /// Decode one frame payload.
    pub fn decode(buf: &[u8]) -> io::Result<Msg> {
        let mut d = Dec::new(buf);
        let msg = match d.u8()? {
            T_HELLO => Msg::Hello {
                version: d.u32()?,
                role: Role::from_u8(d.u8()?)?,
            },
            T_WELCOME => {
                let worker_id = d.u64()?;
                let epoch = d.u64()?;
                let job = d.bytes()?;
                let n = d.u32()? as usize;
                if n > 1 << 24 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "absurd history length",
                    ));
                }
                let mut history = reserve_for(&d, n, SELECTION_MIN_WIRE);
                for _ in 0..n {
                    history.push(get_selection(&mut d)?);
                }
                Msg::Welcome {
                    worker_id,
                    epoch,
                    job,
                    history,
                }
            }
            T_GRANT => Msg::Grant {
                epoch: d.u64()?,
                search_id: d.u64()?,
                fold_id: d.u64()?,
                lease_id: d.u64()?,
                unit: d.u32()?,
                start: d.u64()?,
                len: d.u64()?,
            },
            T_RESULT => {
                let epoch = d.u64()?;
                let search_id = d.u64()?;
                let fold_id = d.u64()?;
                let n = d.u32()? as usize;
                if n > 1 << 16 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "absurd result batch",
                    ));
                }
                let mut batch = reserve_for(&d, n, UNIT_RESULT_WIRE);
                for _ in 0..n {
                    batch.push(UnitResult {
                        lease_id: d.u64()?,
                        unit: d.u32()?,
                        sum: d.f64()?,
                        min: d.f64()?,
                        argmin: d.u64()?,
                    });
                }
                Msg::Result {
                    epoch,
                    search_id,
                    fold_id,
                    batch,
                }
            }
            T_CHOSEN => Msg::Chosen {
                epoch: d.u64()?,
                search_id: d.u64()?,
                selection: get_selection(&mut d)?,
            },
            T_REPLICATE => Msg::Replicate {
                epoch: d.u64()?,
                search_id: d.u64()?,
                fold_seq: d.u64()?,
                fold_start: d.u64()?,
                fold_len: d.u64()?,
                unit_len: d.u64()?,
                unit: d.u32()?,
                sum: d.f64()?,
                min: d.f64()?,
                argmin: d.u64()?,
            },
            T_PROMOTE => Msg::Promote { epoch: d.u64()? },
            T_REFUSE => {
                let required_version = d.u32()?;
                let raw = d.bytes()?;
                if raw.len() > 1 << 10 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "absurd refusal reason",
                    ));
                }
                let reason = String::from_utf8(raw)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 reason"))?;
                Msg::Refuse {
                    required_version,
                    reason,
                }
            }
            T_PING => Msg::Ping,
            T_BYE => Msg::Bye,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unknown message tag",
                ))
            }
        };
        if !d.done() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in message",
            ));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(seed: u64) -> SeedSelection {
        SeedSelection {
            seed,
            cost: 3.0,
            mean_cost: 4.5,
            min_cost: 3.0,
            evaluated: 256,
            trace: vec![(7, 4.25, 4.75), (6, 4.0, 4.5)],
        }
    }

    fn roundtrip(m: Msg) {
        let wire = m.encode();
        let back = Msg::decode(&wire).unwrap();
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::Hello {
            version: PROTO_VERSION,
            role: Role::Worker,
        });
        roundtrip(Msg::Hello {
            version: PROTO_VERSION,
            role: Role::Standby,
        });
        roundtrip(Msg::Welcome {
            worker_id: 3,
            epoch: 1,
            job: b"p edge 5 4".to_vec(),
            history: vec![sel(1), sel(200)],
        });
        roundtrip(Msg::Grant {
            epoch: 1,
            search_id: 9,
            fold_id: 41,
            lease_id: 7,
            unit: 2,
            start: 64,
            len: 32,
        });
        roundtrip(Msg::Result {
            epoch: 1,
            search_id: 9,
            fold_id: 41,
            batch: vec![
                UnitResult {
                    lease_id: 7,
                    unit: 2,
                    sum: 12.0,
                    min: 0.0,
                    argmin: 65,
                },
                UnitResult {
                    lease_id: 8,
                    unit: 3,
                    sum: 9.0,
                    min: 1.0,
                    argmin: 99,
                },
            ],
        });
        roundtrip(Msg::Chosen {
            epoch: 2,
            search_id: 9,
            selection: sel(65),
        });
        roundtrip(Msg::Replicate {
            epoch: 1,
            search_id: 9,
            fold_seq: 3,
            fold_start: 0,
            fold_len: 256,
            unit_len: 32,
            unit: 5,
            sum: 77.0,
            min: 2.0,
            argmin: 171,
        });
        roundtrip(Msg::Promote { epoch: 2 });
        roundtrip(Msg::Refuse {
            required_version: 2,
            reason: "protocol version 1 not supported".into(),
        });
        roundtrip(Msg::Ping);
        roundtrip(Msg::Bye);
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        assert!(Msg::decode(&[]).is_err());
        assert!(Msg::decode(&[99]).is_err(), "unknown tag");
        let mut wire = Msg::Grant {
            epoch: 0,
            search_id: 1,
            fold_id: 2,
            lease_id: 3,
            unit: 4,
            start: 5,
            len: 6,
        }
        .encode();
        wire.truncate(wire.len() - 1);
        assert!(Msg::decode(&wire).is_err(), "truncated");
        let mut wire2 = Msg::Ping.encode();
        wire2.push(0);
        assert!(Msg::decode(&wire2).is_err(), "trailing bytes");
        // A Hello must carry its role byte.
        let mut hello = vec![T_HELLO];
        hello.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        assert!(Msg::decode(&hello).is_err(), "role-less hello");
    }

    #[test]
    fn malformed_replicate_and_promote_are_rejected() {
        // Truncation at every prefix must error cleanly, exactly like
        // the seven original messages.
        let repl = Msg::Replicate {
            epoch: 1,
            search_id: 2,
            fold_seq: 3,
            fold_start: 0,
            fold_len: 128,
            unit_len: 32,
            unit: 1,
            sum: 5.0,
            min: 0.5,
            argmin: 40,
        }
        .encode();
        for cut in 1..repl.len() {
            assert!(Msg::decode(&repl[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = repl.clone();
        long.push(0);
        assert!(Msg::decode(&long).is_err(), "trailing byte");

        let promote = Msg::Promote { epoch: 9 }.encode();
        for cut in 1..promote.len() {
            assert!(Msg::decode(&promote[..cut]).is_err(), "cut at {cut}");
        }
        // A role byte outside {0, 1} is rejected, not defaulted.
        let mut hello = Msg::Hello {
            version: PROTO_VERSION,
            role: Role::Standby,
        }
        .encode();
        *hello.last_mut().unwrap() = 7;
        assert!(Msg::decode(&hello).is_err(), "unknown role");
        // Refuse with a non-UTF-8 reason is rejected.
        let mut refuse = Msg::Refuse {
            required_version: 2,
            reason: "ok".into(),
        }
        .encode();
        let n = refuse.len();
        refuse[n - 1] = 0xFF;
        refuse[n - 2] = 0xFE;
        assert!(Msg::decode(&refuse).is_err(), "invalid utf8 reason");
    }

    #[test]
    fn result_batch_rejects_absurd_lengths() {
        let mut e = Enc::default();
        e.u8(T_RESULT);
        e.u64(1);
        e.u64(2);
        e.u64(3);
        e.u32(u32::MAX); // absurd batch count
        assert!(Msg::decode(&e.0).is_err());
    }

    #[test]
    fn selection_roundtrip_is_bit_exact() {
        // f64 fields travel as raw bits: NaN-free exactness matters for
        // the bit-identity guarantee.
        let s = SeedSelection {
            seed: 5,
            cost: 0.1 + 0.2, // deliberately non-representable sum
            mean_cost: f64::MIN_POSITIVE,
            min_cost: -0.0,
            evaluated: 1,
            trace: vec![(0, 1.0 / 3.0, 2.0 / 3.0)],
        };
        let m = Msg::Chosen {
            epoch: 1,
            search_id: 0,
            selection: s.clone(),
        };
        if let Msg::Chosen { selection, .. } = Msg::decode(&m.encode()).unwrap() {
            assert_eq!(selection.cost.to_bits(), s.cost.to_bits());
            assert_eq!(selection.min_cost.to_bits(), s.min_cost.to_bits());
            assert_eq!(selection.trace[0].1.to_bits(), s.trace[0].1.to_bits());
        } else {
            panic!("wrong variant");
        }
    }
}
