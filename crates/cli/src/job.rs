//! The distributed **job codec**: the opaque payload a coordinator hands
//! every worker in its `Welcome` frame.
//!
//! A job is everything a worker replica needs to run the *identical*
//! deterministic solve: the graph and the seed-search parameters.  The
//! format is a one-line text header followed by the graph payload:
//!
//! ```text
//! parcolor-job 2 <seed_bits> <strategy>
//! <.pcg container bytes — see crate::pcg>
//! ```
//!
//! Version 2 ships the binary `.pcg` container, so workers decode the
//! CSR arrays directly instead of re-parsing text DIMACS on every
//! `Welcome`; the checksum guards the wire transfer for free.  It is the
//! only version this build decodes.
//!
//! `<strategy>` is `ex` (exhaustive), `bw` (bitwise conditional
//! expectations), `fs:<k>` (fixed subset) or `ss:<seed>` (single seed).
//!
//! Both sides of the protocol build `(instance, params)` through
//! [`decode_job`] — the coordinator decodes its *own* encoding — so the
//! replicas can never disagree on a default the header doesn't carry.

use crate::pcg::{read_pcg_bytes, write_pcg};
use parcolor_core::{D1lcInstance, Graph, Params, SeedStrategy};

/// Current job-format version (the leading header field).
pub const JOB_VERSION: u32 = 2;

fn strategy_token(s: SeedStrategy) -> String {
    match s {
        SeedStrategy::Exhaustive => "ex".into(),
        SeedStrategy::BitwiseCondExp => "bw".into(),
        SeedStrategy::FixedSubset(k) => format!("fs:{k}"),
        SeedStrategy::SingleSeed(seed) => format!("ss:{seed}"),
    }
}

/// Parse a strategy token (`ex`, `bw`, `fs:<k>`, `ss:<seed>`) — the
/// same grammar the job header uses, reused by the CLI's `--strategy`.
pub fn parse_strategy(tok: &str) -> Result<SeedStrategy, String> {
    match tok {
        "ex" => Ok(SeedStrategy::Exhaustive),
        "bw" => Ok(SeedStrategy::BitwiseCondExp),
        _ => {
            if let Some(k) = tok.strip_prefix("fs:") {
                k.parse()
                    .map(SeedStrategy::FixedSubset)
                    .map_err(|_| format!("bad fixed-subset size {k:?}"))
            } else if let Some(s) = tok.strip_prefix("ss:") {
                s.parse()
                    .map(SeedStrategy::SingleSeed)
                    .map_err(|_| format!("bad single-seed value {s:?}"))
            } else {
                Err(format!("unknown strategy token {tok:?}"))
            }
        }
    }
}

/// Encode a graph + the seed-search parameters as job bytes (version 2:
/// `.pcg` payload).
pub fn encode_job(g: &Graph, seed_bits: u32, strategy: SeedStrategy) -> Vec<u8> {
    let mut out = format!(
        "parcolor-job {JOB_VERSION} {seed_bits} {}\n",
        strategy_token(strategy)
    )
    .into_bytes();
    write_pcg(&mut out, g).expect("write to Vec cannot fail");
    out
}

/// Decode job bytes back into the (Δ+1) instance and solver parameters.
///
/// Every field the header doesn't carry comes from [`Params::default`],
/// so a coordinator and its workers — both calling this — are guaranteed
/// the same configuration.
pub fn decode_job(job: &[u8]) -> Result<(D1lcInstance, Params), String> {
    let nl = job
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("job: missing header line")?;
    let header = std::str::from_utf8(&job[..nl]).map_err(|_| "job: header is not UTF-8")?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("parcolor-job") {
        return Err("job: bad magic (expected \"parcolor-job\")".into());
    }
    let version: u32 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("job: bad version field")?;
    if version != JOB_VERSION {
        return Err(format!(
            "job: version {version} not supported (this build speaks {JOB_VERSION})"
        ));
    }
    let seed_bits: u32 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("job: bad seed_bits field")?;
    let strategy = parse_strategy(parts.next().ok_or("job: missing strategy field")?)?;
    if parts.next().is_some() {
        return Err("job: trailing header fields".into());
    }
    crate::args::check_seed_search(seed_bits, strategy).map_err(|e| format!("job: {e}"))?;
    let g = read_pcg_bytes(&job[nl + 1..]).map_err(|e| format!("job graph: {e}"))?;
    let params = Params::default()
        .with_seed_bits(seed_bits)
        .with_strategy(strategy);
    Ok((D1lcInstance::delta_plus_one(g), params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn roundtrips_every_strategy() {
        for strat in [
            SeedStrategy::Exhaustive,
            SeedStrategy::BitwiseCondExp,
            SeedStrategy::FixedSubset(16),
            SeedStrategy::SingleSeed(7),
        ] {
            let job = encode_job(&sample_graph(), 9, strat);
            let (inst, params) = decode_job(&job).expect("roundtrip");
            assert_eq!(inst.n(), 4);
            assert_eq!(inst.graph.m(), 4);
            assert_eq!(params.seed_bits, 9);
            assert_eq!(params.strategy, strat);
        }
    }

    #[test]
    fn rejects_malformed_jobs() {
        for (job, field) in [
            (&b""[..], "missing header"),
            (b"no newline here", "missing header"),
            // A well-formed header over a mangled binary payload.
            (b"parcolor-job 2 6 ex\nnot a pcg container", "job graph"),
        ] {
            let err = decode_job(job).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        // Each malformed header must fail on the field it targets: the
        // payload is a valid `.pcg` container, so a rejection can only
        // come from the header.
        for (header, field) in [
            ("wrong-magic 2 6 ex", "bad magic"),
            ("parcolor-job 99 6 ex", "version 99 not supported"),
            ("parcolor-job 2 six ex", "seed_bits"),
            ("parcolor-job 2 6", "missing strategy"),
            ("parcolor-job 2 6 warp", "unknown strategy"),
            ("parcolor-job 2 6 fs:many", "fixed-subset"),
            ("parcolor-job 2 6 ex extra", "trailing"),
            ("parcolor-job 2 30 ex", "seed_bits must be in 1..=24"),
            ("parcolor-job 2 0 ex", "seed_bits must be in 1..=24"),
            ("parcolor-job 2 6 ss:64", "strategy ss:64"),
        ] {
            let mut job = format!("{header}\n").into_bytes();
            write_pcg(&mut job, &sample_graph()).unwrap();
            let err = decode_job(&job).unwrap_err();
            assert!(err.contains(field), "{header:?}: {err}");
        }
    }

    /// Version 1 (a DIMACS payload) is no longer decoded: its header is
    /// refused as an unsupported version before the payload is read.
    #[test]
    fn rejects_version_1_dimacs_jobs() {
        let job = b"parcolor-job 1 9 fs:16\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n";
        let err = decode_job(job).unwrap_err();
        assert!(err.contains("version 1 not supported"), "{err}");
    }

    #[test]
    fn v2_jobs_carry_pcg_payload() {
        let job = encode_job(&sample_graph(), 6, SeedStrategy::Exhaustive);
        let header_end = job.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(&job[header_end..header_end + 8], crate::pcg::PCG_MAGIC);
    }
}
