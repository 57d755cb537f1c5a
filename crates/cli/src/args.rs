//! Argument validation for the `parcolor` binary — pure functions that
//! return `Result` instead of panicking, so the binary can print one
//! friendly diagnostic and exit with a meaningful status (2 for usage
//! errors, 1 for runtime failures) and tests can assert on the messages.

use parcolor_core::SeedStrategy;
use parcolor_dist::DistConfig;

/// Validated options for `parcolor solve`.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveOpts {
    /// Input graph path (`.col`).
    pub input: String,
    /// Output coloring path (`-o`), stdout when absent.
    pub out: Option<String>,
    /// Randomized mode key (`--randomized <key>`); deterministic when absent.
    pub randomized: Option<u64>,
    /// PRG seed length (`--seed-bits`, default 6).
    pub seed_bits: u32,
    /// Worker threads (`--workers`, default 0 = auto).
    pub workers: usize,
}

/// Seed lengths outside this range are either degenerate or blow the
/// exhaustive/fixed-subset search past any practical budget.
pub const SEED_BITS_RANGE: std::ops::RangeInclusive<u32> = 1..=24;

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

/// Parse and validate the arguments of `parcolor solve` (everything
/// after the subcommand).  Errors are complete sentences ready for
/// `eprintln!` — no panics on malformed input.
pub fn parse_solve_args<S: AsRef<str>>(args: &[S]) -> Result<SolveOpts, String> {
    let mut opts = SolveOpts {
        input: String::new(),
        out: None,
        randomized: None,
        seed_bits: 6,
        workers: 0,
    };
    let mut seen_seed_bits = false;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&str, String> {
            it.next().ok_or(format!("{flag} requires a value"))
        };
        match arg {
            "-o" => {
                let v = value_of("-o")?;
                if opts.out.replace(v.to_string()).is_some() {
                    return Err("-o given twice".into());
                }
            }
            "--randomized" => {
                let v = value_of("--randomized")?;
                if opts
                    .randomized
                    .replace(parsed("--randomized", v)?)
                    .is_some()
                {
                    return Err("--randomized given twice".into());
                }
            }
            "--seed-bits" => {
                if seen_seed_bits {
                    return Err("--seed-bits given twice".into());
                }
                seen_seed_bits = true;
                opts.seed_bits = parsed("--seed-bits", value_of("--seed-bits")?)?;
            }
            "--workers" => {
                opts.workers = parsed("--workers", value_of("--workers")?)?;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag {flag}"));
            }
            positional => {
                if !opts.input.is_empty() {
                    return Err(format!(
                        "unexpected extra argument {positional:?} (input is {:?})",
                        opts.input
                    ));
                }
                opts.input = positional.to_string();
            }
        }
    }
    if opts.input.is_empty() {
        return Err("missing input graph (expected a .col path)".into());
    }
    if !SEED_BITS_RANGE.contains(&opts.seed_bits) {
        return Err(format!(
            "--seed-bits must be in {}..={}, got {}",
            SEED_BITS_RANGE.start(),
            SEED_BITS_RANGE.end(),
            opts.seed_bits
        ));
    }
    if opts.randomized.is_some() && seen_seed_bits {
        return Err(
            "--randomized and --seed-bits contradict: the randomized solver draws colors \
             directly and never runs the seed search"
                .into(),
        );
    }
    Ok(opts)
}

/// Validated options for `parcolor coordinator`.
#[derive(Clone, Debug)]
pub struct CoordinatorOpts {
    /// Input graph path — `None` in standby mode (the job arrives over
    /// the replication handshake).
    pub input: Option<String>,
    /// Listen address (`--listen`, required).
    pub listen: String,
    /// Primary address when running as a standby (`--standby`).
    pub standby_of: Option<String>,
    /// Output coloring path (`-o`), stdout when absent.
    pub out: Option<String>,
    /// PRG seed length (`--seed-bits`, default 6).
    pub seed_bits: u32,
    /// Seed-search strategy (`--strategy`, default `fs:16`).
    pub strategy: SeedStrategy,
    /// Executor threads (`--workers`, default 0 = auto).
    pub workers: usize,
    /// Lease/failure knobs overlaid on [`DistConfig::default`]:
    /// `--min-workers`, `--blocks-per-lease`, `--local-patience-ms`,
    /// `--lease-timeout-ms`, `--heartbeat-timeout-ms`.
    pub cfg: DistConfig,
}

/// Validated options for `parcolor worker`.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerOpts {
    /// Ordered coordinator list (`--connect`, required; repeatable
    /// and/or comma-separated — `primary,standby`).  The worker tries
    /// the addresses in order on every reconnect sweep.
    pub connect: Vec<String>,
    /// Executor threads (`--workers`, default 0 = auto).
    pub workers: usize,
}

fn in_range<T: PartialOrd + std::fmt::Display + Copy>(
    flag: &str,
    v: T,
    lo: T,
    hi: T,
) -> Result<T, String> {
    if v < lo || v > hi {
        return Err(format!("{flag} must be in {lo}..={hi}, got {v}"));
    }
    Ok(v)
}

/// Parse and validate the arguments of `parcolor coordinator`.  Same
/// contract as [`parse_solve_args`]: complete-sentence errors, no
/// panics.  `--standby PRIMARY` runs a standby instead of a primary and
/// contradicts the flags that describe a job (`input`, `--seed-bits`,
/// `--strategy`) — a standby's job arrives over the wire.
pub fn parse_coordinator_args<S: AsRef<str>>(args: &[S]) -> Result<CoordinatorOpts, String> {
    let mut opts = CoordinatorOpts {
        input: None,
        listen: String::new(),
        standby_of: None,
        out: None,
        seed_bits: 6,
        strategy: SeedStrategy::FixedSubset(16),
        workers: 0,
        cfg: DistConfig::default(),
    };
    let mut seen_seed_bits = false;
    let mut seen_strategy = false;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&str, String> {
            it.next().ok_or(format!("{flag} requires a value"))
        };
        match arg {
            "--listen" => {
                let v = value_of("--listen")?;
                if !opts.listen.is_empty() {
                    return Err("--listen given twice".into());
                }
                opts.listen = v.to_string();
            }
            "--standby" => {
                let v = value_of("--standby")?;
                if opts.standby_of.replace(v.to_string()).is_some() {
                    return Err("--standby given twice".into());
                }
            }
            "-o" => {
                let v = value_of("-o")?;
                if opts.out.replace(v.to_string()).is_some() {
                    return Err("-o given twice".into());
                }
            }
            "--seed-bits" => {
                if seen_seed_bits {
                    return Err("--seed-bits given twice".into());
                }
                seen_seed_bits = true;
                opts.seed_bits = parsed("--seed-bits", value_of("--seed-bits")?)?;
            }
            "--strategy" => {
                if seen_strategy {
                    return Err("--strategy given twice".into());
                }
                seen_strategy = true;
                opts.strategy = crate::job::parse_strategy(value_of("--strategy")?)?;
            }
            "--workers" => {
                opts.workers = parsed("--workers", value_of("--workers")?)?;
            }
            "--min-workers" => {
                opts.cfg.min_workers = parsed("--min-workers", value_of("--min-workers")?)?;
            }
            "--blocks-per-lease" => {
                let v = value_of("--blocks-per-lease")?;
                opts.cfg.blocks_per_lease = in_range(
                    "--blocks-per-lease",
                    parsed("--blocks-per-lease", v)?,
                    1,
                    1_024,
                )?;
            }
            "--local-patience-ms" => {
                let v = value_of("--local-patience-ms")?;
                opts.cfg.local_patience_ms = in_range(
                    "--local-patience-ms",
                    parsed("--local-patience-ms", v)?,
                    0,
                    600_000,
                )?;
            }
            "--lease-timeout-ms" => {
                let v = value_of("--lease-timeout-ms")?;
                opts.cfg.lease_timeout_ms = in_range(
                    "--lease-timeout-ms",
                    parsed("--lease-timeout-ms", v)?,
                    10,
                    600_000,
                )?;
            }
            "--heartbeat-timeout-ms" => {
                let v = value_of("--heartbeat-timeout-ms")?;
                opts.cfg.heartbeat_timeout_ms = in_range(
                    "--heartbeat-timeout-ms",
                    parsed("--heartbeat-timeout-ms", v)?,
                    10,
                    600_000,
                )?;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag {flag}"));
            }
            positional => {
                if opts.input.is_some() {
                    return Err(format!(
                        "unexpected extra argument {positional:?} (input is {:?})",
                        opts.input.as_deref().unwrap_or("")
                    ));
                }
                opts.input = Some(positional.to_string());
            }
        }
    }
    if opts.listen.is_empty() {
        return Err("--listen HOST:PORT is required".into());
    }
    if opts.standby_of.is_some() {
        if let Some(input) = &opts.input {
            return Err(format!(
                "--standby and an input graph ({input:?}) contradict: a standby's job \
                 arrives from the primary over the replication handshake"
            ));
        }
        if seen_seed_bits || seen_strategy {
            return Err(
                "--standby and --seed-bits/--strategy contradict: a standby inherits the \
                 primary's job parameters"
                    .into(),
            );
        }
    } else if opts.input.is_none() {
        return Err("missing input graph (expected a .col path)".into());
    }
    if !SEED_BITS_RANGE.contains(&opts.seed_bits) {
        return Err(format!(
            "--seed-bits must be in {}..={}, got {}",
            SEED_BITS_RANGE.start(),
            SEED_BITS_RANGE.end(),
            opts.seed_bits
        ));
    }
    Ok(opts)
}

/// Parse and validate the arguments of `parcolor worker`.  `--connect`
/// accepts an ordered coordinator list: repeated flags and/or one
/// comma-separated value (`--connect primary:9000,standby:9001`).
pub fn parse_worker_args<S: AsRef<str>>(args: &[S]) -> Result<WorkerOpts, String> {
    let mut opts = WorkerOpts {
        connect: Vec::new(),
        workers: 0,
    };
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&str, String> {
            it.next().ok_or(format!("{flag} requires a value"))
        };
        match arg {
            "--connect" => {
                for addr in value_of("--connect")?.split(',') {
                    let addr = addr.trim();
                    if addr.is_empty() {
                        return Err("--connect has an empty address in its list".into());
                    }
                    opts.connect.push(addr.to_string());
                }
            }
            "--workers" => {
                opts.workers = parsed("--workers", value_of("--workers")?)?;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag {flag}"));
            }
            positional => {
                return Err(format!("unexpected argument {positional:?}"));
            }
        }
    }
    if opts.connect.is_empty() {
        return Err("--connect HOST:PORT[,HOST:PORT] is required".into());
    }
    Ok(opts)
}

/// A graph family `parcolor gen` can write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenFamily {
    /// `gnm`: G(n, m); param = m.
    Gnm,
    /// `gnp`: G(n, p); param = p·1000.
    Gnp,
    /// `regular`: random d-regular; param = d.
    Regular,
    /// `powerlaw`: power-law degrees; param = average degree.
    PowerLaw,
    /// `ring`: the n-cycle; param unused.
    Ring,
    /// `torus`: the side × side torus; param = side.
    Torus,
}

impl GenFamily {
    /// The family's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            GenFamily::Gnm => "gnm",
            GenFamily::Gnp => "gnp",
            GenFamily::Regular => "regular",
            GenFamily::PowerLaw => "powerlaw",
            GenFamily::Ring => "ring",
            GenFamily::Torus => "torus",
        }
    }
}

/// Validated options for `parcolor gen`.
#[derive(Clone, Debug, PartialEq)]
pub struct GenOpts {
    /// Graph family.
    pub family: GenFamily,
    /// Node count, at most `u32::MAX` (the node-id range).
    pub n: usize,
    /// The family's integer parameter (see [`GenFamily`]).
    pub param: usize,
    /// Generator seed (optional fourth positional, default 42).
    pub seed: u64,
    /// Output graph path (`-o`), DIMACS on stdout when absent.
    pub out: Option<String>,
}

/// Parse and validate the arguments of `parcolor gen`:
/// `<family> <n> <param> [seed] [-o out]`.  Same contract as
/// [`parse_solve_args`].
pub fn parse_gen_args<S: AsRef<str>>(args: &[S]) -> Result<GenOpts, String> {
    let mut out = None;
    let mut positional = Vec::new();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        match arg {
            "-o" => {
                let v = it.next().ok_or("-o requires a value")?;
                if out.replace(v.to_string()).is_some() {
                    return Err("-o given twice".into());
                }
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag {flag}"));
            }
            p => positional.push(p),
        }
    }
    let (family, n, param, seed) = match positional[..] {
        [f, n, p] => (f, n, p, None),
        [f, n, p, s] => (f, n, p, Some(s)),
        [_, _, _, _, extra, ..] => return Err(format!("unexpected extra argument {extra:?}")),
        _ => return Err("expected <family> <n> <param> [seed]".into()),
    };
    let family = match family {
        "gnm" => GenFamily::Gnm,
        "gnp" => GenFamily::Gnp,
        "regular" => GenFamily::Regular,
        "powerlaw" => GenFamily::PowerLaw,
        "ring" => GenFamily::Ring,
        "torus" => GenFamily::Torus,
        other => {
            return Err(format!(
                "unknown family {other:?} (expected gnm|gnp|regular|powerlaw|ring|torus)"
            ))
        }
    };
    let n: usize = parsed("n", n)?;
    if n > u32::MAX as usize {
        return Err(format!(
            "n must be at most {} (the node-id range), got {n}",
            u32::MAX
        ));
    }
    let param = match family {
        GenFamily::Gnp => param.parse().map_err(|_| {
            format!(
                "gnp param is the edge probability p·1000 as an integer \
                 (4 means p = 0.004), got {param:?}"
            )
        })?,
        _ => parsed("param", param)?,
    };
    let seed = match seed {
        Some(s) => parsed("seed", s)?,
        None => 42,
    };
    Ok(GenOpts {
        family,
        n,
        param,
        seed,
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SolveOpts, String> {
        parse_solve_args(args)
    }

    #[test]
    fn accepts_minimal_and_full_invocations() {
        let o = parse(&["g.col"]).unwrap();
        assert_eq!(o.input, "g.col");
        assert_eq!((o.seed_bits, o.workers), (6, 0));
        assert!(o.out.is_none() && o.randomized.is_none());

        let o = parse(&[
            "g.col",
            "-o",
            "c.txt",
            "--seed-bits",
            "10",
            "--workers",
            "4",
        ])
        .unwrap();
        assert_eq!(o.out.as_deref(), Some("c.txt"));
        assert_eq!((o.seed_bits, o.workers), (10, 4));

        // Flags may precede the positional.
        let o = parse(&["--workers", "2", "g.col"]).unwrap();
        assert_eq!(o.input, "g.col");
    }

    #[test]
    fn rejects_missing_input() {
        let e = parse(&[]).unwrap_err();
        assert!(e.contains("missing input"), "{e}");
        let e = parse(&["-o", "out.txt"]).unwrap_err();
        assert!(e.contains("missing input"), "{e}");
    }

    #[test]
    fn rejects_malformed_numbers_without_panicking() {
        for bad in [
            vec!["g.col", "--seed-bits", "ten"],
            vec!["g.col", "--workers", "-3"],
            vec!["g.col", "--randomized", "0x12"],
        ] {
            let e = parse(&bad).unwrap_err();
            assert!(e.contains("expects a number"), "{bad:?} -> {e}");
        }
    }

    #[test]
    fn rejects_out_of_range_seed_bits() {
        assert!(parse(&["g.col", "--seed-bits", "0"])
            .unwrap_err()
            .contains("1..=24"));
        assert!(parse(&["g.col", "--seed-bits", "25"])
            .unwrap_err()
            .contains("1..=24"));
        assert!(parse(&["g.col", "--seed-bits", "24"]).is_ok());
    }

    #[test]
    fn rejects_contradictory_flags() {
        let e = parse(&["g.col", "--randomized", "7", "--seed-bits", "8"]).unwrap_err();
        assert!(e.contains("contradict"), "{e}");
        // --randomized alone is fine (default bits are not "given").
        assert!(parse(&["g.col", "--randomized", "7"]).is_ok());
    }

    #[test]
    fn rejects_missing_values_unknown_flags_and_duplicates() {
        assert!(parse(&["g.col", "-o"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["g.col", "--seed-bits"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["g.col", "--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["a.col", "b.col"])
            .unwrap_err()
            .contains("unexpected extra argument"));
        assert!(parse(&["g.col", "-o", "a", "-o", "b"])
            .unwrap_err()
            .contains("twice"));
        assert!(parse(&["g.col", "--seed-bits", "8", "--seed-bits", "9"])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn coordinator_accepts_primary_and_standby_forms() {
        let o = parse_coordinator_args(&["g.col", "--listen", "0.0.0.0:9000"]).unwrap();
        assert_eq!(o.input.as_deref(), Some("g.col"));
        assert_eq!(o.listen, "0.0.0.0:9000");
        assert!(o.standby_of.is_none());
        assert_eq!(o.seed_bits, 6);
        assert_eq!(o.strategy, SeedStrategy::FixedSubset(16));
        assert_eq!(o.cfg.min_workers, DistConfig::default().min_workers);

        let o = parse_coordinator_args(&[
            "g.col",
            "--listen",
            ":9000",
            "--min-workers",
            "3",
            "--seed-bits",
            "10",
            "--strategy",
            "bw",
            "--blocks-per-lease",
            "16",
            "--local-patience-ms",
            "250",
            "--lease-timeout-ms",
            "500",
            "--heartbeat-timeout-ms",
            "4000",
            "-o",
            "c.txt",
        ])
        .unwrap();
        assert_eq!(o.cfg.min_workers, 3);
        assert_eq!(o.seed_bits, 10);
        assert_eq!(o.strategy, SeedStrategy::BitwiseCondExp);
        assert_eq!(o.cfg.blocks_per_lease, 16);
        assert_eq!(o.cfg.local_patience_ms, 250);
        assert_eq!(o.cfg.lease_timeout_ms, 500);
        assert_eq!(o.cfg.heartbeat_timeout_ms, 4_000);
        assert_eq!(o.out.as_deref(), Some("c.txt"));

        let o =
            parse_coordinator_args(&["--listen", ":9001", "--standby", "primary:9000"]).unwrap();
        assert!(o.input.is_none());
        assert_eq!(o.standby_of.as_deref(), Some("primary:9000"));
    }

    #[test]
    fn coordinator_rejects_bad_and_contradictory_flags() {
        let e = parse_coordinator_args(&["g.col"]).unwrap_err();
        assert!(e.contains("--listen"), "{e}");
        let e = parse_coordinator_args(&["--listen", ":9000"]).unwrap_err();
        assert!(e.contains("missing input"), "{e}");
        let e = parse_coordinator_args(&["g.col", "--listen", ":9000", "--standby", "p:1"])
            .unwrap_err();
        assert!(e.contains("contradict"), "{e}");
        let e =
            parse_coordinator_args(&["--listen", ":9000", "--standby", "p:1", "--seed-bits", "8"])
                .unwrap_err();
        assert!(e.contains("contradict"), "{e}");
        let e = parse_coordinator_args(&["g.col", "--listen", ":9000", "--strategy", "zz"])
            .unwrap_err();
        assert!(e.contains("unknown strategy"), "{e}");
    }

    #[test]
    fn coordinator_validates_knob_ranges() {
        for (flag, low, high) in [
            ("--blocks-per-lease", "0", "1025"),
            ("--local-patience-ms", "-1", "600001"),
            ("--lease-timeout-ms", "9", "600001"),
            ("--heartbeat-timeout-ms", "9", "600001"),
        ] {
            for bad in [low, high] {
                let e =
                    parse_coordinator_args(&["g.col", "--listen", ":9000", flag, bad]).unwrap_err();
                assert!(
                    e.contains("must be in") || e.contains("expects a number"),
                    "{flag} {bad} -> {e}"
                );
            }
        }
        // Boundary values are accepted.
        assert!(parse_coordinator_args(&[
            "g.col",
            "--listen",
            ":9000",
            "--blocks-per-lease",
            "1024",
            "--lease-timeout-ms",
            "10",
        ])
        .is_ok());
    }

    #[test]
    fn worker_builds_the_ordered_coordinator_list() {
        let o = parse_worker_args(&["--connect", "a:1"]).unwrap();
        assert_eq!(o.connect, vec!["a:1"]);
        let o = parse_worker_args(&["--connect", "a:1,b:2", "--workers", "4"]).unwrap();
        assert_eq!(o.connect, vec!["a:1", "b:2"]);
        assert_eq!(o.workers, 4);
        let o = parse_worker_args(&["--connect", "a:1", "--connect", "b:2"]).unwrap();
        assert_eq!(o.connect, vec!["a:1", "b:2"]);

        let e = parse_worker_args(&[] as &[&str]).unwrap_err();
        assert!(e.contains("--connect"), "{e}");
        let e = parse_worker_args(&["--connect", "a:1,,b:2"]).unwrap_err();
        assert!(e.contains("empty address"), "{e}");
        let e = parse_worker_args(&["--connect", "a:1", "stray"]).unwrap_err();
        assert!(e.contains("unexpected argument"), "{e}");
    }

    #[test]
    fn gen_accepts_family_sizes_seed_and_output() {
        let o = parse_gen_args(&["gnp", "2000", "4"]).unwrap();
        assert_eq!(o.family, GenFamily::Gnp);
        assert_eq!((o.n, o.param, o.seed), (2000, 4, 42));
        assert!(o.out.is_none());
        let o = parse_gen_args(&["-o", "g.pcg", "torus", "0", "30", "7"]).unwrap();
        assert_eq!(o.family, GenFamily::Torus);
        assert_eq!((o.param, o.seed), (30, 7));
        assert_eq!(o.out.as_deref(), Some("g.pcg"));
        let e = parse_gen_args(&["gnm", "10"]).unwrap_err();
        assert!(e.contains("expected <family>"), "{e}");
        let e = parse_gen_args(&["cube", "10", "3"]).unwrap_err();
        assert!(e.contains("unknown family"), "{e}");
    }

    #[test]
    fn gen_rejects_non_integer_sizes() {
        let e = parse_gen_args(&["gnm", "1e5", "10"]).unwrap_err();
        assert!(e.contains("n expects a number"), "{e}");
        let e = parse_gen_args(&["gnm", "100", "ten"]).unwrap_err();
        assert!(e.contains("param expects a number"), "{e}");
        // gnp's param is per-mille; a fractional p says so.
        let e = parse_gen_args(&["gnp", "2000", "0.0004"]).unwrap_err();
        assert!(e.contains("p·1000"), "{e}");
    }

    #[test]
    fn gen_rejects_n_beyond_node_ids() {
        assert!(parse_gen_args(&["ring", "4294967295", "0"]).is_ok());
        let e = parse_gen_args(&["ring", "4294967296", "0"]).unwrap_err();
        assert!(e.contains("at most 4294967295"), "{e}");
    }

    #[test]
    fn gen_rejects_malformed_seed() {
        let e = parse_gen_args(&["gnm", "100", "200", "0x2a"]).unwrap_err();
        assert!(e.contains("seed expects a number"), "{e}");
        let e = parse_gen_args(&["gnm", "100", "200", "1", "2"]).unwrap_err();
        assert!(e.contains("unexpected extra argument"), "{e}");
    }
}
