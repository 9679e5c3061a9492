//! Minimal flag parsing shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` — shrink sweeps/repetitions for smoke testing;
//! * `--csv` — emit CSV instead of an aligned table;
//! * `--threads N` — worker count for parallel plans and drivers (default:
//!   all cores).

/// Parsed common flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommonArgs {
    /// Reduced problem sizes / repetitions.
    pub quick: bool,
    /// CSV output.
    pub csv: bool,
    /// Requested worker count (`None` = all cores).
    pub threads: Option<usize>,
}

/// Parses `std::env::args`, ignoring unknown flags (binaries may add their
/// own on top). A malformed `--threads` is a usage error: exit 2.
pub fn parse() -> CommonArgs {
    parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: [--quick] [--csv] [--threads N]");
        std::process::exit(2);
    })
}

/// Parses from an explicit iterator (testable).
pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
    let mut out = CommonArgs::default();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--csv" => out.csv = true,
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                let n =
                    v.parse().map_err(|_| format!("--threads must be an integer, got '{v}'"))?;
                out.threads = Some(n);
            }
            _ => {}
        }
    }
    Ok(out)
}

impl CommonArgs {
    /// The worker count parallel plans and drivers get: `--threads`, else
    /// the machine's available parallelism.
    pub fn workers(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let a = parse_from(v(&["--quick", "--threads", "4", "--csv"])).unwrap();
        assert!(a.quick && a.csv);
        assert_eq!(a.threads, Some(4));
    }

    #[test]
    fn ignores_unknown() {
        let a = parse_from(v(&["--whatever"])).unwrap();
        assert!(!a.quick && !a.csv && a.threads.is_none());
    }

    #[test]
    fn malformed_thread_count_is_a_usage_error() {
        assert!(parse_from(v(&["--threads", "x"])).is_err());
        assert!(parse_from(v(&["--threads"])).is_err());
    }

    #[test]
    fn workers_prefers_the_flag() {
        assert_eq!(parse_from(v(&["--threads", "3"])).unwrap().workers(), 3);
        assert!(parse_from(v(&[])).unwrap().workers() >= 1);
    }
}
