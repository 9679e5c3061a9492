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
/// own on top).
pub fn parse() -> CommonArgs {
    parse_from(std::env::args().skip(1))
}

/// Parses from an explicit iterator (testable).
pub fn parse_from(args: impl IntoIterator<Item = String>) -> CommonArgs {
    let mut out = CommonArgs::default();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--csv" => out.csv = true,
            "--threads" => {
                out.threads = iter.next().and_then(|v| v.parse().ok());
            }
            _ => {}
        }
    }
    out
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
        let a = parse_from(v(&["--quick", "--threads", "4", "--csv"]));
        assert!(a.quick && a.csv);
        assert_eq!(a.threads, Some(4));
    }

    #[test]
    fn ignores_unknown() {
        let a = parse_from(v(&["--whatever"]));
        assert!(!a.quick && !a.csv && a.threads.is_none());
    }

    #[test]
    fn missing_thread_count_is_none() {
        let a = parse_from(v(&["--threads", "x"]));
        assert_eq!(a.threads, None);
    }

    #[test]
    fn workers_prefers_the_flag() {
        assert_eq!(parse_from(v(&["--threads", "3"])).workers(), 3);
        assert!(parse_from(v(&[])).workers() >= 1);
    }
}
