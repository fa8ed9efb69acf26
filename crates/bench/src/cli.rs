//! Shared command-line parsing for the harness binaries.
//!
//! All three binaries (`figure7`, `figure8`, `ablation_synth`) accept the
//! same flags; this module replaces the three hand-rolled copies of the
//! parsing loop they used to carry.

use std::str::FromStr;
use std::time::Duration;

use crate::HarnessConfig;

/// Parsed harness command-line arguments.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// `--quick` (alias `!--full`): reduced bounds and the fast subset.
    pub quick: bool,
    /// `--timeout <secs>`: per-benchmark wall-clock budget override.
    pub timeout: Option<Duration>,
    /// `--parallelism <n>`: verifier worker threads.
    pub parallelism: usize,
    /// `--out <path>`: where to write the JSON rows.
    pub out: Option<String>,
    /// `--warm-dir <path>`: the warm-start store.  Every engine the harness
    /// builds loads per-problem cache snapshots from this directory, and the
    /// binaries save their engines' state back into it when they finish — so
    /// a *second invocation of the binary* (a fresh process) starts from the
    /// first one's caches.  Unset = fully cold, no filesystem access.
    pub warm_dir: Option<String>,
    /// `--benchmark <id>` (repeatable): restrict the run to specific
    /// benchmark ids.  Empty = the full selection of the mode.
    pub benchmark_filter: Vec<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, treating `default_quick` as the mode when
    /// neither `--quick` nor `--full` is given.  An unknown argument or a bad
    /// flag value is printed and the process exits with status 2.
    pub fn parse(default_quick: bool) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args, default_quick).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list (exposed for tests).  An argument
    /// that is neither an accepted flag nor the value of one is an error
    /// that names it and lists the accepted flags; so is a missing or
    /// unparsable flag value, which names the flag.
    pub fn from_args(args: &[String], default_quick: bool) -> Result<Self, String> {
        let mut parsed = HarnessArgs {
            quick: default_quick,
            timeout: None,
            parallelism: 1,
            out: None,
            warm_dir: None,
            benchmark_filter: Vec::new(),
        };
        let (mut quick, mut full) = (false, false);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => quick = true,
                "--full" => full = true,
                "--timeout" => {
                    parsed.timeout = Some(Duration::from_secs(parse_value(flag, value()?)?))
                }
                "--parallelism" => parsed.parallelism = parse_value(flag, value()?)?,
                "--out" => parsed.out = Some(value()?.clone()),
                "--warm-dir" => parsed.warm_dir = Some(value()?.clone()),
                "--benchmark" => parsed.benchmark_filter.push(value()?.clone()),
                other => {
                    return Err(format!(
                        "unknown argument {other:?}; accepted flags: {ACCEPTED_FLAGS}"
                    ))
                }
            }
        }
        // `--quick` wins over `--full`; neither selects the default mode.
        parsed.quick = quick || (!full && default_quick);
        Ok(parsed)
    }

    /// Builds the harness configuration these arguments describe.
    pub fn harness(&self) -> HarnessConfig {
        let mut harness = if self.quick {
            HarnessConfig::quick()
        } else {
            HarnessConfig::full()
        };
        if let Some(timeout) = self.timeout {
            harness.timeout = timeout;
        }
        harness.parallelism = self.parallelism;
        harness.warm_dir = self.warm_dir.clone();
        harness
    }

    /// The benchmark set these arguments select (`--quick` subset or the
    /// full registry, narrowed by any `--benchmark` filters).
    pub fn benchmarks(&self) -> Vec<hanoi_benchmarks::Benchmark> {
        let all = if self.quick {
            hanoi_benchmarks::quick_subset()
        } else {
            hanoi_benchmarks::registry()
        };
        if self.benchmark_filter.is_empty() {
            return all;
        }
        all.into_iter()
            .filter(|b| self.benchmark_filter.iter().any(|id| id == b.id))
            .collect()
    }

    /// The output path, with a fallback default.
    pub fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
    }
}

/// The flags [`HarnessArgs::from_args`] accepts, as its error lists them.
const ACCEPTED_FLAGS: &str = "--quick, --full, --timeout <secs>, --parallelism <n>, \
    --out <path>, --warm-dir <path>, --benchmark <id>";

/// `raw` parsed as the value of `flag`, or an error naming the flag.
fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_default() {
        let args = HarnessArgs::from_args(
            &strings(&[
                "--quick",
                "--timeout",
                "7",
                "--parallelism",
                "3",
                "--out",
                "x.json",
            ]),
            false,
        )
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.timeout, Some(Duration::from_secs(7)));
        assert_eq!(args.parallelism, 3);
        assert_eq!(args.out_or("d.json"), "x.json");
        assert_eq!(args.warm_dir, None);
        let harness = args.harness();
        assert_eq!(harness.timeout, Duration::from_secs(7));
        assert!(!harness.paper_bounds);
        assert_eq!(harness.parallelism, 3);
        assert_eq!(harness.warm_dir, None);

        let defaults = HarnessArgs::from_args(&strings(&[]), true).unwrap();
        assert!(defaults.quick);
        assert_eq!(defaults.parallelism, 1);
        assert_eq!(defaults.out_or("d.json"), "d.json");
        assert!(!defaults.benchmarks().is_empty());

        let full = HarnessArgs::from_args(&strings(&["--full"]), true).unwrap();
        assert!(!full.quick);
        assert!(full.harness().paper_bounds);
        assert_eq!(full.benchmarks().len(), 28);
    }

    #[test]
    fn warm_dir_and_benchmark_filters_parse() {
        let args = HarnessArgs::from_args(
            &strings(&[
                "--warm-dir",
                "/tmp/warm",
                "--benchmark",
                "/other/cache",
                "--benchmark",
                "/other/rational",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(args.warm_dir.as_deref(), Some("/tmp/warm"));
        assert_eq!(args.harness().warm_dir.as_deref(), Some("/tmp/warm"));
        let ids: Vec<&str> = args.benchmarks().iter().map(|b| b.id).collect();
        assert_eq!(ids, vec!["/other/cache", "/other/rational"]);
        // An unknown id filters to nothing rather than erroring.
        let none = HarnessArgs::from_args(&strings(&["--benchmark", "/no/such"]), false).unwrap();
        assert!(none.benchmarks().is_empty());
    }

    #[test]
    fn bad_numeric_values_are_errors_naming_the_flag() {
        let err = HarnessArgs::from_args(&strings(&["--parallelism", "x"]), true).unwrap_err();
        assert!(err.contains("--parallelism"), "{err}");
        let err = HarnessArgs::from_args(&strings(&["--timeout", "-1"]), true).unwrap_err();
        assert!(err.contains("--timeout"), "{err}");
        let err = HarnessArgs::from_args(&strings(&["--quick", "--timeout"]), true).unwrap_err();
        assert!(err.contains("--timeout"), "{err}");
    }

    #[test]
    fn unknown_arguments_are_errors_listing_the_accepted_flags() {
        for (args, culprit) in [
            (&["--help"][..], "--help"),
            (&["--paralelism", "2"][..], "--paralelism"),
            (&["--quick", "stray"][..], "stray"),
        ] {
            let err = HarnessArgs::from_args(&strings(args), true).unwrap_err();
            assert!(err.contains(&format!("{culprit:?}")), "{err}");
            assert!(err.contains(ACCEPTED_FLAGS), "{err}");
        }
        // A flag's value is not an argument of its own, even when it looks
        // like one.
        let args = HarnessArgs::from_args(&strings(&["--out", "--full"]), true).unwrap();
        assert_eq!(args.out.as_deref(), Some("--full"));
        assert!(args.quick);
    }
}
