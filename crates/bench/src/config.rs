//! Configuration of the bench binaries, parsed once at startup from one
//! name→value map into typed values. The library crates read no
//! environment variables. A malformed value is a [`ConfigError`] naming
//! the variable and its value, and the binaries exit with it ([`or_exit`]).
//! Knobs shared by every binary (each binary documents its own):
//!
//! | variable | meaning | default |
//! |----------|---------|---------|
//! | `PNC_SEEDS` | training seeds per dataset | 3 |
//! | `PNC_EPOCHS` | epoch cap | 300 |
//! | `PNC_MC` | Monte-Carlo samples per epoch | 2 |
//! | `PNC_TRIALS` | variation instances at test time | 5 |
//! | `PNC_TOPK` | models kept per dataset ("top three", §IV-B) | 2 |
//! | `PNC_HIDDEN` | hidden width of all models | 8 |
//! | `PNC_DATASETS` | comma-separated benchmark names | all 15 |
//! | `PNC_THREADS` | fan-out width; `0` keeps the default | `RAYON_NUM_THREADS`, then cores |
//! | `PNC_SMOKE` | shrink the workload for CI (`0` = off) | off |
//! | `PNC_TELEMETRY` | run-manifest JSONL path | none |

use std::collections::BTreeMap;
use std::str::FromStr;

use adapt_pnc::experiments::ExperimentScale;
use adapt_pnc::parallel::ParallelRunner;
use ptnc_datasets::BenchmarkSpec;

/// A variable whose value does not parse as the type its knob needs. The
/// message names the variable, the type and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Unwraps a parsed value, or prints the error and exits with status 2.
pub fn or_exit<T>(parsed: Result<T, ConfigError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The parsed configuration of one binary run. Displays as the shared
/// knobs in effect, for the binaries' startup line.
#[derive(Debug, Clone)]
pub struct Config {
    vars: BTreeMap<String, String>,
    /// Experiment fidelity (`PNC_SEEDS` … `PNC_HIDDEN`).
    pub scale: ExperimentScale,
    /// Fan-out runner (`PNC_THREADS`).
    pub runner: ParallelRunner,
}

impl Config {
    /// Parses the process's `PNC_*` variables, exiting on a malformed one.
    pub fn from_process() -> Self {
        let vars = std::env::vars_os()
            .map(|(k, v)| (k.to_string_lossy().into(), v.to_string_lossy().into()))
            .filter(|(k, _): &(String, String)| k.starts_with("PNC_"))
            .collect();
        or_exit(Self::parse(vars))
    }

    /// Parses the shared knobs from a name→value map.
    pub fn parse(vars: BTreeMap<String, String>) -> Result<Self, ConfigError> {
        let get = |name: &str, default: usize| parse_var(&vars, name, default);
        let q = ExperimentScale::quick();
        let scale = ExperimentScale {
            seeds: get("PNC_SEEDS", q.seeds)?.max(1),
            epochs: get("PNC_EPOCHS", q.epochs)?.max(1),
            mc_samples: get("PNC_MC", q.mc_samples)?.max(1),
            variation_trials: get("PNC_TRIALS", q.variation_trials)?.max(1),
            top_k: get("PNC_TOPK", q.top_k)?.max(1),
            hidden: get("PNC_HIDDEN", q.hidden)?.max(2),
        };
        let runner = match get("PNC_THREADS", 0)? {
            0 => ParallelRunner::default(),
            n => ParallelRunner::default().with_threads(n),
        };
        Ok(Config {
            vars,
            scale,
            runner,
        })
    }

    /// The raw value of a variable, if set.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.vars.get(name).map(String::as_str)
    }

    /// Whether a switch is on: set to anything but `0`.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != "0")
    }

    /// Whether `PNC_SMOKE` asks for the shrunken CI workload.
    pub fn smoke(&self) -> bool {
        self.flag("PNC_SMOKE")
    }

    /// Parses a variable, or returns `default` when it is unset.
    pub fn parse_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, ConfigError> {
        parse_var(&self.vars, name, default)
    }

    /// The benchmarks selected by `PNC_DATASETS` (all of them when unset).
    pub fn specs(&self) -> Vec<&'static BenchmarkSpec> {
        crate::selected_specs(self.get("PNC_DATASETS"))
    }

    /// Runs `body` under [`crate::with_run_manifest`] with this run's
    /// header, writing to `PNC_TELEMETRY` when it is set.
    pub fn with_run_manifest<R>(&self, bin: &str, body: impl FnOnce() -> R) -> R {
        crate::with_run_manifest(self.get("PNC_TELEMETRY"), self.run_header(bin), body)
    }

    /// The manifest's `run` header: the binary name and the value in effect
    /// of each of `PNC_DATASETS`, `PNC_EPOCHS`, `PNC_SEEDS` and
    /// `PNC_THREADS` that is set, under the variable's lower-case name.
    pub fn run_header(&self, bin: &str) -> ptnc_telemetry::Event {
        let mut event =
            ptnc_telemetry::Event::new(ptnc_telemetry::Kind::Span, "run").field("bin", bin);
        if let Some(filter) = self.get("PNC_DATASETS") {
            event = event.field("pnc_datasets", filter);
        }
        for (name, value) in [
            ("PNC_EPOCHS", self.scale.epochs),
            ("PNC_SEEDS", self.scale.seeds),
            ("PNC_THREADS", self.runner.threads()),
        ] {
            if self.get(name).is_some() {
                event = event.field(name.to_ascii_lowercase(), value);
            }
        }
        event
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (scale, threads) = (self.scale, self.runner.threads());
        write!(f, "scale = {scale:?}, threads = {threads}")
    }
}

/// The one parser behind every knob: `default` when `name` is unset, the
/// parsed value when it is set, an error naming both otherwise.
fn parse_var<T: FromStr>(
    vars: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, ConfigError> {
    let Some(value) = vars.get(name) else {
        return Ok(default);
    };
    let expected = std::any::type_name::<T>();
    value
        .trim()
        .parse()
        .map_err(|_| ConfigError(format!("{name} must be a {expected}, got `{value}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let vars = pairs.iter().map(|&(k, v)| (k.into(), v.into()));
        Config::parse(vars.collect())
    }

    #[test]
    fn unset_knobs_mean_the_defaults() {
        let cfg = config(&[]).unwrap();
        assert_eq!(cfg.scale, ExperimentScale::quick());
        assert_eq!(cfg.runner.threads(), ParallelRunner::default().threads());
        assert!(!cfg.smoke());
        assert_eq!(cfg.specs().len(), 15);
        assert_eq!(cfg.parse_or("PNC_INFER_SEQS", 256), Ok(256));
    }

    #[test]
    fn set_knobs_override_and_clamp() {
        let cfg = config(&[
            ("PNC_EPOCHS", "15"),
            ("PNC_HIDDEN", "0"),
            ("PNC_THREADS", " 3 "),
            ("PNC_SMOKE", "1"),
            ("PNC_DATASETS", "cbf, Slope"),
        ])
        .unwrap();
        assert_eq!(cfg.scale.epochs, 15);
        assert_eq!(cfg.scale.hidden, 2);
        assert_eq!(cfg.runner.threads(), 3);
        assert!(cfg.smoke());
        assert_eq!(cfg.specs().len(), 2);
        assert!(!config(&[("PNC_SMOKE", "0")]).unwrap().smoke());
    }

    #[test]
    fn malformed_integer_names_the_variable_and_value() {
        let err = config(&[("PNC_EPOCHS", "abc")]).unwrap_err();
        assert_eq!(err.to_string(), "PNC_EPOCHS must be a usize, got `abc`");
        assert!(config(&[("PNC_THREADS", "-1")]).is_err());
        let cfg = config(&[("PNC_QUANT_MIN_AGREEMENT", "high")]).unwrap();
        let err = cfg.parse_or("PNC_QUANT_MIN_AGREEMENT", 0.9).unwrap_err();
        assert_eq!(
            err.to_string(),
            "PNC_QUANT_MIN_AGREEMENT must be a f64, got `high`"
        );
    }

    #[test]
    fn run_header_records_the_parsed_knobs_that_are_set() {
        let cfg = config(&[("PNC_EPOCHS", "04"), ("PNC_DATASETS", "GPOVY")]).unwrap();
        let header = cfg.run_header("bin").to_json();
        assert!(header.contains("\"bin\":\"bin\""), "{header}");
        assert!(header.contains("\"pnc_datasets\":\"GPOVY\""), "{header}");
        assert!(header.contains("\"pnc_epochs\":4"), "{header}");
        assert!(!header.contains("pnc_seeds"), "{header}");
        assert!(!header.contains("pnc_threads"), "{header}");
    }
}
