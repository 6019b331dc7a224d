//! Shared utilities for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary prints its table/figure data to stdout in the paper's row
//! order. Fidelity is controlled by the `PNC_*` environment variables,
//! parsed once at startup by [`config::Config`]; `PNC_DATASETS`
//! (comma-separated names) restricts the benchmark list and
//! `PNC_TELEMETRY=<path>` dumps a run-manifest JSONL (see
//! [`with_run_manifest`]).

pub mod alloc;
pub mod config;

use ptnc_datasets::{all_specs, BenchmarkSpec};

pub use alloc::{allocations, CountingAlloc};
pub use config::{or_exit, Config, ConfigError};

/// Formats `mean ± std` like the paper's tables.
pub fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{mean:.3} ± {std:.3}")
}

/// Prints one aligned table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule matching the given column widths.
pub fn print_rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// The benchmark list, optionally filtered by comma-separated paper names
/// (matched case-insensitively).
pub fn selected_specs(filter: Option<&str>) -> Vec<&'static BenchmarkSpec> {
    match filter {
        None => all_specs().iter().collect(),
        Some(filter) => {
            let wanted: Vec<&str> = filter.split(',').map(str::trim).collect();
            all_specs()
                .iter()
                .filter(|s| wanted.iter().any(|w| w.eq_ignore_ascii_case(s.name)))
                .collect()
        }
    }
}

/// Arithmetic mean of a slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs an experiment binary's body under a telemetry scope when `path`
/// is set, writing a run-manifest JSONL there: the `header` span (see
/// [`Config::run_header`]) followed by every event the run emitted, in
/// deterministic order.
///
/// Without a path the body runs with telemetry disabled and nothing is
/// written.
///
/// # Panics
///
/// Panics if the manifest file cannot be written.
pub fn with_run_manifest<R>(
    path: Option<&str>,
    header: ptnc_telemetry::Event,
    body: impl FnOnce() -> R,
) -> R {
    let Some(path) = path else {
        return body();
    };
    let (result, events) = ptnc_telemetry::collect(body);
    let mut manifest = vec![header];
    manifest.extend(events);
    ptnc_telemetry::write_jsonl(path, &manifest)
        .unwrap_or_else(|e| panic!("writing telemetry manifest {path}: {e}"));
    eprintln!("wrote {} telemetry events to {path}", manifest.len());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pm_matches_paper_style() {
        assert_eq!(fmt_pm(0.7261, 0.0141), "0.726 ± 0.014");
    }

    #[test]
    fn all_specs_selected_without_filter() {
        assert_eq!(selected_specs(None).len(), 15);
        let picked = selected_specs(Some("cbf, SLOPE ,nope"));
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 2, "{names:?}");
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    fn header() -> ptnc_telemetry::Event {
        ptnc_telemetry::Event::new(ptnc_telemetry::Kind::Span, "run").field("bin", "test_bin")
    }

    #[test]
    fn manifest_disabled_without_env_var() {
        // No manifest path: the body runs with telemetry off and nothing
        // is written.
        let enabled = with_run_manifest(None, header(), ptnc_telemetry::is_enabled);
        assert!(!enabled);
    }

    #[test]
    fn manifest_written_when_env_var_set() {
        let path = std::env::temp_dir().join(format!(
            "ptnc_bench_manifest_test_{}.jsonl",
            std::process::id()
        ));
        with_run_manifest(path.to_str(), header(), || {
            ptnc_telemetry::counter("test.events", 3);
        });
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = contents.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"name\":\"run\""), "header: {header}");
        assert!(header.contains("test_bin"), "header: {header}");
        let body = lines.next().unwrap();
        assert!(body.contains("test.events"), "body: {body}");
    }
}
