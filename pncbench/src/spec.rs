//! The two files that define the benchmark: `BENCHMARK.json` at the
//! repository root (workloads, metrics and bounds) and
//! `pncbench/workloads.json` (each workload's shape, loop, offered rate,
//! outstanding window and fixed knobs, and for each end-to-end metric the
//! layer metrics expected to move it). The run refuses to start unless
//! both parse and agree with each other.

use std::path::Path;

use serde::{Content, Deserialize};

/// `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<NamedWorkload>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// One `BENCHMARK.json` workload entry.
#[derive(Debug, Clone, Deserialize)]
pub struct NamedWorkload {
    pub name: String,
    pub why: String,
}

/// One `BENCHMARK.json` metric entry (`bound` only on end-to-end metrics).
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// `pncbench/workloads.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Plan {
    pub workloads: Vec<WorkloadPlan>,
    pub metrics: Vec<MetricPlan>,
}

/// How one workload is driven.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadPlan {
    pub name: String,
    pub why: String,
    pub shape: String,
    /// `open+closed`, `closed` or `batch`.
    pub load: String,
    /// Requests (or chunks) per second offered by the open-loop phase.
    pub offered_rate: Option<f64>,
    /// Requests kept outstanding by the closed-loop phase.
    pub outstanding: Option<usize>,
    pub seed: String,
    pub knobs: Knobs,
}

/// The layer metrics expected to move one end-to-end metric, as
/// `layer.metric@workload` entries.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricPlan {
    pub name: String,
    pub moved_by: Vec<String>,
    /// Layer metrics predicted to leave this metric unchanged.
    pub unmoved_by: Vec<String>,
}

/// A workload's fixed numeric knobs, by name.
#[derive(Debug, Clone, Default)]
pub struct Knobs(Vec<(String, f64)>);

impl Deserialize for Knobs {
    fn from_content(content: &Content) -> Result<Self, String> {
        let Content::Map(entries) = content else {
            return Err("knobs must be an object".into());
        };
        entries
            .iter()
            .map(|(k, v)| f64::from_content(v).map(|x| (k.clone(), x)))
            .collect::<Result<_, _>>()
            .map(Knobs)
    }
}

impl Knobs {
    /// The knob `name`.
    ///
    /// # Errors
    ///
    /// When the knob is missing.
    pub fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("workloads.json: knob `{name}` missing"))
    }

    /// The knob `name` as a count.
    ///
    /// # Errors
    ///
    /// When the knob is missing or not a non-negative whole number.
    pub fn count(&self, name: &str) -> Result<usize, String> {
        let v = self.get(name)?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!(
                "workloads.json: knob `{name}` must be a count, got {v}"
            ));
        }
        Ok(v as usize)
    }

    /// Every knob, for the run stamp.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.0
    }
}

/// Both definition files, checked against each other.
#[derive(Debug, Clone)]
pub struct Spec {
    pub benchmark: Benchmark,
    pub plan: Plan,
}

impl Spec {
    /// Reads both files relative to the repository root `root`.
    ///
    /// # Errors
    ///
    /// When a file is missing, malformed, or the two disagree.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))
        };
        Spec::parse(&read("BENCHMARK.json")?, &read("pncbench/workloads.json")?)
    }

    /// Parses and cross-checks the two files' contents.
    ///
    /// # Errors
    ///
    /// When either is malformed or they disagree.
    pub fn parse(benchmark: &str, plan: &str) -> Result<Spec, String> {
        let benchmark: Benchmark =
            serde_json::from_str(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let plan: Plan = serde_json::from_str(plan).map_err(|e| format!("workloads.json: {e}"))?;
        let spec = Spec { benchmark, plan };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        let b = &self.benchmark;
        let mut names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        let mut planned: Vec<&str> = self
            .plan
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        names.sort_unstable();
        planned.sort_unstable();
        if names != planned {
            return Err(format!(
                "workloads differ: BENCHMARK.json has {names:?}, workloads.json has {planned:?}"
            ));
        }
        let all = b.end_to_end.iter().chain(&b.per_layer);
        for w in &b.workloads {
            if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
                return Err(format!(
                    "workload `{}`: why must be one line of 1-200 chars",
                    w.name
                ));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in all {
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric `{}` defined twice", m.name));
            }
            if m.better != "higher" && m.better != "lower" {
                return Err(format!(
                    "metric `{}`: better must be higher or lower",
                    m.name
                ));
            }
        }
        for m in &b.end_to_end {
            match m.bound {
                Some(x) if x > 0.0 && x <= 0.25 => {}
                _ => {
                    return Err(format!(
                        "end-to-end metric `{}` needs a bound in (0, 0.25]",
                        m.name
                    ))
                }
            }
        }
        if !b.end_to_end.iter().any(|m| m.name == "setup_s") {
            return Err("end_to_end must define setup_s".into());
        }
        for mp in &self.plan.metrics {
            if !b.end_to_end.iter().any(|m| m.name == mp.name) {
                return Err(format!(
                    "workloads.json maps unknown end-to-end metric `{}`",
                    mp.name
                ));
            }
            for mover in mp.moved_by.iter().chain(&mp.unmoved_by) {
                let (layer, wl) = mover
                    .split_once('@')
                    .ok_or_else(|| format!("`{mover}` is not layer.metric@workload"))?;
                if !b.per_layer.iter().any(|m| m.name == layer) {
                    return Err(format!("`{mover}` names an unknown per-layer metric"));
                }
                if !b.workloads.iter().any(|w| w.name == wl) {
                    return Err(format!("`{mover}` names an unknown workload"));
                }
            }
        }
        Ok(())
    }

    /// The plan of workload `name`.
    ///
    /// # Errors
    ///
    /// When `name` is not a defined workload.
    pub fn workload(&self, name: &str) -> Result<&WorkloadPlan, String> {
        self.plan
            .workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    /// The metric definitions a run prints: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.benchmark.per_layer
        } else {
            &self.benchmark.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "command": ["cargo", "run"],
      "paths": ["pncbench"],
      "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "tps", "unit": "1/s", "better": "higher", "bound": 0.1}
      ],
      "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]
    }"#;

    fn plan(moved_by: &str) -> String {
        format!(
            r#"{{
          "workloads": [
            {{"name": "b", "why": "y", "shape": "s", "load": "closed", "outstanding": 4,
              "seed": "argument", "knobs": {{"steps": 8, "rate": 1.5}}}},
            {{"name": "a", "why": "x", "shape": "s", "load": "batch", "seed": "argument",
              "knobs": {{}}}}
          ],
          "metrics": [{{"name": "tps", "moved_by": [{moved_by}], "unmoved_by": []}}]
        }}"#
        )
    }

    #[test]
    fn parses_and_cross_checks() {
        let spec = Spec::parse(BENCH, &plan(r#""l.x@a""#)).unwrap();
        assert_eq!(spec.benchmark.run_seconds, 10);
        assert_eq!(spec.metrics(false).len(), 2);
        assert_eq!(spec.metrics(true)[0].name, "l.x");
        assert_eq!(spec.metrics(true)[0].bound, None);
        let b = spec.workload("b").unwrap();
        assert_eq!(b.outstanding, Some(4));
        assert_eq!(b.offered_rate, None);
        assert_eq!(b.knobs.count("steps"), Ok(8));
        assert_eq!(b.knobs.get("rate"), Ok(1.5));
        assert!(b.knobs.count("rate").is_err());
        assert!(b.knobs.get("missing").is_err());
        assert!(spec.workload("c").is_err());
    }

    #[test]
    fn rejects_unknown_movers_and_mismatched_workloads() {
        assert!(Spec::parse(BENCH, &plan(r#""l.y@a""#)).is_err());
        assert!(Spec::parse(BENCH, &plan(r#""l.x@c""#)).is_err());
        assert!(Spec::parse(BENCH, &plan(r#""l.x""#)).is_err());
        let one_workload = BENCH.replace(r#", {"name": "b", "why": "y"}"#, "");
        assert!(Spec::parse(&one_workload, &plan(r#""l.x@a""#)).is_err());
    }

    #[test]
    fn rejects_bad_bounds_and_missing_setup() {
        let loose = BENCH.replace("\"bound\": 0.1", "\"bound\": 0.5");
        assert!(Spec::parse(&loose, &plan(r#""l.x@a""#)).is_err());
        let no_setup = BENCH.replace("setup_s", "boot_s");
        assert!(Spec::parse(&no_setup, &plan(r#""l.x@a""#)).is_err());
        assert!(Spec::parse("{", &plan(r#""l.x@a""#)).is_err());
    }
}
