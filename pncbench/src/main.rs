//! `pncbench` — the repository's benchmark. One run drives one named
//! workload against the stack's public APIs from outside, checks every
//! answer, and prints each metric by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path pncbench/Cargo.toml -- \
//!     --workload sessions_f32 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` and
//! `pncbench/workloads.json` there and keeps scratch files and traces under
//! `.bench_out/`. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the workload untraced and traced, prints the per-layer metrics and
//! the tracing overhead, and writes the spans to
//! `.bench_out/traces/<workload>-seed<seed>.jsonl`. The exit code is 1 when
//! an output check fails or an open-loop generator ran too late to trust.

mod churn;
mod load;
mod phase;
mod serving;
mod sessions;
mod spec;
mod stats;
mod sys;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::load::LoopStats;
use crate::phase::PhaseCount;
use crate::spec::{Spec, WorkloadPlan};
use crate::trace::Span;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// Where a run keeps its scratch files and traces, relative to the root.
const OUT_DIR: &str = ".bench_out";

/// Everything a workload needs to run.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plan: &'a WorkloadPlan,
    /// Scratch directory of this run (snapshot files).
    pub dir: PathBuf,
    /// Clock origin of recorded spans.
    pub epoch: Instant,
}

impl Ctx<'_> {
    /// `share` of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Trace switch, op sampling and clock for a phase run with tracing
    /// `on`; the workload's `trace_every` knob sets the sampling.
    pub fn tracing(&self, on: bool) -> ((bool, u64), Instant) {
        let every = self.plan.knobs.count("trace_every").unwrap_or(1) as u64;
        ((on, every), self.epoch)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up round.
    pub setup_s: Vec<f64>,
    pub metrics: BTreeMap<String, f64>,
    pub phases: Vec<PhaseCount>,
    pub checks: Vec<(String, Result<(), String>)>,
    /// Configuration in effect, for the run stamp.
    pub config: Vec<(String, String)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a load phase: its tally, a summary line, and its latency
    /// tail with the sample count behind it.
    pub fn phase(&mut self, name: &str, st: &LoopStats) {
        let mut p = st.phase.clone();
        p.name = name.to_string();
        self.phases.push(p);
        let mut line = format!(
            "phase {name}: sent {} ok {} failed {} in {:.3} s, {:.0} timesteps/s",
            st.phase.sent,
            st.phase.ok,
            st.phase.failed,
            st.elapsed.as_secs_f64(),
            st.timesteps as f64 / st.elapsed.as_secs_f64().max(1e-9)
        );
        if let Some(s) = st.latency_us.summary() {
            line += &format!(", latency p50 {:.1} us", s.p50);
            if let Some((q, v)) = s.tail {
                line += &format!(", p{} {v:.1} us", q * 100.0);
            }
            line += &format!(", max {:.1} us over {} samples", s.max, s.count);
        }
        self.note(line);
    }

    /// Checks an open-loop phase's generator: it must have achieved at
    /// least `min_share` of the offered rate and sent its median request
    /// no later than `bound_us` after it was due. Otherwise the latencies
    /// measure the generator, not the server, and the run is invalid.
    pub fn check_generator(
        &mut self,
        name: &str,
        st: &LoopStats,
        offered: f64,
        bound_us: f64,
        min_share: f64,
    ) {
        let late = st.lateness_us.summary();
        let (p50, max) = late.as_ref().map_or((0.0, 0.0), |s| (s.p50, s.max));
        let sent_rate = st.phase.sent as f64 / st.scheduled.as_secs_f64().max(1e-9);
        self.note(format!(
            "generator {name}: offered {offered:.0}/s, sent {sent_rate:.0}/s, \
             completed {:.0}/s, late p50 {p50:.1} us max {max:.1} us (bound p50 {bound_us} us)",
            st.achieved_rate()
        ));
        let result = if p50 > bound_us {
            Err(format!(
                "{name}: generator ran {p50:.1} us late at the median"
            ))
        } else if sent_rate < offered * min_share {
            Err(format!(
                "{name}: generator sent {sent_rate:.0}/s of {offered:.0}/s"
            ))
        } else {
            Ok(())
        };
        self.check(&format!("generator.{name}"), result);
    }
}

/// Process counters over the measured phases: CPU seconds, CPU seconds
/// per wall second, and context switches per op.
pub fn proc_metrics(out: &mut Outcome, d: &sys::ProcDelta, ops: u64) {
    out.set("proc.cpu_s", d.cpu_s);
    out.set("proc.cpu_util", d.cpu_s / d.wall_s.max(1e-9));
    out.set("proc.csw_per_op", d.csw as f64 / ops.max(1) as f64);
}

/// Tracing overhead (traced minus untraced: throughput lost in percent,
/// median latency added in µs) and layer self time from the spans.
pub fn trace_metrics(
    out: &mut Outcome,
    (plain_tps, traced_tps): (f64, f64),
    (plain_p50, traced_p50): (f64, f64),
    spans: &[Span],
) {
    out.set(
        "trace.overhead_tps_pct",
        (plain_tps - traced_tps) / plain_tps.max(1e-9) * 100.0,
    );
    out.set("trace.overhead_p50_us", traced_p50 - plain_p50);
    set_self_times(out, spans);
}

/// Layer self time per traced op, in µs, and the span count.
pub fn set_self_times(out: &mut Outcome, spans: &[Span]) {
    let ops = spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    for (layer, ns) in trace::layer_self_ns(spans) {
        out.set(&format!("trace.self_us.{layer}"), ns as f64 / 1e3 / ops);
    }
    out.set("trace.spans", spans.len() as f64);
}

/// Bitwise equality of two answers.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let code = match run() {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("pncbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs one workload and prints its report; returns whether every check
/// passed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = Path::new(".");
    let spec = Spec::load(root)?;
    let plan = spec.workload(&args.workload)?;
    let seconds = args.seconds.unwrap_or(spec.benchmark.run_seconds as f64);
    let load_start = sys::load_average();
    let dir = root
        .join(OUT_DIR)
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        plan,
        dir: dir.clone(),
        epoch: Instant::now(),
    };
    let result = match plan.name.as_str() {
        "sessions_f32" => sessions::run(&ctx),
        "wire_churn" => churn::run(&ctx),
        "train_mc" => train::run(&ctx),
        other => Err(format!("workload `{other}` is not implemented")),
    };
    // Best effort: a leftover scratch directory is ignored by git anyway.
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = result?;

    out.set("setup_s", stats::median(&out.setup_s).unwrap_or(0.0));
    out.set("peak_rss_mb", sys::peak_rss_mb());

    // The printed set must be exactly the defined set for this mode.
    let defs = spec.metrics(args.trace);
    let mut printed: Vec<(String, f64, String)> = Vec::new();
    let mut not_exercised = Vec::new();
    for d in defs {
        let v = match out.metrics.get(&d.name) {
            Some(&v) => v,
            None if args.trace => {
                not_exercised.push(d.name.as_str());
                0.0
            }
            None => return Err(format!("workload did not measure `{}`", d.name)),
        };
        printed.push((d.name.clone(), v, d.unit.clone()));
    }
    let known = |n: &str| {
        spec.benchmark
            .end_to_end
            .iter()
            .chain(&spec.benchmark.per_layer)
            .any(|d| d.name == n)
    };
    if let Some(stray) = out.metrics.keys().find(|k| !known(k)) {
        return Err(format!("workload measured undefined metric `{stray}`"));
    }

    let (attempted, failed) = phase::totals(&out.phases);
    let correct = out.checks.iter().all(|(_, r)| r.is_ok()) && attempted > 0;

    let mut stamp = vec![
        ("workload".to_string(), json_str(&plan.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(seconds)),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), sys::nproc().to_string()),
        ("cpu_model".into(), json_str(&sys::cpu_model())),
        ("load_1m_start".into(), json_num(load_start)),
        ("load_1m_end".into(), json_num(sys::load_average())),
        ("rustc".into(), json_str(env!("PNCBENCH_RUSTC"))),
        ("git_rev".into(), json_str(env!("PNCBENCH_GIT_REV"))),
    ];
    for (k, v) in &out.config {
        stamp.push((k.clone(), json_str(v)));
    }
    for (k, v) in plan.knobs.entries() {
        stamp.push((format!("knob.{k}"), json_num(*v)));
    }
    let body: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", body.join(", "));
    for n in &out.notes {
        println!("{n}");
    }
    for p in &out.phases {
        println!(
            "ops {}: sent {} ok {} failed {}",
            p.name, p.sent, p.ok, p.failed
        );
    }
    for (name, r) in &out.checks {
        match r {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => println!("check {name}: FAILED: {e}"),
        }
    }
    if !not_exercised.is_empty() {
        println!(
            "not exercised by this workload (reported as 0): {}",
            not_exercised.join(", ")
        );
    }
    for (name, v, unit) in &printed {
        println!("metric {name} = {v} {unit}");
    }
    if args.trace {
        let path = root
            .join(OUT_DIR)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", plan.name, args.seed));
        trace::write_jsonl(&path, &out.spans).map_err(|e| format!("write spans: {e}"))?;
        println!("spans: {} written to {}", out.spans.len(), path.display());
    }
    let metrics: Vec<String> = printed
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(correct)
}
