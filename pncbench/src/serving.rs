//! Pieces the serving workloads share: the model snapshot they deploy,
//! seeded input windows, a server started with library-default knobs,
//! counter readers, and the per-layer microbenchmarks that replay the
//! batching core and the kernel at a workload's shape.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use adapt_pnc::serve::ServeModel;
use ptnc_infer::{InferModel, InferSpec, Precision, StreamSession};
use ptnc_serve::{BatchConfig, MicroBatcher, ModelRegistry, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{self, Loop, LoopStats, Sent, SpanNames};
use crate::phase::{self, Counters};
use crate::{stats, sys, Ctx, Outcome};

/// Architecture every serving workload deploys: the paper's univariate
/// ADAPT-pNC classifier with 8 hidden neurons and 4 classes.
pub const DIM: usize = 1;
pub const HIDDEN: usize = 8;
pub const CLASSES: usize = 4;

/// An untrained `PrintedModel::adapt_pnc(1, 8, 4)` drawn from `seed`, as
/// snapshot JSON carrying `precision` as its serving hint.
pub fn snapshot_json(seed: u64, precision: Option<&str>) -> String {
    let model = PrintedModel::adapt_pnc(DIM, HIDDEN, CLASSES, &mut StdRng::seed_from_u64(seed));
    let mut snap = persist::snapshot(&model);
    snap.precision = precision.map(str::to_string);
    serde_json::to_string(&snap).expect("snapshots always serialize")
}

/// Compiles snapshot JSON into a shareable engine, as the server would.
pub fn compile(json: &str) -> Result<Arc<InferModel>, String> {
    ServeModel::from_json(json)
        .map(ServeModel::into_shared_engine)
        .map_err(|e| format!("compile snapshot: {e}"))
}

/// `n` sensor-like windows of `steps` samples in `[-1, 1]`: a bounded
/// random walk per window, drawn from `seed`.
pub fn windows(seed: u64, n: usize, steps: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut x: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            (0..steps * DIM)
                .map(|_| {
                    x = (x + (rng.gen::<f64>() - 0.5) * 0.4).clamp(-1.0, 1.0);
                    x
                })
                .collect()
        })
        .collect()
}

/// A registry watching `model.json` in `dir` and a server over it with the
/// library-default [`BatchConfig`].
pub struct Deployment {
    pub registry: Arc<ModelRegistry>,
    pub server: Arc<Server>,
}

impl Deployment {
    /// Writes `json` to `dir/model.json` and starts serving it.
    ///
    /// # Errors
    ///
    /// When the snapshot cannot be written, compiled or served.
    pub fn start(dir: &Path, json: &str) -> Result<Deployment, String> {
        let path = dir.join("model.json");
        persist::write_atomic(&path, json.as_bytes())
            .map_err(|e| format!("write snapshot: {e}"))?;
        let registry =
            Arc::new(ModelRegistry::open(&path).map_err(|e| format!("open registry: {e}"))?);
        let server = Server::start(Arc::clone(&registry), BatchConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        Ok(Deployment {
            registry,
            server: Arc::new(server),
        })
    }
}

/// The [`BatchConfig`] in effect, for the run stamp.
pub fn batch_config_stamp() -> String {
    format!("{:?}", BatchConfig::default())
}

/// Server-side counters: batches run, lanes batched, and per-tenant
/// requests / session chunks / shed / rejected summed over tenants.
pub fn serve_counters(server: &Server) -> Counters {
    let mut c = Counters::default();
    let batches = server.batches();
    c.set("serve.batches", batches);
    c.set(
        "serve.lanes",
        (server.mean_batch_fill() * batches as f64).round() as u64,
    );
    let mut t = [0u64; 4];
    for s in server.stats().snapshots() {
        t[0] += s.requests;
        t[1] += s.session_chunks;
        t[2] += s.shed;
        t[3] += s.rejected;
    }
    c.set("serve.requests", t[0]);
    c.set("serve.session_chunks", t[1]);
    c.set("serve.shed", t[2]);
    c.set("serve.rejected", t[3]);
    c
}

/// Median per-call times of the batching core's steps at one shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct MicroBatchTimes {
    pub begin_ns: f64,
    pub load_lane_ns: f64,
    pub import_ns: f64,
    pub forward_ns: f64,
    pub export_ns: f64,
}

/// Replays the worker's batching core on a standalone [`MicroBatcher`]:
/// `fill` lanes of `steps`-step windows per batch, through the one-shot
/// path or (with `resident`) the session path with state import/export.
/// Load/import/export are per lane, begin/forward per batch; each is the
/// median over rounds run for about `budget`.
pub fn replay_microbatcher(
    engine: &Arc<InferModel>,
    data: &[Vec<f64>],
    fill: usize,
    resident: bool,
    budget: Duration,
) -> MicroBatchTimes {
    let cfg = BatchConfig::default();
    let fill = fill.clamp(1, cfg.max_batch);
    let steps = data[0].len() / DIM;
    let mut mb = MicroBatcher::new(engine, &cfg).expect("default batch config is valid");
    let mut sessions: Vec<StreamSession> = (0..fill).map(|_| engine.session()).collect();
    let mut cols: [Vec<f64>; 5] = Default::default();
    let until = Instant::now() + budget;
    let mut round = 0usize;
    while round < 8 || Instant::now() < until {
        let t0 = Instant::now();
        mb.begin(steps).expect("window fits the staging buffer");
        let t1 = Instant::now();
        for lane in 0..fill {
            mb.load_lane(lane, &data[(round + lane) % data.len()])
                .expect("lane in range");
        }
        let t2 = Instant::now();
        if resident {
            for (lane, s) in sessions.iter().enumerate() {
                mb.import_session(lane, s).expect("same engine");
            }
        }
        let t3 = Instant::now();
        if resident {
            mb.forward_resident(engine)
                .expect("buffers sized for this engine");
        } else {
            mb.forward(engine).expect("buffers sized for this engine");
        }
        let t4 = Instant::now();
        if resident {
            for (lane, s) in sessions.iter_mut().enumerate() {
                mb.export_session(lane, s).expect("same engine");
            }
        }
        let t5 = Instant::now();
        std::hint::black_box(mb.lane_logits(0));
        let ns = |a: Instant, b: Instant, per: usize| (b - a).as_nanos() as f64 / per as f64;
        cols[0].push(ns(t0, t1, 1));
        cols[1].push(ns(t1, t2, fill));
        cols[2].push(if resident { ns(t2, t3, fill) } else { 0.0 });
        cols[3].push(ns(t3, t4, 1));
        cols[4].push(if resident { ns(t4, t5, fill) } else { 0.0 });
        round += 1;
    }
    let m = |i: usize| stats::median(&cols[i]).unwrap_or(0.0);
    MicroBatchTimes {
        begin_ns: m(0),
        load_lane_ns: m(1),
        import_ns: m(2),
        forward_ns: m(3),
        export_ns: m(4),
    }
}

/// Median nanoseconds per lane-timestep of the compiled kernel at
/// `batch` lanes, through `run_batch_into` (state reset each call) or,
/// with `resident`, `run_chunk_into` (state carried).
pub fn kernel_ns_per_lane_step(
    engine: &InferModel,
    data: &[Vec<f64>],
    batch: usize,
    resident: bool,
    budget: Duration,
) -> f64 {
    let steps = data[0].len() / DIM;
    let mut staged = vec![0.0; steps * batch * DIM];
    for t in 0..steps {
        for b in 0..batch {
            let src = &data[b % data.len()][t * DIM..(t + 1) * DIM];
            staged[(t * batch + b) * DIM..(t * batch + b + 1) * DIM].copy_from_slice(src);
        }
    }
    let mut scratch = engine.make_scratch(batch).expect("batch is positive");
    let mut out = vec![0.0; batch * engine.spec().classes];
    let mut samples = Vec::new();
    let until = Instant::now() + budget;
    while samples.len() < 8 || Instant::now() < until {
        let t0 = Instant::now();
        if resident {
            engine.run_chunk_into(&staged, batch, &mut scratch, &mut out)
        } else {
            engine.run_batch_into(&staged, batch, &mut scratch, &mut out)
        }
        .expect("shapes match the engine");
        samples.push(t0.elapsed().as_nanos() as f64 / (batch * steps) as f64);
        std::hint::black_box(&out);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// Floating-point operations per lane-timestep of the compiled kernel,
/// counted from the spec: per layer, the crossbar's multiply-adds plus
/// bias add and conductance divide, three per filter stage, and five for
/// `ptanh` (tanh counted as one).
pub fn flops_per_lane_step(spec: &InferSpec) -> f64 {
    spec.layer_dims()
        .iter()
        .map(|&(i, o)| (2 * i * o + 2 * o + 3 * spec.stages * o + 5 * o) as f64)
        .sum()
}

/// Bytes of lane data the kernel touches per lane-timestep, computed from
/// the spec at the kernel's element width: per layer, the input read, the
/// crossbar output written and read, each stage's state read and written,
/// and the activation written. Weights are shared by all lanes of a batch
/// and left out.
pub fn bytes_per_lane_step(spec: &InferSpec, precision: Precision) -> f64 {
    let elem = match precision {
        Precision::F64 => 8,
        _ => 4,
    };
    spec.layer_dims()
        .iter()
        .map(|&(i, o)| ((i + 2 * o + 2 * spec.stages * o + o) * elem) as f64)
        .sum()
}

/// Median milliseconds to parse and compile `json` into an engine.
pub fn compile_ms(json: &str, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let engine = ServeModel::from_json(json).expect("snapshot compiled before");
            std::hint::black_box(&engine);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Mean of a (sum, count) pair (0 when empty).
pub fn mean((sum, n): (f64, u64)) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Failed submissions and waits of a run, counted by error message.
#[derive(Default)]
pub struct Errors(std::sync::Mutex<std::collections::BTreeMap<String, u64>>);

impl Errors {
    pub fn record(&self, e: &impl std::fmt::Display) {
        *self
            .0
            .lock()
            .expect("error log poisoned")
            .entry(e.to_string())
            .or_default() += 1;
    }

    /// One note line per error kind.
    pub fn report(self, out: &mut Outcome) {
        for (e, n) in self.0.into_inner().expect("error log poisoned") {
            out.note(format!("failed {n} times: {e}"));
        }
    }
}

/// One measured load phase and what the server did during it.
pub struct Measured {
    pub st: LoopStats,
    pub lanes_ok: Result<(), String>,
    pub lanes: u64,
    pub batches: u64,
    /// Sum and count of queue-depth samples.
    pub depth: (f64, u64),
    pub shed: u64,
    pub allocs: u64,
}

/// Drives `server` with `lp` for `dur`, sampling its queue depth every
/// 16th submission and reading its counters before and after.
#[allow(clippy::too_many_arguments)]
pub fn measure<T: Send>(
    ctx: &Ctx,
    server: &Server,
    lp: Loop,
    traced: bool,
    dur: Duration,
    names: SpanNames,
    mut submit: impl FnMut(u64) -> Result<T, ()>,
    complete: impl FnMut(Sent<T>) -> Option<u64> + Send,
) -> Measured {
    let mut depth = (0.0, 0u64);
    let before = serve_counters(server);
    let allocs = sys::allocations();
    let sampled = |k: u64| {
        if k.is_multiple_of(16) {
            depth.0 += server.queue_depth() as f64;
            depth.1 += 1;
        }
        submit(k)
    };
    let st = load::drive(lp, dur, ctx.tracing(traced), names, sampled, complete);
    let allocs = sys::allocations() - allocs;
    let d = serve_counters(server).since(&before);
    Measured {
        lanes_ok: phase::check_lanes(&format!("{lp:?}"), &d, st.phase.ok),
        lanes: d.get("serve.lanes"),
        batches: d.get("serve.batches"),
        depth,
        shed: d.get("serve.shed"),
        allocs,
        st,
    }
}

/// Rounds of an open phase followed by a closed phase, alternated over the
/// whole run so both see the same spells of a noisy machine; with tracing
/// each round repeats both phases traced.
#[derive(Default)]
pub struct Rounds {
    pub open: Vec<Measured>,
    pub closed: Vec<Measured>,
    pub open_traced: Vec<Measured>,
    pub closed_traced: Vec<Measured>,
    /// Process counters over the untraced phases.
    pub proc: sys::ProcDelta,
}

/// Runs `rounds` rounds; `phase(open, traced, dur)` measures one phase.
/// Untraced runs spend the whole measuring time on the phases; traced runs
/// spend 80% on them, half traced, and leave the rest for the per-layer
/// microbenchmarks.
pub fn run_rounds(
    ctx: &Ctx,
    rounds: usize,
    mut phase: impl FnMut(bool, bool, Duration) -> Measured,
) -> Rounds {
    let rounds = rounds.max(1);
    let per = ctx.budget(if ctx.trace { 0.2 } else { 0.5 }) / rounds as u32;
    let mut r = Rounds::default();
    for _ in 0..rounds {
        let mut proc = r.proc;
        r.open.push(proc.around(|| phase(true, false, per)));
        r.closed.push(proc.around(|| phase(false, false, per)));
        r.proc = proc;
        if ctx.trace {
            r.open_traced.push(phase(true, true, per));
            r.closed_traced.push(phase(false, true, per));
        }
    }
    r
}

/// Timesteps completed per second over a phase.
fn rate(st: &LoopStats) -> f64 {
    st.timesteps as f64 / st.elapsed.as_secs_f64().max(1e-9)
}

fn pooled(ms: &[Measured]) -> LoopStats {
    LoopStats::pooled(ms.iter().map(|m| &m.st))
}

/// Records every round's tally and lanes check, the generator check, and
/// the end-to-end metrics: throughput from the closed phases, latency
/// from the open phases, each pooled over rounds.
///
/// # Errors
///
/// When the open phase completed nothing.
pub fn report(out: &mut Outcome, r: &Rounds, offered: f64, late_bound: f64) -> Result<(), String> {
    let kinds = [
        ("open", &r.open),
        ("closed", &r.closed),
        ("open.traced", &r.open_traced),
        ("closed.traced", &r.closed_traced),
    ];
    for (name, ms) in kinds {
        if ms.is_empty() {
            continue;
        }
        out.phase(name, &pooled(ms));
        let bad: Vec<String> = ms.iter().filter_map(|m| m.lanes_ok.clone().err()).collect();
        out.check(
            &format!("lanes.{name}"),
            if bad.is_empty() {
                Ok(())
            } else {
                Err(bad.join("; "))
            },
        );
    }
    // Per-round figures show how far the machine's speed moved in the run.
    let per_round: Vec<String> = r
        .open
        .iter()
        .zip(&r.closed)
        .map(|(a, b)| {
            let (p50, p90) =
                a.st.latency_us
                    .summary()
                    .map_or((0.0, 0.0), |s| (s.p50, s.p90.unwrap_or(0.0)));
            format!("{:.0}/{p50:.0}/{p90:.0}", rate(&b.st))
        })
        .collect();
    out.note(format!(
        "rounds closed timesteps/s / open p50 us / open p90 us: {}",
        per_round.join(" ")
    ));
    let rates: Vec<f64> = r.closed.iter().map(|m| rate(&m.st)).collect();
    if let Some([q1, q2, q3]) = stats::quartiles(&rates) {
        out.note(format!(
            "round throughput quartiles {q1:.0} {q2:.0} {q3:.0} timesteps/s"
        ));
    }
    out.check_generator("open", &pooled(&r.open), offered, late_bound, 0.95);
    if !r.open_traced.is_empty() {
        out.check_generator(
            "open.traced",
            &pooled(&r.open_traced),
            offered,
            late_bound,
            0.95,
        );
    }

    // Pooled over rounds: on a machine whose speed drifts between spells,
    // a pooled rate and pooled quantiles move smoothly with the share of
    // slow spells, where a median or best of per-round figures jumps.
    out.set("throughput_tps", rate(&pooled(&r.closed)));
    let all = pooled(&r.open)
        .latency_us
        .summary()
        .ok_or("open loop completed nothing")?;
    out.set("latency_p50_us", all.p50);
    match all.p90 {
        Some(v) => out.set("latency_p90_us", v),
        None => out.check(
            "samples.open",
            Err(format!("{} samples, p90 needs 100", all.count)),
        ),
    }
    out.set(
        "latency_p99_us",
        all.tail.filter(|t| t.0 >= 0.99).map_or(0.0, |t| t.1),
    );
    out.set("latency_samples", all.count as f64);
    Ok(())
}

/// Mean lanes per batch over phases.
pub fn fill(ms: &[Measured]) -> f64 {
    let lanes: u64 = ms.iter().map(|m| m.lanes).sum();
    let batches: u64 = ms.iter().map(|m| m.batches).sum();
    lanes as f64 / batches.max(1) as f64
}

/// The serving layer's per-layer metrics: counters from the untraced
/// closed phases, span times from the traced open phases, and tracing
/// overhead as traced minus untraced.
pub fn serve_layer_metrics(out: &mut Outcome, r: &Rounds, submit_span: &str) {
    let sent: u64 = r
        .open
        .iter()
        .chain(&r.closed)
        .map(|m| m.st.phase.sent)
        .sum();
    crate::proc_metrics(out, &r.proc, sent);
    let closed_sent: u64 = r.closed.iter().map(|m| m.st.phase.sent).sum();
    let allocs: u64 = r.closed.iter().map(|m| m.allocs).sum();
    out.set(
        "serve.allocs_per_op",
        allocs as f64 / closed_sent.max(1) as f64,
    );
    out.set("serve.batch_fill", fill(&r.closed));
    let depth = r
        .closed
        .iter()
        .fold((0.0, 0), |a, m| (a.0 + m.depth.0, a.1 + m.depth.1));
    out.set("serve.queue_depth_mean", mean(depth));
    let shed: u64 = r.open.iter().chain(&r.closed).map(|m| m.shed).sum();
    out.set("serve.shed", shed as f64);
    let topen = pooled(&r.open_traced);
    let p50 =
        |name: &str| stats::median(&crate::trace::durations_us(&topen.spans, name)).unwrap_or(0.0);
    out.set("serve.submit_us", p50(submit_span));
    out.set("serve.wait_us", p50("serve.wait"));
    let tps = |ms: &[Measured]| rate(&pooled(ms));
    let lat = |ms: &[Measured]| pooled(ms).latency_us.quantile(0.5).unwrap_or(0.0);
    let spans: Vec<_> = topen
        .spans
        .into_iter()
        .chain(pooled(&r.closed_traced).spans)
        .collect();
    crate::trace_metrics(
        out,
        (tps(&r.closed), tps(&r.closed_traced)),
        (lat(&r.open), lat(&r.open_traced)),
        &spans,
    );
    out.spans = spans;
}

/// Per-layer metrics of the batching-core replay.
pub fn set_microbatch(out: &mut Outcome, mb: &MicroBatchTimes) {
    out.set("serve.mb.begin_ns", mb.begin_ns);
    out.set("serve.mb.load_lane_ns", mb.load_lane_ns);
    out.set("serve.mb.import_ns", mb.import_ns);
    out.set("serve.mb.forward_ns", mb.forward_ns);
    out.set("serve.mb.export_ns", mb.export_ns);
}

/// Per-layer metrics of the kernel at the default batch width.
pub fn set_kernel(
    out: &mut Outcome,
    engine: &InferModel,
    data: &[Vec<f64>],
    resident: bool,
    budget: Duration,
) {
    let width = BatchConfig::default().max_batch;
    out.set(
        "infer.ns_per_lane_step",
        kernel_ns_per_lane_step(engine, data, width, resident, budget),
    );
    out.set(
        "infer.flops_per_lane_step",
        flops_per_lane_step(engine.spec()),
    );
    out.set(
        "infer.bytes_per_lane_step",
        bytes_per_lane_step(engine.spec(), engine.precision()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_seeded_and_bounded() {
        let a = windows(7, 3, 16);
        assert_eq!(a, windows(7, 3, 16));
        assert_ne!(a, windows(8, 3, 16));
        assert!(a.iter().flatten().all(|v| (-1.0..=1.0).contains(v)));
        assert_eq!(a[0].len(), 16 * DIM);
    }

    #[test]
    fn kernel_counts_follow_the_spec() {
        let engine = compile(&snapshot_json(1, None)).unwrap();
        let spec = *engine.spec();
        // Layer 1 (1→8) and layer 2 (8→4), two filter stages each.
        let l1 = 2 * 8 + 2 * 8 + 3 * 2 * 8 + 5 * 8;
        let l2 = 2 * 8 * 4 + 2 * 4 + 3 * 2 * 4 + 5 * 4;
        assert_eq!(flops_per_lane_step(&spec), (l1 + l2) as f64);
        let b1 = (1 + 2 * 8 + 4 * 8 + 8) * 8;
        let b2 = (8 + 2 * 4 + 4 * 4 + 4) * 8;
        assert_eq!(bytes_per_lane_step(&spec, Precision::F64), (b1 + b2) as f64);
        assert_eq!(
            bytes_per_lane_step(&spec, Precision::F32) * 2.0,
            bytes_per_lane_step(&spec, Precision::F64)
        );
    }
}
