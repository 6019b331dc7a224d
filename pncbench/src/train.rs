//! `train_mc`: the researcher's unit of work, one Table I cell. The
//! paper-preprocessed Slope dataset (drawn from the run's seed) is trained
//! with `TrainConfig::adapt_pnc(8)` at a fixed Monte-Carlo sample and
//! epoch count on a 2-thread `ParallelRunner`; the trained model is scored
//! by `evaluate_with_runner` under `EvalCondition::VariationAndPerturbed`
//! (±10 % component variation, perturbed inputs), and its filters are
//! refit once on drifted windows with `refit_filters`.
//!
//! Training repeats with the same seed for its share of the run, and every
//! repetition must reproduce the first bit for bit; evaluations repeat
//! with fresh variation seeds, and the seeded score and refit loss must
//! repeat exactly.

use std::time::Instant;

use adapt_pnc::eval::{evaluate_with_runner, perturb_dataset, EvalCondition};
use adapt_pnc::persist;
use adapt_pnc::training::{train_with_runner, TrainConfig, TrainedModel};
use adapt_pnc::variation::VariationConfig;
use ptnc_adapt::{refit_filters, LabeledWindow, RefitConfig};
use ptnc_datasets::preprocess::Preprocess;
use ptnc_datasets::{benchmark_by_name, DataSplit};
use ptnc_infer::{VariationDistribution, VariationSample};
use ptnc_runner::ParallelRunner;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::phase::PhaseCount;
use crate::serving;
use crate::trace::{Span, SpanLog};
use crate::{stats, sys, Ctx, Outcome};

/// The Table I dataset this workload trains on.
const DATASET: &str = "Slope";
/// Input perturbation strength of the evaluation and the refit drift.
const STRENGTH: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct Knobs {
    hidden: usize,
    mc: usize,
    epochs: usize,
    threads: usize,
    trials: usize,
    refit_steps: usize,
}

struct Setup {
    split: DataSplit,
    drifted: Vec<LabeledWindow>,
}

fn set_up(seed: u64, k: &Knobs) -> Result<Setup, String> {
    let raw = benchmark_by_name(DATASET, seed).ok_or("Slope is a registered dataset")?;
    let split = Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, seed);
    let drifted = perturb_dataset(&split.test, STRENGTH, seed ^ 0xD81F7)
        .items()
        .iter()
        .enumerate()
        .map(|(i, s)| LabeledWindow {
            stream: i,
            steps: s.values.clone(),
            label: s.label,
        })
        .collect();
    // Warm-up: one short training fills the tensor pool and page cache.
    let _ = train_with_runner(&split, &config(k, 1), seed, &ParallelRunner::serial());
    Ok(Setup { split, drifted })
}

fn config(k: &Knobs, epochs: usize) -> TrainConfig {
    TrainConfig::adapt_pnc(k.hidden)
        .to_builder()
        .mc_samples(k.mc)
        .max_epochs(epochs)
        .build()
}

fn condition(k: &Knobs) -> EvalCondition {
    EvalCondition::VariationAndPerturbed {
        config: VariationConfig::paper_default(),
        trials: k.trials,
        strength: STRENGTH,
    }
}

/// Timesteps one training pushes through the model: each epoch forwards
/// (and, for training, backpropagates) `mc` Monte-Carlo instances over
/// the training and validation sets, each doubled by its augmented copy.
fn timesteps_per_training(s: &Setup, k: &Knobs) -> f64 {
    let windows = 2 * (s.split.train.len() + s.split.val.len());
    (k.epochs * k.mc * windows * s.split.train.series_len()) as f64
}

/// Everything one pass over the three phases measured.
#[derive(Default)]
struct Pass {
    train_s: Vec<f64>,
    eval_us: Vec<f64>,
    refit_s: Vec<f64>,
    /// (accuracy bits, final refit loss bits) of the seeded checks.
    first: Option<(TrainedModel, u64, u64)>,
    repeats_differ: Vec<String>,
    phase: PhaseCount,
    allocs_per_step: f64,
    spans: Vec<Span>,
}

fn pass(ctx: &Ctx, s: &Setup, k: &Knobs, share: f64, traced: bool) -> Pass {
    let (on, epoch) = ctx.tracing(traced);
    let mut log = SpanLog::new(on, epoch, 20);
    let runner = ParallelRunner::serial().with_threads(k.threads);
    let cfg = config(k, k.epochs);
    let mut p = Pass::default();
    let mut op = 0u64;

    // Training: repeat the same seeded training for 60% of the share.
    let until = Instant::now() + ctx.budget(share * 0.6);
    let allocs0 = sys::allocations();
    while p.train_s.is_empty() || Instant::now() < until {
        op += 1;
        let t0 = Instant::now();
        let trained = train_with_runner(&s.split, &cfg, ctx.seed, &runner);
        let done = Instant::now();
        log.root("core.train", op, t0, done);
        p.train_s.push((done - t0).as_secs_f64());
        p.phase.add(true);
        match &p.first {
            None => {
                let acc = evaluate_with_runner(
                    &trained.model,
                    &s.split.test,
                    &condition(k),
                    ctx.seed,
                    &runner,
                );
                p.first = Some((trained, acc.to_bits(), 0));
            }
            Some((first, _, _)) => {
                if first.report != trained.report
                    || first.val_accuracy.to_bits() != trained.val_accuracy.to_bits()
                {
                    p.repeats_differ
                        .push(format!("training repeat {op} diverged"));
                }
            }
        }
    }
    let steps = (p.train_s.len() * k.epochs * k.mc).max(1);
    p.allocs_per_step = (sys::allocations() - allocs0) as f64 / steps as f64;
    let (model, acc_bits, _) = p.first.take().expect("trained at least once");

    // Evaluation: MC-variation scoring with a fresh seed per call.
    let until = Instant::now() + ctx.budget(share * 0.3);
    let mut i = 0u64;
    while p.eval_us.len() < 8 || Instant::now() < until {
        op += 1;
        i += 1;
        let t0 = Instant::now();
        let acc = evaluate_with_runner(
            &model.model,
            &s.split.test,
            &condition(k),
            ctx.seed.wrapping_add(i),
            &runner,
        );
        let done = Instant::now();
        log.root("core.evaluate", op, t0, done);
        p.eval_us.push((done - t0).as_secs_f64() * 1e6);
        p.phase.add(acc.is_finite());
    }
    let again = evaluate_with_runner(
        &model.model,
        &s.split.test,
        &condition(k),
        ctx.seed,
        &runner,
    );
    if again.to_bits() != acc_bits {
        p.repeats_differ
            .push("seeded evaluation changed between calls".into());
    }

    // Refit: the filter-only adaptation step on drifted windows.
    let snap = persist::snapshot(&model.model);
    let rcfg = RefitConfig {
        steps: k.refit_steps,
        seed: ctx.seed,
        ..RefitConfig::default()
    };
    let until = Instant::now() + ctx.budget(share * 0.1);
    let mut loss_bits = None;
    while p.refit_s.is_empty() || Instant::now() < until {
        op += 1;
        let t0 = Instant::now();
        let r = refit_filters(&snap, &s.drifted, &rcfg);
        let done = Instant::now();
        log.root("adapt.refit", op, t0, done);
        p.refit_s.push((done - t0).as_secs_f64());
        match r {
            Ok((_, report)) => {
                p.phase.add(report.final_loss.is_finite());
                let bits = report.final_loss.to_bits();
                if *loss_bits.get_or_insert(bits) != bits {
                    p.repeats_differ
                        .push("refit loss changed between repeats".into());
                }
            }
            Err(e) => {
                p.phase.add(false);
                p.repeats_differ.push(format!("refit failed: {e}"));
            }
        }
    }
    p.first = Some((model, acc_bits, loss_bits.unwrap_or(0)));
    p.spans = log.into_spans();
    p
}

/// Records each round of a pass kind and one check that no round saw a
/// repeat differ.
fn check_passes(out: &mut Outcome, name: &str, passes: &[Pass]) {
    for p in passes {
        let mut tally = p.phase.clone();
        tally.name = name.to_string();
        out.note(format!(
            "phase {name}: {} trainings (median {:.3} s), {} evaluations (median {:.0} us), \
             {} refits (median {:.3} s)",
            p.train_s.len(),
            stats::median(&p.train_s).unwrap_or(0.0),
            p.eval_us.len(),
            stats::median(&p.eval_us).unwrap_or(0.0),
            p.refit_s.len(),
            stats::median(&p.refit_s).unwrap_or(0.0),
        ));
        out.phases.push(tally);
    }
    if !passes.is_empty() {
        let differ: Vec<&String> = passes.iter().flat_map(|p| &p.repeats_differ).collect();
        out.check(
            &format!("repeatable.{name}"),
            match differ.first() {
                None => Ok(()),
                Some(e) => Err((*e).clone()),
            },
        );
    }
}

/// The seeded check values of a set of passes; every pass must agree.
fn agreed(passes: &[Pass]) -> Result<(u64, u64), String> {
    let key = |p: &Pass| p.first.as_ref().map(|f| (f.1, f.2));
    let first = key(&passes[0]).ok_or("pass trained nothing")?;
    if passes.iter().all(|p| key(p) == Some(first)) {
        Ok(first)
    } else {
        Err("accuracy or refit loss differs between rounds of one seed".into())
    }
}

fn pooled(passes: &[Pass], f: impl Fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let kn = &ctx.plan.knobs;
    let k = Knobs {
        hidden: kn.count("hidden")?,
        mc: kn.count("mc_samples")?,
        epochs: kn.count("epochs")?,
        threads: kn.count("threads")?,
        trials: kn.count("eval_trials")?,
        refit_steps: kn.count("refit_steps")?,
    };
    let setups = kn.count("setup_rounds")?;
    let rounds = kn.count("rounds")?.max(1);
    let mut out = Outcome::default();
    let mut setup = None;
    for _ in 0..setups.max(1) {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(set_up(ctx.seed, &k)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = setup.expect("at least one set-up round");
    out.config
        .push(("train_knobs".into(), format!("{k:?}, dataset {DATASET}")));

    // Rounds of train / evaluate / refit alternate over the whole run (with
    // a traced round after each untraced one when tracing).
    let share = if ctx.trace { 0.4 } else { 1.0 } / rounds as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut proc = sys::ProcDelta::default();
    for _ in 0..rounds {
        plain.push(proc.around(|| pass(ctx, &s, &k, share, false)));
        if ctx.trace {
            traced.push(pass(ctx, &s, &k, share, true));
        }
    }
    check_passes(&mut out, "train", &plain);
    check_passes(&mut out, "train.traced", &traced);
    let seeded = agreed(&plain).and_then(|a| {
        if traced.is_empty() || agreed(&traced)? == a {
            Ok(a)
        } else {
            Err("traced rounds disagree with untraced rounds".into())
        }
    });
    out.check(
        "repeatable.rounds",
        seeded.as_ref().map(|_| ()).map_err(Clone::clone),
    );

    // Pooled over rounds: a mean rate and pooled quantiles move smoothly
    // with the share of slow spells on a noisy machine.
    let trainings = pooled(&plain, |p| &p.train_s);
    out.set(
        "throughput_tps",
        timesteps_per_training(&s, &k) * trainings.len() as f64
            / trainings.iter().sum::<f64>().max(1e-9),
    );
    let all = stats::summarize(&pooled(&plain, |p| &p.eval_us)).ok_or("no evaluation ran")?;
    out.set("latency_p50_us", all.p50);
    match all.p90 {
        Some(v) => out.set("latency_p90_us", v),
        None => out.check(
            "samples.eval",
            Err(format!("{} evaluations, p90 needs 100", all.count)),
        ),
    }
    out.set(
        "latency_p99_us",
        all.tail.filter(|t| t.0 >= 0.99).map_or(0.0, |t| t.1),
    );
    out.set("latency_samples", all.count as f64);

    if ctx.trace {
        let (acc_bits, loss_bits) = seeded?;
        let ops: u64 = plain.iter().map(|p| p.phase.sent).sum();
        crate::proc_metrics(&mut out, &proc, ops);
        per_layer(
            ctx,
            &mut out,
            &s,
            &k,
            (&plain, &traced),
            (acc_bits, loss_bits),
        )?;
    }
    Ok(out)
}

fn per_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    s: &Setup,
    k: &Knobs,
    (plain, traced): (&[Pass], &[Pass]),
    (acc_bits, loss_bits): (u64, u64),
) -> Result<(), String> {
    let train_s = stats::median(&pooled(plain, |p| &p.train_s)).unwrap_or(0.0);
    let (model, _, _) = plain[0].first.as_ref().expect("pass trained a model");
    out.set(
        "train.steps_per_s",
        (k.epochs * k.mc) as f64 / train_s.max(1e-9),
    );
    out.set("core.train_epoch_s", train_s / k.epochs as f64);
    let allocs: Vec<f64> = plain.iter().map(|p| p.allocs_per_step).collect();
    out.set(
        "tensor.allocs_per_step",
        stats::median(&allocs).unwrap_or(0.0),
    );
    let eval_us = stats::median(&pooled(plain, |p| &p.eval_us)).unwrap_or(0.0);
    out.set(
        "eval.seqs_per_s",
        (s.split.test.len() * k.trials) as f64 / (eval_us * 1e-6).max(1e-12),
    );
    let refit_s = stats::median(&pooled(plain, |p| &p.refit_s)).unwrap_or(0.0);
    out.set("adapt.refit_s", refit_s);
    out.set(
        "adapt.refit_step_ms",
        refit_s * 1e3 / k.refit_steps.max(1) as f64,
    );
    out.set("adapt.final_loss", f64::from_bits(loss_bits));
    out.set("core.mc_accuracy", f64::from_bits(acc_bits));

    // Serial against 2-thread training of the same seed: the speed-up, and
    // the same model either way.
    let t0 = Instant::now();
    let serial = train_with_runner(
        &s.split,
        &config(k, k.epochs),
        ctx.seed,
        &ParallelRunner::serial(),
    );
    let serial_s = t0.elapsed().as_secs_f64();
    out.set("runner.speedup", serial_s / train_s.max(1e-9));
    out.check(
        "runner.same_model",
        if serial.report == model.report {
            Ok(())
        } else {
            Err("serial and parallel training diverged".into())
        },
    );

    let json = persist::to_json(&model.model);
    let engine = serving::compile(&json)?;
    out.set("core.compile_ms", serving::compile_ms(&json, 5));
    let dist = VariationDistribution::paper_default();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut perturbed = Vec::new();
    let until = Instant::now() + ctx.budget(0.02);
    while perturbed.len() < 8 || Instant::now() < until {
        let sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
        let t0 = Instant::now();
        let m = engine.perturbed(&sample).map_err(|e| e.to_string())?;
        perturbed.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(m);
    }
    out.set(
        "infer.perturbed_us",
        stats::median(&perturbed).unwrap_or(0.0),
    );
    let test: Vec<Vec<f64>> = s
        .split
        .test
        .items()
        .iter()
        .map(|x| x.values.clone())
        .collect();
    let kernel =
        serving::kernel_ns_per_lane_step(&engine, &test, test.len(), false, ctx.budget(0.02));
    out.set("infer.ns_per_lane_step", kernel);
    out.set(
        "infer.flops_per_lane_step",
        serving::flops_per_lane_step(engine.spec()),
    );
    out.set(
        "infer.bytes_per_lane_step",
        serving::bytes_per_lane_step(engine.spec(), engine.precision()),
    );

    let per_training = timesteps_per_training(s, k);
    let traced_s = stats::median(&pooled(traced, |p| &p.train_s)).unwrap_or(0.0);
    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    crate::trace_metrics(
        out,
        (
            per_training / train_s.max(1e-9),
            per_training / traced_s.max(1e-9),
        ),
        (
            eval_us,
            stats::median(&pooled(traced, |p| &p.eval_us)).unwrap_or(0.0),
        ),
        &spans,
    );
    out.spans = spans;
    Ok(())
}
