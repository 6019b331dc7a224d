//! The objective-driven full-batch training loop.
//!
//! The loop is model-agnostic: a [`TrainObjective`] builds the (stochastic)
//! training-loss graph and evaluates the validation loss, both against an
//! [`EpochCtx`] that carries the epoch number, the run's master seed, a
//! shared [`ParallelRunner`] and the loop's sequential RNG. Printed models
//! with Monte-Carlo variation sampling and the Elman reference share one
//! loop with identical scheduling and early stopping — and both can fan
//! their per-epoch Monte-Carlo work out through the runner.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ptnc_runner::ParallelRunner;
use ptnc_tensor::Tensor;

use crate::optim::AdamW;
use crate::schedule::{ReduceLrOnPlateau, ScheduleAction};

/// Training summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of epochs run.
    pub epochs: usize,
    /// Best validation loss observed.
    pub best_val_loss: f64,
    /// Epoch (0-based) of the best validation loss.
    pub best_epoch: usize,
    /// Validation loss per epoch.
    pub val_history: Vec<f64>,
    /// Optimizer steps skipped because the loss or gradient was non-finite.
    pub skipped_steps: usize,
    /// Steps whose gradient was clipped by the global-norm limit.
    pub clipped_steps: usize,
}

/// Per-epoch context handed to a [`TrainObjective`].
///
/// Objectives that Monte-Carlo sample should derive per-sample RNG streams
/// from `(master_seed, epoch, sample)` via [`ptnc_runner::seed_split`]
/// rather than drawing from `rng`, so their results stay bit-identical
/// regardless of how many threads the `runner` fans out to. `rng` remains
/// for strictly sequential draws (e.g. one augmentation seed per epoch).
pub struct EpochCtx<'a> {
    /// The 0-based epoch this call belongs to.
    pub epoch: usize,
    /// The training run's master seed.
    pub master_seed: u64,
    /// The shared fan-out runner for parallel Monte-Carlo work.
    pub runner: &'a ParallelRunner,
    /// The loop's sequential RNG (one stream per training run).
    pub rng: &'a mut StdRng,
}

/// A training objective: the pair of losses (plus an optional parameter
/// projection) that drive one [`Trainer`] run.
///
/// Replaces the twin loss closures of the old `Trainer::fit` API with a
/// single value that can hold state (cached batches, model replicas) across
/// epochs.
pub trait TrainObjective {
    /// Builds this epoch's training-loss graph. Only `backward()` is called
    /// on the result; its value is never read by the loop.
    fn train_loss(&mut self, ctx: &mut EpochCtx<'_>) -> Tensor;

    /// Evaluates this epoch's validation loss (no graph needed).
    fn val_loss(&mut self, ctx: &mut EpochCtx<'_>) -> f64;

    /// In-place parameter projection applied after every optimizer step
    /// (printable component ranges). Defaults to a no-op.
    fn project(&mut self, _params: &[Tensor]) {}
}

/// Adapts a pair of closures (plus a projection) into a [`TrainObjective`]
/// — the migration path from the old closure-based `fit` API.
pub struct FnObjective<T, V, P> {
    /// Builds the training-loss graph.
    pub train: T,
    /// Evaluates the validation loss.
    pub val: V,
    /// Projects parameters after each step.
    pub project: P,
}

impl<T, V, P> TrainObjective for FnObjective<T, V, P>
where
    T: FnMut(&mut EpochCtx<'_>) -> Tensor,
    V: FnMut(&mut EpochCtx<'_>) -> f64,
    P: FnMut(&[Tensor]),
{
    fn train_loss(&mut self, ctx: &mut EpochCtx<'_>) -> Tensor {
        (self.train)(ctx)
    }

    fn val_loss(&mut self, ctx: &mut EpochCtx<'_>) -> f64 {
        (self.val)(ctx)
    }

    fn project(&mut self, params: &[Tensor]) {
        (self.project)(params)
    }
}

/// Euclidean norm over every parameter's accumulated gradient (0 when no
/// gradient reached the parameters). NaN anywhere makes the result NaN.
fn global_grad_norm(params: &[Tensor]) -> f64 {
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad_opt() {
            for v in g {
                sq += v * v;
            }
        }
    }
    sq.sqrt()
}

/// Full-batch trainer with plateau scheduling, a hard epoch cap and
/// best-on-validation parameter snapshotting.
pub struct Trainer {
    schedule: ReduceLrOnPlateau,
    max_epochs: usize,
    seed: u64,
    runner: ParallelRunner,
    max_grad_norm: Option<f64>,
}

impl Trainer {
    /// Creates a trainer with the paper's schedule, the given epoch cap and
    /// the default [`ParallelRunner`].
    ///
    /// # Panics
    ///
    /// Panics if `max_epochs == 0`.
    pub fn new(max_epochs: usize, seed: u64) -> Self {
        assert!(max_epochs > 0, "need at least one epoch");
        Trainer {
            schedule: ReduceLrOnPlateau::paper_default(),
            max_epochs,
            seed,
            runner: ParallelRunner::default(),
            max_grad_norm: Some(1e3),
        }
    }

    /// Overrides the learning-rate schedule.
    pub fn with_schedule(mut self, schedule: ReduceLrOnPlateau) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the fan-out runner handed to the objective each epoch.
    pub fn with_runner(mut self, runner: ParallelRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Overrides the global gradient-norm clip (`None` disables clipping).
    /// The default of `1e3` only catches pathological spikes; it never
    /// touches well-behaved runs.
    pub fn with_max_grad_norm(mut self, limit: Option<f64>) -> Self {
        self.max_grad_norm = limit;
        self
    }

    /// Runs the loop against a [`TrainObjective`].
    ///
    /// `params` are the trainable leaves: snapshotted at the best-validation
    /// epoch and restored at the end.
    pub fn run(&self, params: Vec<Tensor>, objective: &mut impl TrainObjective) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut opt = AdamW::new(params.clone(), self.schedule.lr());
        let mut schedule = self.schedule.clone();

        let mut best_val = f64::INFINITY;
        let mut best_epoch = 0;
        let mut best_snapshot: Vec<Vec<f64>> = params.iter().map(|p| p.to_vec()).collect();
        let mut val_history = Vec::new();

        let mut epochs = 0;
        let mut skipped_steps = 0usize;
        let mut clipped_steps = 0usize;
        for epoch in 0..self.max_epochs {
            // Some(started timer) only inside a benchmark capture scope —
            // ordinary runs never read the clock.
            let epoch_timer = crate::timing::epoch_timer();
            epochs = epoch + 1;
            opt.zero_grad();
            let loss = objective.train_loss(&mut EpochCtx {
                epoch,
                master_seed: self.seed,
                runner: &self.runner,
                rng: &mut rng,
            });
            loss.backward();

            // Non-finite guard: a NaN/Inf loss or gradient skips the
            // optimizer step entirely (so the AdamW moments stay clean)
            // instead of poisoning the parameters. Finite but oversized
            // gradients are clipped by global norm.
            let loss_value = loss.item();
            let grad_norm = global_grad_norm(&params);
            let finite = loss_value.is_finite() && grad_norm.is_finite();
            if !finite {
                skipped_steps += 1;
                if ptnc_telemetry::is_enabled() {
                    ptnc_telemetry::counter("train.step_skipped", 1);
                }
            } else {
                if let Some(limit) = self.max_grad_norm {
                    if grad_norm > limit {
                        let factor = limit / grad_norm;
                        for p in &params {
                            p.scale_grad(factor);
                        }
                        clipped_steps += 1;
                        if ptnc_telemetry::is_enabled() {
                            ptnc_telemetry::counter("train.grad_clipped", 1);
                        }
                    }
                }
                opt.step();
                objective.project(&params);
            }

            let v = objective.val_loss(&mut EpochCtx {
                epoch,
                master_seed: self.seed,
                runner: &self.runner,
                rng: &mut rng,
            });
            val_history.push(v);
            if ptnc_telemetry::is_enabled() {
                ptnc_telemetry::span("train.epoch")
                    .field("epoch", epoch)
                    .field("loss", loss_value)
                    .field("val_loss", v)
                    .field("grad_norm", grad_norm)
                    .field("lr", schedule.lr())
                    .finish();
            }
            if v < best_val {
                best_val = v;
                best_epoch = epoch;
                for (snap, p) in best_snapshot.iter_mut().zip(&params) {
                    *snap = p.to_vec();
                }
            }
            if let Some(t0) = epoch_timer {
                crate::timing::record_epoch(t0.elapsed().as_secs_f64());
            }
            match schedule.observe(v) {
                ScheduleAction::Continue => {}
                ScheduleAction::Reduced => opt.set_lr(schedule.lr()),
                ScheduleAction::Stop => break,
            }
        }

        // Restore the best-on-validation parameters.
        for (p, snap) in params.iter().zip(best_snapshot) {
            p.set_data(snap);
        }
        TrainReport {
            epochs,
            best_val_loss: best_val,
            best_epoch,
            val_history,
            skipped_steps,
            clipped_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ReduceLrOnPlateau;

    #[test]
    fn fits_a_quadratic() {
        let x = Tensor::leaf(&[1], vec![0.0]);
        let trainer =
            Trainer::new(300, 0).with_schedule(ReduceLrOnPlateau::new(0.05, 0.5, 50, 1e-6));
        let x2 = x.clone();
        let x3 = x.clone();
        let report = trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.sub_scalar(2.0).square().sum_all(),
                val: move |_: &mut EpochCtx<'_>| (x3.item() - 2.0).powi(2),
                project: |_: &[Tensor]| {},
            },
        );
        assert!((x.item() - 2.0).abs() < 1e-2, "x = {}", x.item());
        assert!(report.best_val_loss < 1e-4);
        assert_eq!(report.val_history.len(), report.epochs);
    }

    #[test]
    fn restores_best_snapshot() {
        // Craft a val loss that is best at epoch 0 and worse afterwards; the
        // trainer must restore the epoch-0 parameters.
        let x = Tensor::leaf(&[1], vec![1.0]);
        let trainer = Trainer::new(10, 0);
        let x2 = x.clone();
        trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.square().sum_all(), // pushes x toward 0
                // Strictly increasing with the epoch: epoch 0 is best.
                val: |ctx: &mut EpochCtx<'_>| ctx.epoch as f64 + 1.0,
                project: |_: &[Tensor]| {},
            },
        );
        // x after the first step, before later updates.
        assert!(x.item() < 1.0 && x.item() > 0.5);
    }

    #[test]
    fn projection_is_applied() {
        let x = Tensor::leaf(&[1], vec![5.0]);
        let trainer = Trainer::new(5, 0);
        let x2 = x.clone();
        trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.square().sum_all(),
                val: |_: &mut EpochCtx<'_>| 0.0,
                project: |params: &[Tensor]| {
                    for p in params {
                        p.map_data_in_place(|v| v.clamp(4.9, 5.1));
                    }
                },
            },
        );
        assert!((4.9..=5.1).contains(&x.item()));
    }

    #[test]
    fn stops_when_lr_floor_hit() {
        let x = Tensor::leaf(&[1], vec![1.0]);
        let trainer =
            Trainer::new(10_000, 0).with_schedule(ReduceLrOnPlateau::new(0.1, 0.5, 1, 0.05));
        let x2 = x.clone();
        let report = trainer.run(
            vec![x],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.square().sum_all(),
                val: |_: &mut EpochCtx<'_>| 1.0, // never improves → plateau every epoch
                project: |_: &[Tensor]| {},
            },
        );
        // patience 1, halving from 0.1: stops after 2 plateau reductions.
        assert!(report.epochs < 10, "ran {} epochs", report.epochs);
    }

    #[test]
    fn ctx_exposes_seed_epoch_and_runner() {
        let x = Tensor::leaf(&[1], vec![0.0]);
        let trainer = Trainer::new(3, 41).with_runner(ParallelRunner::serial());
        let x2 = x.clone();
        let mut seen = Vec::new();
        let seen_ref = &mut seen;
        trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |ctx: &mut EpochCtx<'_>| {
                    assert_eq!(ctx.master_seed, 41);
                    assert_eq!(ctx.runner.threads(), 1);
                    x2.square().sum_all()
                },
                val: move |ctx: &mut EpochCtx<'_>| {
                    seen_ref.push(ctx.epoch);
                    0.0
                },
                project: |_: &[Tensor]| {},
            },
        );
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn nan_loss_skips_step_and_leaves_params_intact() {
        // Every epoch produces a NaN loss: no optimizer step may run, the
        // parameters must come out bit-identical, and the loop must still
        // complete all epochs with the skip counter matching.
        let x = Tensor::leaf(&[1], vec![1.5]);
        let trainer = Trainer::new(5, 0);
        let x2 = x.clone();
        let report = trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.mul_scalar(f64::NAN).sum_all(),
                val: |_: &mut EpochCtx<'_>| 0.0,
                project: |_: &[Tensor]| panic!("projection must not run on a skipped step"),
            },
        );
        assert_eq!(report.epochs, 5);
        assert_eq!(report.skipped_steps, 5);
        assert_eq!(x.item(), 1.5, "parameters must be untouched");
    }

    #[test]
    fn nan_epoch_mid_run_is_survivable() {
        // Epoch 1 of 4 explodes; the surrounding epochs still optimize and
        // the final parameters are finite.
        let x = Tensor::leaf(&[1], vec![4.0]);
        let trainer = Trainer::new(4, 0);
        let x2 = x.clone();
        let x3 = x.clone();
        let report = trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |ctx: &mut EpochCtx<'_>| {
                    if ctx.epoch == 1 {
                        x2.mul_scalar(f64::NAN).sum_all()
                    } else {
                        x2.square().sum_all()
                    }
                },
                val: move |_: &mut EpochCtx<'_>| x3.item().powi(2),
                project: |_: &[Tensor]| {},
            },
        );
        assert_eq!(report.epochs, 4);
        assert_eq!(report.skipped_steps, 1);
        assert!(x.item().is_finite());
        assert!(x.item() < 4.0, "healthy epochs should still make progress");
    }

    #[test]
    fn oversized_gradient_is_clipped_not_skipped() {
        let x = Tensor::leaf(&[1], vec![1.0]);
        let trainer = Trainer::new(1, 0).with_max_grad_norm(Some(1.0));
        let x2 = x.clone();
        let report = trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                // d/dx (1e6·x²) = 2e6 at x=1 → far over the norm limit.
                train: move |_: &mut EpochCtx<'_>| x2.square().mul_scalar(1e6).sum_all(),
                val: |_: &mut EpochCtx<'_>| 0.0,
                project: |_: &[Tensor]| {},
            },
        );
        assert_eq!(report.skipped_steps, 0);
        assert_eq!(report.clipped_steps, 1);
        assert!(x.item().is_finite());
    }

    #[test]
    fn training_emits_epoch_telemetry() {
        let x = Tensor::leaf(&[1], vec![1.0]);
        let trainer = Trainer::new(3, 0);
        let x2 = x.clone();
        let ((), events) = ptnc_telemetry::collect(|| {
            trainer.run(
                vec![x.clone()],
                &mut FnObjective {
                    train: move |_: &mut EpochCtx<'_>| x2.square().sum_all(),
                    val: |_: &mut EpochCtx<'_>| 0.0,
                    project: |_: &[Tensor]| {},
                },
            );
        });
        let epochs: Vec<_> = events.iter().filter(|e| e.name == "train.epoch").collect();
        assert_eq!(epochs.len(), 3);
        assert!(epochs[0].get("loss").is_some());
        assert!(epochs[0].get("grad_norm").is_some());
        assert!(epochs[0].get("lr").is_some());
    }

    #[test]
    fn closure_objective_fits_without_a_named_objective_type() {
        // The migration target of the removed closure-based `fit` API: the
        // same twin-closure shape, expressed through `FnObjective`.
        let x = Tensor::leaf(&[1], vec![0.0]);
        let trainer =
            Trainer::new(200, 0).with_schedule(ReduceLrOnPlateau::new(0.05, 0.5, 50, 1e-6));
        let x2 = x.clone();
        let x3 = x.clone();
        trainer.run(
            vec![x.clone()],
            &mut FnObjective {
                train: move |_: &mut EpochCtx<'_>| x2.sub_scalar(1.0).square().sum_all(),
                val: move |_: &mut EpochCtx<'_>| (x3.item() - 1.0).powi(2),
                project: |_: &[Tensor]| {},
            },
        );
        assert!((x.item() - 1.0).abs() < 0.05);
    }
}
