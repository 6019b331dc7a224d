//! The Fig. 7 ablation study: which robustness ingredient buys what.
//!
//! Five training configurations are compared on clean and perturbed test
//! data under 10 % physical variation: the baseline, each ingredient alone
//! (VA, AT, SO-LF) and the full combination (VA + SO-LF + AT).

use ptnc_datasets::DataSplit;

use crate::eval::{evaluate_with_runner, EvalCondition};
use crate::models::FilterOrder;
use crate::parallel::ParallelRunner;
use crate::training::{train_with_runner, TrainConfig};
use crate::variation::VariationConfig;

/// The ablation arms of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationArm {
    /// Baseline pTPNC: first-order filters, no robustness measures.
    Baseline,
    /// Variation-aware training only.
    VariationAware,
    /// Augmented training only.
    AugmentedTraining,
    /// Second-order learnable filters only.
    SecondOrderFilters,
    /// VA + SO-LF + AT (the full ADAPT-pNC).
    Full,
}

impl AblationArm {
    /// All arms in Fig. 7 order.
    pub fn all() -> [AblationArm; 5] {
        [
            AblationArm::Baseline,
            AblationArm::VariationAware,
            AblationArm::AugmentedTraining,
            AblationArm::SecondOrderFilters,
            AblationArm::Full,
        ]
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            AblationArm::Baseline => "Baseline",
            AblationArm::VariationAware => "VA",
            AblationArm::AugmentedTraining => "AT",
            AblationArm::SecondOrderFilters => "SO-LF",
            AblationArm::Full => "VA+SO-LF+AT",
        }
    }

    /// The training configuration realizing this arm.
    pub fn config(self, hidden: usize) -> TrainConfig {
        let base = TrainConfig::baseline_ptpnc(hidden);
        match self {
            AblationArm::Baseline => base,
            AblationArm::VariationAware => base
                .to_builder()
                .variation_aware(true)
                .mc_samples(3)
                .build(),
            AblationArm::AugmentedTraining => base
                .to_builder()
                .augmented(true)
                .augment_strength(0.5)
                .build(),
            AblationArm::SecondOrderFilters => {
                base.to_builder().filter_order(FilterOrder::Second).build()
            }
            AblationArm::Full => TrainConfig::adapt_pnc(hidden),
        }
    }
}

/// Clean and perturbed accuracies of one arm on one dataset.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AblationResult {
    /// Accuracy on clean test data under 10 % variation.
    pub clean: f64,
    /// Accuracy on perturbed test data under 10 % variation.
    pub perturbed: f64,
}

/// Trains one ablation arm with the default runner. See
/// [`run_arm_with_runner`].
pub fn run_arm(
    arm: AblationArm,
    split: &DataSplit,
    hidden: usize,
    max_epochs: usize,
    variation_trials: usize,
    seed: u64,
) -> AblationResult {
    run_arm_with_runner(
        arm,
        split,
        hidden,
        max_epochs,
        variation_trials,
        seed,
        &ParallelRunner::default(),
    )
}

/// Trains one ablation arm and scores it under the Fig. 7 conditions (both
/// with 10 % physical variation; clean vs perturbed inputs), fanning the
/// Monte-Carlo work out through `runner`.
#[allow(clippy::too_many_arguments)]
pub fn run_arm_with_runner(
    arm: AblationArm,
    split: &DataSplit,
    hidden: usize,
    max_epochs: usize,
    variation_trials: usize,
    seed: u64,
    runner: &ParallelRunner,
) -> AblationResult {
    let cfg = arm.config(hidden).with_epochs(max_epochs);
    let trained = train_with_runner(split, &cfg, seed, runner);
    let variation = VariationConfig::paper_default();
    let clean = evaluate_with_runner(
        &trained.model,
        &split.test,
        &EvalCondition::Variation {
            config: variation,
            trials: variation_trials,
        },
        seed,
        runner,
    );
    let perturbed = evaluate_with_runner(
        &trained.model,
        &split.test,
        &EvalCondition::VariationAndPerturbed {
            config: variation,
            trials: variation_trials,
            strength: 0.5,
        },
        seed,
        runner,
    );
    AblationResult { clean, perturbed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_cover_figure_seven() {
        let labels: Vec<&str> = AblationArm::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["Baseline", "VA", "AT", "SO-LF", "VA+SO-LF+AT"]);
    }

    #[test]
    fn configs_toggle_single_ingredients() {
        let h = 4;
        let base = AblationArm::Baseline.config(h);
        assert!(!base.variation_aware && !base.augmented);
        assert_eq!(base.filter_order, FilterOrder::First);

        let va = AblationArm::VariationAware.config(h);
        assert!(va.variation_aware && !va.augmented);
        assert_eq!(va.filter_order, FilterOrder::First);

        let at = AblationArm::AugmentedTraining.config(h);
        assert!(!at.variation_aware && at.augmented);

        let so = AblationArm::SecondOrderFilters.config(h);
        assert!(!so.variation_aware && !so.augmented);
        assert_eq!(so.filter_order, FilterOrder::Second);

        let full = AblationArm::Full.config(h);
        assert!(full.variation_aware && full.augmented);
        assert_eq!(full.filter_order, FilterOrder::Second);
    }

    #[test]
    fn run_arm_produces_valid_accuracies() {
        use ptnc_datasets::{benchmark_by_name, preprocess::Preprocess};
        let ds = Preprocess::paper_default().apply(&benchmark_by_name("Slope", 0).unwrap());
        let split = ds.shuffle_split(0.6, 0.2, 0);
        let r = run_arm(AblationArm::Baseline, &split, 3, 8, 2, 0);
        assert!((0.0..=1.0).contains(&r.clean));
        assert!((0.0..=1.0).contains(&r.perturbed));
    }
}
