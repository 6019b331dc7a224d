//! Diagnostic tool (not a paper table): decomposes each model's test accuracy
//! into the four evaluation conditions — nominal, variation-only,
//! perturbation-only and the paper's combined condition — to show where
//! robustness is won or lost.
//!
//! ```text
//! PNC_DATASETS=CBF,GPAS cargo run -p ptnc-bench --release --bin diagnose
//! ```

use adapt_pnc::eval::{dataset_to_steps, evaluate_with_runner, EvalCondition};
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_bench::{print_row, print_rule, Config};
use ptnc_nn::metrics::ConfusionMatrix;

fn main() {
    let config = Config::from_process();
    let (scale, runner) = (config.scale, &config.runner);
    eprintln!("diagnose: {config}");
    let widths = [10usize, 10, 9, 9, 9, 9];
    print_row(
        &[
            "Dataset".into(),
            "Model".into(),
            "nominal".into(),
            "vary".into(),
            "perturb".into(),
            "both".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let variation = VariationConfig::paper_default();
    let conditions = [
        EvalCondition::Nominal,
        EvalCondition::Variation {
            config: variation,
            trials: scale.variation_trials,
        },
        EvalCondition::Perturbed { strength: 0.5 },
        EvalCondition::VariationAndPerturbed {
            config: variation,
            trials: scale.variation_trials,
            strength: 0.5,
        },
    ];

    for spec in config.specs() {
        let split = prepare_split(spec, 0);
        let configs = [
            (
                "baseline",
                TrainConfig::baseline_ptpnc(scale.hidden).with_epochs(scale.epochs),
            ),
            (
                "adapt",
                TrainConfig::adapt_pnc(scale.hidden)
                    .with_epochs(scale.epochs)
                    .to_builder()
                    .mc_samples(scale.mc_samples)
                    .build(),
            ),
        ];
        for (name, cfg) in configs {
            let trained = train_with_runner(&split, &cfg, 0, runner);
            let mut cells = vec![spec.name.to_string(), name.to_string()];
            for cond in &conditions {
                cells.push(format!(
                    "{:.3}",
                    evaluate_with_runner(&trained.model, &split.test, cond, 0, runner)
                ));
            }
            print_row(&cells, &widths);

            // Per-class view at nominal conditions: collapsed predictions are
            // the tell-tale failure mode of an overwhelmed printed classifier.
            let (steps, labels) = dataset_to_steps(&split.test);
            let cm = ConfusionMatrix::from_logits(&trained.model.forward_nominal(&steps), &labels);
            eprintln!(
                "# {} {name}: macro-F1 {:.3}{}\n{cm}",
                spec.name,
                cm.macro_f1(),
                if cm.is_degenerate() {
                    " (DEGENERATE: single-class predictions)"
                } else {
                    ""
                }
            );
        }
    }
}
