//! Design-choice ablations beyond the paper's Fig. 7 (see `DESIGN.md` §7):
//!
//! 1. **μ handling** — design the filters coupling-unaware (μ = 1), at the
//!    SPICE-calibrated midpoint (1.15), or sample μ during training,
//! 2. **power regularizer** — sweep the conductance-sum weight and report the
//!    accuracy/power trade-off behind Table III,
//! 3. **filter order** — first vs second (paper) vs third (extension).
//!
//! ```text
//! PNC_DATASETS=PowerCons,GPOVY cargo run -p ptnc-bench --release --bin ablate_design
//! ```

use adapt_pnc::eval::{evaluate_with_runner, EvalCondition};
use adapt_pnc::experiments::prepare_split;
use adapt_pnc::models::FilterOrder;
use adapt_pnc::power::model_power;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_bench::{mean, print_row, print_rule, Config};

fn main() {
    let config = Config::from_process();
    let (scale, runner) = (config.scale, &config.runner);
    eprintln!("ablate_design: {config}");
    let condition = EvalCondition::VariationAndPerturbed {
        config: VariationConfig::paper_default(),
        trials: scale.variation_trials,
        strength: 0.5,
    };
    // Trains one configuration on one benchmark and scores it.
    let train_and_score = |spec, cfg: &TrainConfig| {
        let split = prepare_split(spec, 0);
        let model = train_with_runner(&split, cfg, 0, runner).model;
        let acc = evaluate_with_runner(&model, &split.test, &condition, 0, runner);
        (model, acc)
    };
    let base = || {
        TrainConfig::adapt_pnc(scale.hidden)
            .with_epochs(scale.epochs)
            .to_builder()
            .mc_samples(scale.mc_samples)
            .build()
    };

    // --- 1. coupling-factor handling ------------------------------------
    println!("## μ handling (ADAPT-pNC, accuracy under variation+perturbation)");
    let widths = [26usize, 10];
    print_row(&["configuration".into(), "accuracy".into()], &widths);
    print_rule(&widths);
    let mu_variants: Vec<(&str, TrainConfig)> = vec![
        (
            "mu = 1 (coupling-unaware)",
            base().to_builder().mu_nominal(1.0).build(),
        ),
        ("mu = 1.15 (calibrated)", base()),
        (
            "mu pinned, no sampling",
            base()
                .to_builder()
                .variation(VariationConfig {
                    mu_lo: 1.15,
                    mu_hi: 1.15 + 1e-9,
                    ..VariationConfig::paper_default()
                })
                .build(),
        ),
    ];
    for (name, cfg) in mu_variants {
        let mut scores = Vec::new();
        for spec in config.specs() {
            scores.push(train_and_score(spec, &cfg).1);
        }
        print_row(&[name.into(), format!("{:.3}", mean(&scores))], &widths);
    }
    println!();

    // --- 2. power regularizer sweep --------------------------------------
    println!("## power-regularizer sweep (accuracy vs static power)");
    let widths = [12usize, 10, 12];
    print_row(
        &["lambda".into(), "accuracy".into(), "power_mW".into()],
        &widths,
    );
    print_rule(&widths);
    for lambda in [0.0, 500.0, 2_000.0, 20_000.0] {
        let cfg = base().to_builder().power_reg(lambda).build();
        let mut scores = Vec::new();
        let mut powers = Vec::new();
        for spec in config.specs() {
            let (model, acc) = train_and_score(spec, &cfg);
            scores.push(acc);
            powers.push(model_power(&model, &cfg.pdk).total_mw());
        }
        print_row(
            &[
                format!("{lambda}"),
                format!("{:.3}", mean(&scores)),
                format!("{:.4}", mean(&powers)),
            ],
            &widths,
        );
    }
    println!();

    // --- 3. filter order --------------------------------------------------
    println!("## filter order (accuracy and capacitor count)");
    let widths = [8usize, 10, 12];
    print_row(
        &["order".into(), "accuracy".into(), "capacitors".into()],
        &widths,
    );
    print_rule(&widths);
    for order in [FilterOrder::First, FilterOrder::Second, FilterOrder::Third] {
        let cfg = base().to_builder().filter_order(order).build();
        let mut scores = Vec::new();
        let mut caps = Vec::new();
        for spec in config.specs() {
            let (model, acc) = train_and_score(spec, &cfg);
            scores.push(acc);
            caps.push(adapt_pnc::hardware::count_devices(&model).capacitors as f64);
        }
        print_row(
            &[
                order.label().into(),
                format!("{:.3}", mean(&scores)),
                format!("{:.0}", mean(&caps)),
            ],
            &widths,
        );
    }
}
