//! Quickstart: train a robustness-aware ADAPT-pNC on the CBF benchmark and
//! compare it with the no-variation-aware baseline under the paper's test
//! condition (±10 % component variation + perturbed inputs).
//!
//! ```text
//! cargo run --release -p adapt-pnc --example quickstart
//! ```

use adapt_pnc::experiments::prepare_split;
use adapt_pnc::hardware::count_devices;
use adapt_pnc::power::model_power;
use adapt_pnc::prelude::*;

fn main() {
    // 1. Data: the synthetic CBF benchmark, preprocessed the paper's way
    //    (resize to 64 samples, normalize to ±1, 60/20/20 split).
    let spec = all_specs()
        .iter()
        .find(|s| s.name == "CBF")
        .expect("CBF registered");
    let split = prepare_split(spec, 0);
    println!(
        "CBF: {} train / {} val / {} test series, {} classes",
        split.train.len(),
        split.val.len(),
        split.test.len(),
        split.train.num_classes()
    );

    // 2. Train the baseline pTPNC (first-order filters, nothing
    //    robustness-aware) and the full ADAPT-pNC (SO-LF + variation-aware
    //    Monte-Carlo training + data augmentation). Configs come from the
    //    presets; the builder tweaks individual fields. The default runner
    //    fans the Monte-Carlo samples of each epoch out over
    //    `RAYON_NUM_THREADS` threads (or one per core) — the numbers are
    //    bit-identical for any thread count.
    let epochs = std::env::var("PNC_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let runner = ParallelRunner::default();
    println!("training on {} thread(s)...", runner.threads());
    let baseline_cfg = TrainConfig::builder(8).max_epochs(epochs).build();
    let adapt_cfg = TrainConfig::adapt_pnc(8)
        .to_builder()
        .max_epochs(epochs)
        .build();
    println!("training baseline pTPNC ({epochs} epochs)...");
    let baseline = train_with_runner(&split, &baseline_cfg, 0, &runner);
    println!("training ADAPT-pNC ({epochs} epochs)...");
    let adapt = train_with_runner(&split, &adapt_cfg, 0, &runner);

    // 3. Evaluate under the paper's Table I condition.
    let condition = EvalCondition::paper_test();
    let base_acc = evaluate_with_runner(&baseline.model, &split.test, &condition, 0, &runner);
    let adapt_acc = evaluate_with_runner(&adapt.model, &split.test, &condition, 0, &runner);
    println!();
    println!("test accuracy under 10% variation + perturbed inputs:");
    println!("  baseline pTPNC : {base_acc:.3}");
    println!("  ADAPT-pNC      : {adapt_acc:.3}");

    // 4. Hardware cost of both circuits (Table III style).
    let pdk = Pdk::paper_default();
    println!();
    println!(
        "devices: baseline {} | proposed {}",
        count_devices(&baseline.model),
        count_devices(&adapt.model)
    );
    println!(
        "static power: baseline {:.3} mW | proposed {:.3} mW",
        model_power(&baseline.model, &pdk).total_mw(),
        model_power(&adapt.model, &pdk).total_mw()
    );
}
