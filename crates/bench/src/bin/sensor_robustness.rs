//! Sensor-robustness sweep: accuracy-degradation curves for the baseline
//! pTPNC vs ADAPT-pNC under runtime fault injection (dropout, burst loss,
//! spike noise, baseline drift, quantization, stuck sensors) and slow
//! device-conductance drift, scored through both the unguarded and the
//! guarded inference paths.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin sensor_robustness
//! PNC_SMOKE=1 PNC_TELEMETRY=BENCH_robustness.jsonl \
//!     cargo run -p ptnc-bench --release --bin sensor_robustness
//! ```
//!
//! Knobs: `PNC_SMOKE=1` shrinks training and the fault grid for CI;
//! `PNC_DATASETS` picks the benchmark (first selected spec); the usual
//! `PNC_EPOCHS`/`PNC_HIDDEN`/`PNC_TRIALS`/`PNC_THREADS` apply;
//! `PNC_ROBUSTNESS_OUT=<path>` writes the degradation curves as JSONL
//! (one grid point per line, byte-identical for any thread count);
//! `PNC_SAVE_MODELS=<dir>` persists the trained models as design-file
//! JSON via atomic writes; `PNC_TELEMETRY=<path>` dumps the run manifest.

use adapt_pnc::persist::save_json_atomic;
use adapt_pnc::prelude::*;
use adapt_pnc::robustness::to_jsonl;
use adapt_pnc::{experiments, robustness};
use ptnc_bench::{print_row, print_rule, Config};

fn main() {
    let cfg = Config::from_process();
    cfg.with_run_manifest("sensor_robustness", || run(&cfg));
}

fn run(cfg: &Config) {
    let (smoke, scale, runner) = (cfg.smoke(), cfg.scale, &cfg.runner);
    let spec = cfg.specs()[0];
    let seed = 0u64;
    eprintln!(
        "sensor_robustness: {} (hidden {}, {} epochs{})",
        spec.name,
        scale.hidden,
        if smoke { 40 } else { scale.epochs },
        if smoke { ", smoke" } else { "" }
    );

    let split = experiments::prepare_split(spec, seed);
    let epochs = if smoke { 40 } else { scale.epochs };
    let configs = [
        ("baseline_ptpnc", TrainConfig::baseline_ptpnc(scale.hidden)),
        ("adapt_pnc", TrainConfig::adapt_pnc(scale.hidden)),
    ];
    let mut models = Vec::new();
    for (name, config) in configs {
        let trained = train_with_runner(&split, &config.with_epochs(epochs), seed, runner);
        eprintln!("  {name}: val accuracy {:.3}", trained.val_accuracy);
        if let Some(dir) = cfg.get("PNC_SAVE_MODELS") {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir).expect("creating model directory");
            let path = dir.join(format!("{name}.json"));
            save_json_atomic(&trained.model, &path)
                .unwrap_or_else(|e| panic!("saving {}: {e}", path.display()));
            eprintln!("  {name}: saved design file to {}", path.display());
        }
        let engine = trained
            .freeze()
            .expect("trained model has finite parameters");
        models.push((name.to_string(), engine));
    }

    let mut fault_cfg = if smoke {
        robustness::RobustnessConfig::smoke()
    } else {
        robustness::RobustnessConfig::paper_default()
    };
    fault_cfg.trials = if smoke { 2 } else { scale.variation_trials };
    fault_cfg.seed = seed;

    let points = robustness::sensor_fault_sweep(&models, &split.test, &fault_cfg, runner);

    let widths = [16usize, 18, 9, 8, 11, 9, 9, 8];
    print_row(
        &[
            "model",
            "fault",
            "severity",
            "clean",
            "unguarded",
            "guarded",
            "repaired",
            "faulted",
        ]
        .map(String::from),
        &widths,
    );
    print_rule(&widths);
    for p in &points {
        ptnc_telemetry::span("robustness.curve")
            .field("model", p.model.as_str())
            .field("fault", p.fault.as_str())
            .field("severity", p.severity)
            .field("clean", p.clean_accuracy)
            .field("unguarded", p.unguarded_accuracy)
            .field("guarded", p.guarded_accuracy)
            .finish();
        print_row(
            &[
                p.model.clone(),
                p.fault.clone(),
                format!("{:.4}", p.severity),
                format!("{:.3}", p.clean_accuracy),
                format!("{:.3}", p.unguarded_accuracy),
                format!("{:.3}", p.guarded_accuracy),
                format!("{:.3}", p.repaired_fraction),
                format!("{}", p.faulted_streams),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "({} grid points; guarded path = {:?} policy, range [{}, {}]; \
         severity is the drift rate for conductance_drift rows)",
        points.len(),
        fault_cfg.guard.policy,
        fault_cfg.guard.lo,
        fault_cfg.guard.hi
    );

    if let Some(path) = cfg.get("PNC_ROBUSTNESS_OUT") {
        adapt_pnc::persist::write_atomic(std::path::Path::new(path), to_jsonl(&points).as_bytes())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {} degradation-curve points to {path}", points.len());
    }
}
