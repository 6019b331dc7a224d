//! Training-throughput harness: epochs/sec, Monte-Carlo steps/sec and heap
//! allocations per step for the three variation-aware training paths —
//!
//! * **unfused+malloc** — per-step autograd tape, buffer pool disabled
//!   (every tensor round-trips through the system allocator),
//! * **unfused+pool** — per-step tape with the recycling buffer pool,
//! * **fused+pool** — whole-sequence scan kernels (`matmul_scan`,
//!   `bias_div_scan`, `filter_scan`, `ptanh_scan`) on the pooled tape.
//!
//! All three paths are bit-identical in results (the harness asserts it);
//! only the wall clock and the allocator traffic differ.
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin train_throughput
//! PNC_SMOKE=1 PNC_TELEMETRY=BENCH_train.jsonl cargo run -p ptnc-bench --release --bin train_throughput
//! ```
//!
//! Knobs: `PNC_SMOKE=1` shrinks the workload for CI; `PNC_TRAIN_EPOCHS`,
//! `PNC_TRAIN_MC`, `PNC_TRAIN_HIDDEN`, `PNC_TRAIN_DATASET` override it.
//! `PNC_TRAIN_ENFORCE=1` exits non-zero if the fused+pooled path is not at
//! least as fast as the unfused+malloc baseline (the CI regression gate).
//! A JSON summary is written to `PNC_TRAIN_JSON` (default
//! `BENCH_train.json`); spans/gauges go to the `train` telemetry scope when
//! `PNC_TELEMETRY=<path>` is set.

use adapt_pnc::prelude::*;
use ptnc_bench::{allocations, or_exit, print_row, print_rule, Config, ConfigError, CountingAlloc};
use ptnc_nn::timing;
use ptnc_tensor::pool;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Workload {
    dataset: String,
    epochs: usize,
    mc_samples: usize,
    hidden: usize,
}

impl Workload {
    fn parse(config: &Config) -> Result<Self, ConfigError> {
        let smoke = config.smoke();
        let (epochs, mc, hidden) = if smoke { (4, 2, 4) } else { (12, 4, 6) };
        Ok(Workload {
            dataset: config
                .get("PNC_TRAIN_DATASET")
                .unwrap_or("Slope")
                .to_string(),
            epochs: config.parse_or("PNC_TRAIN_EPOCHS", epochs)?,
            mc_samples: config.parse_or("PNC_TRAIN_MC", mc)?,
            hidden: config.parse_or("PNC_TRAIN_HIDDEN", hidden)?,
        })
    }
}

struct PathResult {
    name: &'static str,
    epochs_per_sec: f64,
    steps_per_sec: f64,
    allocs_per_step: f64,
    report: ptnc_nn::TrainReport,
}

/// Trains once under the given tape mode / pool setting with epoch timing
/// captured, returning throughput and allocator traffic. A one-epoch warm-up
/// run first-touches the dataset caches and (when enabled) fills the pool.
fn measure(
    name: &'static str,
    split: &DataSplit,
    wl: &Workload,
    fused: bool,
    pooled: bool,
) -> PathResult {
    pool::set_enabled(pooled);
    let cfg = |epochs: usize| {
        TrainConfig::adapt_pnc(wl.hidden)
            .to_builder()
            .max_epochs(epochs)
            .mc_samples(wl.mc_samples)
            .train_fused(fused)
            .build()
    };
    let runner = ParallelRunner::serial();
    let _ = train_with_runner(split, &cfg(1), 0, &runner); // warm-up

    let alloc_start = allocations();
    timing::begin_capture();
    let out = train_with_runner(split, &cfg(wl.epochs), 0, &runner);
    let cap = timing::end_capture();
    let allocs = allocations() - alloc_start;

    // One "step" = one Monte-Carlo forward/backward on the training set.
    let steps = (cap.epochs * wl.mc_samples).max(1);
    PathResult {
        name,
        epochs_per_sec: cap.epochs_per_sec(),
        steps_per_sec: cap.epochs_per_sec() * wl.mc_samples as f64,
        allocs_per_step: allocs as f64 / steps as f64,
        report: out.report,
    }
}

fn main() {
    let config = Config::from_process();
    let wl = or_exit(Workload::parse(&config));
    config.with_run_manifest("train_throughput", || run(&config, &wl));
}

fn run(config: &Config, wl: &Workload) {
    eprintln!(
        "train_throughput: {} — {} epochs x {} MC samples, hidden {}",
        wl.dataset, wl.epochs, wl.mc_samples, wl.hidden
    );
    let split = {
        let ds = Preprocess::paper_default().apply(
            &benchmark_by_name(&wl.dataset, 0)
                .unwrap_or_else(|| panic!("unknown dataset `{}` (PNC_TRAIN_DATASET)", wl.dataset)),
        );
        ds.shuffle_split(0.6, 0.2, 0)
    };

    let unfused_malloc = measure("unfused+malloc", &split, wl, false, false);
    let unfused_pool = measure("unfused+pool", &split, wl, false, true);
    let fused_pool = measure("fused+pool", &split, wl, true, true);
    pool::set_enabled(true); // restore the default for anything after us

    // The whole point of the fused tape is that it changes *nothing* but the
    // wall clock: all three paths must produce the same training history.
    assert_eq!(
        unfused_malloc.report, fused_pool.report,
        "fused and unfused training diverged — parity bug"
    );
    assert_eq!(
        unfused_malloc.report, unfused_pool.report,
        "pooled and unpooled training diverged — pool corrupts buffers"
    );

    let results = [&unfused_malloc, &unfused_pool, &fused_pool];
    let widths = [16usize, 12, 12, 14, 10];
    print_row(
        &["path", "epochs/sec", "steps/sec", "allocs/step", "speedup"].map(String::from),
        &widths,
    );
    print_rule(&widths);
    let base = unfused_malloc.steps_per_sec.max(1e-12);
    for r in results {
        ptnc_telemetry::span("train.path")
            .field("path", r.name)
            .field("epochs_per_sec", r.epochs_per_sec)
            .field("steps_per_sec", r.steps_per_sec)
            .field("allocs_per_step", r.allocs_per_step)
            .finish();
        print_row(
            &[
                r.name.to_string(),
                format!("{:.2}", r.epochs_per_sec),
                format!("{:.2}", r.steps_per_sec),
                format!("{:.0}", r.allocs_per_step),
                format!("{:.1}x", r.steps_per_sec / base),
            ],
            &widths,
        );
    }
    let speedup = fused_pool.steps_per_sec / base;
    let alloc_reduction = unfused_malloc.allocs_per_step / fused_pool.allocs_per_step.max(1e-12);
    ptnc_telemetry::gauge("train.speedup.fused_pool_vs_unfused_malloc", speedup);
    ptnc_telemetry::gauge(
        "train.alloc_reduction.fused_pool_vs_unfused_malloc",
        alloc_reduction,
    );
    println!();
    println!(
        "fused+pool vs unfused+malloc: {speedup:.1}x steps/sec, {alloc_reduction:.0}x fewer allocations/step"
    );
    println!("(single-thread Monte-Carlo; all paths verified bit-identical)");

    let json_path = config.get("PNC_TRAIN_JSON").unwrap_or("BENCH_train.json");
    let path_json = |r: &PathResult| {
        format!(
            "{{\"path\": \"{}\", \"epochs_per_sec\": {:.3}, \"steps_per_sec\": {:.3}, \"allocs_per_step\": {:.1}}}",
            r.name, r.epochs_per_sec, r.steps_per_sec, r.allocs_per_step
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"train_throughput\",\n  \"dataset\": \"{}\",\n  \"epochs\": {},\n  \"mc_samples\": {},\n  \"hidden\": {},\n  \"paths\": [\n    {},\n    {},\n    {}\n  ],\n  \"speedup_fused_pool_vs_unfused_malloc\": {:.3},\n  \"alloc_reduction_fused_pool_vs_unfused_malloc\": {:.1},\n  \"bit_identical\": true\n}}\n",
        wl.dataset,
        wl.epochs,
        wl.mc_samples,
        wl.hidden,
        path_json(&unfused_malloc),
        path_json(&unfused_pool),
        path_json(&fused_pool),
        speedup,
        alloc_reduction,
    );
    std::fs::write(json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    if config.flag("PNC_TRAIN_ENFORCE") && speedup < 1.0 {
        eprintln!(
            "PNC_TRAIN_ENFORCE: fused+pool ({:.2} steps/sec) slower than unfused+malloc ({:.2}) — failing",
            fused_pool.steps_per_sec, base
        );
        std::process::exit(1);
    }
}
