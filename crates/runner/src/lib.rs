//! Deterministic parallel execution for the ADAPT-pNC reproduction.
//!
//! Every robustness result in the paper rests on embarrassingly parallel
//! loops: `N` Monte-Carlo variation samples per training epoch, hundreds
//! of perturbed evaluation trials, and (dataset × seed) sweeps in the
//! experiment binaries. This crate provides the one execution layer they
//! all share:
//!
//! * [`seed_split`] — counter-based seed derivation. Every unit of work
//!   gets its own RNG stream keyed by `(master_seed, stream, index)`, so
//!   the result of a fan-out is **bit-identical regardless of thread
//!   count** — parallelism never changes which random numbers a work item
//!   sees, only when they are drawn.
//! * [`ParallelRunner`] — a rayon-backed fan-out primitive owning thread
//!   pool sizing (`RAYON_NUM_THREADS` by default), ordered result
//!   collection, panic capture with item context, and optional progress
//!   reporting on stderr.
//!
//! The layer deliberately parallelizes *above* the tensor level: tensors
//! in this workspace are single-threaded by design (`Rc`-based autodiff
//! graphs), so work items rebuild thread-local replicas from plain `Send`
//! data and return plain `Send` results.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Derives an independent RNG seed for one unit of work.
///
/// A SplitMix64-style avalanche over `(master_seed, stream, index)`:
/// counter-based, so no draw-order coupling exists between work items, and
/// statistically distinct for any two distinct input triples (the
/// finalizer is a bijection of the combined state, making collisions as
/// unlikely as random 64-bit collisions).
///
/// `stream` namespaces independent uses (e.g. training-MC vs validation-MC
/// vs evaluation trials) so they never share streams even at equal
/// indices.
#[must_use]
pub fn seed_split(master_seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = master_seed;
    // Two rounds of the SplitMix64 finalizer, folding in one word per
    // round — the standard counter-based construction.
    for word in [
        stream ^ 0x9E37_79B9_7F4A_7C15,
        index ^ 0xD1B5_4A32_D192_ED03,
    ] {
        z = z.wrapping_add(word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Builds the RNG for one unit of work (see [`seed_split`]).
#[must_use]
pub fn rng_for(master_seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed_split(master_seed, stream, index))
}

/// Well-known stream identifiers, so independent subsystems never collide
/// on `(master_seed, index)` pairs.
pub mod streams {
    /// Per-epoch, per-sample training Monte-Carlo variation draws.
    pub const TRAIN_MC: u64 = 0x7261_696E;
    /// Per-epoch, per-sample validation Monte-Carlo variation draws.
    pub const VAL_MC: u64 = 0x7661_6C69;
    /// Test-time variation evaluation trials.
    pub const EVAL_TRIAL: u64 = 0x6576_616C;
    /// Per-seed training runs inside an experiment sweep.
    pub const EXPERIMENT: u64 = 0x6578_7065;
    /// Fault-injection / yield simulation instances.
    pub const FAULTS: u64 = 0x6661_756C;
}

/// A deterministic rayon-backed fan-out runner.
///
/// The runner owns three policies so call sites don't re-implement them:
///
/// 1. **Thread-pool sizing.** Explicit [`ParallelRunner::with_threads`]
///    wins over the default, [`rayon::current_num_threads`]
///    (`RAYON_NUM_THREADS`, then available parallelism). Thread count never
///    affects results, only wall-clock.
/// 2. **Ordered collection.** Outputs come back in item order.
/// 3. **Panic capture.** A panicking item aborts the fan-out and re-raises
///    on the caller thread, prefixed with the item index for diagnosis.
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    threads: usize,
    progress: Option<String>,
}

impl Default for ParallelRunner {
    /// A runner as wide as [`rayon::current_num_threads`].
    fn default() -> Self {
        ParallelRunner {
            threads: rayon::current_num_threads().max(1),
            progress: None,
        }
    }
}

impl ParallelRunner {
    /// A strictly serial runner (one thread) — useful in tests comparing
    /// serial and parallel execution.
    #[must_use]
    pub fn serial() -> Self {
        ParallelRunner {
            threads: 1,
            progress: None,
        }
    }

    /// Overrides the thread count (`0` is clamped to 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables progress reporting on stderr under the given label.
    #[must_use]
    pub fn with_progress(mut self, label: impl Into<String>) -> Self {
        self.progress = Some(label.into());
        self
    }

    /// The thread count this runner fans out to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `items` through `f` in parallel, returning outputs in item
    /// order. `f` receives the item index alongside the item.
    ///
    /// When a telemetry scope is active on the calling thread
    /// ([`ptnc_telemetry::collect`]), each work item's events are captured
    /// on its worker and re-emitted here in item order, tagged with an
    /// `item` field — so the aggregate stream is identical for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any work item, prefixed with its index.
    pub fn run<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        let total = items.len();
        let capture = ptnc_telemetry::is_enabled();
        let done = AtomicUsize::new(0);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("vendored thread pool cannot fail to build");
        let indexed: Vec<(usize, I)> = items.into_iter().enumerate().collect();
        type Outcome<O> = Result<(O, Vec<ptnc_telemetry::Event>), String>;
        let results: Vec<Outcome<O>> = pool.install(|| {
            indexed
                .into_par_iter()
                .map(|(index, item)| {
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        if capture {
                            ptnc_telemetry::collect(|| f(index, item))
                        } else {
                            (f(index, item), Vec::new())
                        }
                    }))
                    .map_err(|payload| format!("work item {index}: {}", panic_text(&payload)));
                    if let Some(label) = &self.progress {
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        eprintln!("[{label}] {n}/{total}");
                    }
                    out
                })
                .collect()
        });
        results
            .into_iter()
            .enumerate()
            .map(|(index, r)| {
                let (out, events) = r.unwrap_or_else(|msg| panic!("{msg}"));
                if capture {
                    ptnc_telemetry::emit_all(
                        events.into_iter().map(|e| e.field("item", index as u64)),
                    );
                }
                out
            })
            .collect()
    }

    /// Fans out `count` independent seeded work items: item `index` gets
    /// the RNG for `(master_seed, stream, index)` — see [`seed_split`].
    pub fn run_seeded<O, F>(&self, master_seed: u64, stream: u64, count: usize, f: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize, &mut StdRng) -> O + Sync,
    {
        self.run((0..count).collect(), |index, _| {
            let mut rng = rng_for(master_seed, stream, index as u64);
            f(index, &mut rng)
        })
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn seed_split_unique_over_epoch_sample_grid() {
        // No collisions across a grid far larger than any training run.
        let mut seen = HashSet::new();
        for epoch in 0..512u64 {
            for sample in 0..64u64 {
                assert!(
                    seen.insert(seed_split(0, epoch, sample)),
                    "collision at epoch {epoch}, sample {sample}"
                );
            }
        }
        // Distinct masters and streams decorrelate too.
        assert_ne!(seed_split(0, 1, 2), seed_split(1, 1, 2));
        assert_ne!(
            seed_split(0, streams::TRAIN_MC, 0),
            seed_split(0, streams::VAL_MC, 0)
        );
    }

    #[test]
    fn run_preserves_order_and_results() {
        let runner = ParallelRunner::default().with_threads(4);
        let out = runner.run((0..100).collect(), |i, x: i32| (i, x * 2));
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, i as i32 * 2);
        }
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let work = |_: usize, rng: &mut StdRng| -> Vec<f64> {
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect()
        };
        let serial = ParallelRunner::serial().run_seeded(7, streams::EVAL_TRIAL, 20, work);
        for threads in [2, 3, 8] {
            let parallel = ParallelRunner::serial().with_threads(threads).run_seeded(
                7,
                streams::EVAL_TRIAL,
                20,
                work,
            );
            assert_eq!(serial, parallel, "results diverged at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "work item 3")]
    fn panics_carry_item_context() {
        ParallelRunner::serial()
            .with_threads(2)
            .run((0..8).collect(), |i, _x: i32| {
                if i == 3 {
                    panic!("injected failure");
                }
                i
            });
    }

    #[test]
    fn worker_telemetry_is_reemitted_in_item_order() {
        let fan_out = |threads: usize| -> Vec<String> {
            let ((), events) = ptnc_telemetry::collect(|| {
                ParallelRunner::serial().with_threads(threads).run(
                    (0..12).collect(),
                    |i, _x: i32| {
                        ptnc_telemetry::gauge("work.value", i as f64);
                    },
                );
            });
            events.iter().map(|e| e.to_json()).collect()
        };
        let serial = fan_out(1);
        assert_eq!(serial.len(), 12);
        for (i, line) in serial.iter().enumerate() {
            assert!(
                line.contains(&format!("\"item\":{i}")),
                "event {i} lacks its item tag: {line}"
            );
        }
        assert_eq!(serial, fan_out(4), "telemetry order diverged at 4 threads");
    }

    #[test]
    fn nested_fan_outs_tag_with_the_outermost_item_index() {
        // An inner runner inside a work item re-tags with its own index
        // first; the outer runner's re-tag must replace it, not stack a
        // duplicate "item" key in the JSON.
        let ((), events) = ptnc_telemetry::collect(|| {
            ParallelRunner::serial()
                .with_threads(2)
                .run((0..3).collect(), |_, _x: i32| {
                    ParallelRunner::serial().with_threads(2).run(
                        (0..2).collect(),
                        |inner, _y: i32| {
                            ptnc_telemetry::gauge("nested.value", inner as f64);
                        },
                    );
                });
        });
        assert_eq!(events.len(), 6);
        for (i, event) in events.iter().enumerate() {
            let line = event.to_json();
            assert_eq!(
                line.matches("\"item\":").count(),
                1,
                "event {i} must carry exactly one item tag: {line}"
            );
            let outer = (i / 2) as u64;
            assert_eq!(
                event.get("item"),
                Some(&ptnc_telemetry::Value::U64(outer)),
                "event {i} should be tagged with outer item {outer}: {line}"
            );
        }
    }

    #[test]
    fn no_telemetry_scope_means_no_capture_overhead() {
        // Outside a collect() scope the fan-out must not create one.
        ParallelRunner::serial()
            .with_threads(2)
            .run((0..4).collect(), |_, _x: i32| {
                assert!(!ptnc_telemetry::is_enabled());
            });
    }

    #[test]
    fn default_sizing_follows_rayon() {
        assert_eq!(
            ParallelRunner::default().threads(),
            rayon::current_num_threads()
        );
        assert_eq!(ParallelRunner::default().with_threads(0).threads(), 1);
        assert_eq!(ParallelRunner::serial().threads(), 1);
    }
}
