//! Pins the zero-allocation claim on the worker hot path: once a
//! [`MicroBatcher`] is built, `begin → load_lane → forward` performs no
//! heap allocation in steady state — with or without the input guard, and
//! on the resident-session path (`import_session → forward_resident →
//! export_session`) just the same — at every precision, under a counting
//! global allocator.
//!
//! The allocator counts per thread: the hot path under test runs on the
//! test's own thread, so tests running in parallel cannot leak their
//! setup allocations into each other's measurement windows. This lives in
//! its own test binary because `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adapt_pnc::models::PrintedModel;
use adapt_pnc::serve::ServeModel;
use ptnc_infer::{GuardConfig, Precision, QFormat};
use ptnc_serve::{BatchConfig, MicroBatcher};
use ptnc_tensor::init;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and free of
    /// destructors, so touching it from inside the allocator never
    /// allocates or registers thread-exit work.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counter is a thread-local
// side effect and does not affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DIM: usize = 3;

const PRECISIONS: [Precision; 3] = [
    Precision::F64,
    Precision::F32,
    Precision::I32(QFormat::DEFAULT),
];

fn engine(precision: Precision) -> ServeModel {
    let model = PrintedModel::adapt_pnc(DIM, 6, 4, &mut init::rng(7));
    ServeModel::builder()
        .precision(precision)
        .from_live(&model)
        .unwrap()
}

fn steady_state_allocs(guard: Option<GuardConfig>, precision: Precision) -> u64 {
    let engine = engine(precision).into_engine();
    let cfg = BatchConfig {
        max_batch: 8,
        max_steps: 64,
        guard,
        ..BatchConfig::default()
    };
    let mut mb = MicroBatcher::new(&engine, &cfg).unwrap();
    let lanes: Vec<Vec<f64>> = (0..cfg.max_batch)
        .map(|lane| {
            (0..48 * DIM)
                .map(|i| ((lane * 97 + i) as f64 * 0.17).sin())
                .collect()
        })
        .collect();

    let round = |mb: &mut MicroBatcher| {
        mb.begin(48).unwrap();
        for (lane, steps) in lanes.iter().enumerate() {
            mb.load_lane(lane, steps).unwrap();
        }
        mb.forward(&engine).unwrap();
        // Touch the outputs so the forward cannot be optimized away.
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };

    // Warm up once (lazy thread-locals, first-use buffers), then measure.
    round(&mut mb);
    let before = allocations();
    for _ in 0..32 {
        round(&mut mb);
    }
    allocations() - before
}

#[test]
fn batched_forward_is_allocation_free_in_steady_state() {
    for precision in PRECISIONS {
        assert_eq!(
            steady_state_allocs(None, precision),
            0,
            "{precision}: unguarded begin/load/forward must not touch the heap"
        );
    }
}

#[test]
fn guarded_forward_is_allocation_free_in_steady_state() {
    for precision in PRECISIONS {
        assert_eq!(
            steady_state_allocs(Some(GuardConfig::default_policy()), precision),
            0,
            "{precision}: guarded begin/load/forward must not touch the heap"
        );
    }
}

/// The session steady state: resident states of more logical streams than
/// lanes are gathered into the scratch, advanced by a no-reset forward,
/// and scattered back — with zero allocations per batched forward.
fn session_steady_state_allocs(guard: Option<GuardConfig>, precision: Precision) -> u64 {
    let engine = engine(precision).into_shared_engine();
    let cfg = BatchConfig {
        max_batch: 8,
        max_steps: 64,
        guard,
        ..BatchConfig::default()
    };
    let mut mb = MicroBatcher::new(&engine, &cfg).unwrap();
    // Twice as many resident sessions as lanes: every batch re-gathers a
    // different subset, as the scheduler does for 100k+ streams.
    let mut sessions: Vec<_> = (0..2 * cfg.max_batch).map(|_| engine.session()).collect();
    let chunks: Vec<Vec<f64>> = (0..2 * cfg.max_batch)
        .map(|s| {
            (0..12 * DIM)
                .map(|i| ((s * 97 + i) as f64 * 0.17).sin())
                .collect()
        })
        .collect();

    let round = |mb: &mut MicroBatcher, sessions: &mut [ptnc_infer::StreamSession], base: usize| {
        mb.begin(12).unwrap();
        for lane in 0..cfg.max_batch {
            let s = base + lane;
            mb.load_lane(lane, &chunks[s]).unwrap();
            mb.import_session(lane, &sessions[s]).unwrap();
        }
        mb.forward_resident(&engine).unwrap();
        for lane in 0..cfg.max_batch {
            mb.export_session(lane, &mut sessions[base + lane]).unwrap();
        }
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };

    // Warm up once (lazy thread-locals, first-use buffers), then measure.
    round(&mut mb, &mut sessions, 0);
    let before = allocations();
    for k in 0..32 {
        round(&mut mb, &mut sessions, (k % 2) * cfg.max_batch);
    }
    allocations() - before
}

#[test]
fn session_forward_is_allocation_free_in_steady_state() {
    for precision in PRECISIONS {
        assert_eq!(
            session_steady_state_allocs(None, precision),
            0,
            "{precision}: import/forward_resident/export must not touch the heap"
        );
    }
}

#[test]
fn guarded_session_forward_is_allocation_free_in_steady_state() {
    for precision in PRECISIONS {
        assert_eq!(
            session_steady_state_allocs(Some(GuardConfig::default_policy()), precision),
            0,
            "{precision}: guarded session forwards must not touch the heap"
        );
    }
}
