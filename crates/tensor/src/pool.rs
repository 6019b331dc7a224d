//! Reusable buffer pool for the autograd tape.
//!
//! Variation-aware training rebuilds a fresh graph for every Monte-Carlo
//! sample of every epoch, so without reuse each op node round-trips its
//! `data`/`grad` buffers (plus backward scratch) through the global
//! allocator. This pool keeps freed buffers in per-length free lists so the
//! next forward/backward pass recycles them instead of re-allocating.
//!
//! * Buffers are recycled **thread-locally** (tensors are `Rc`-based and
//!   single-threaded), so the hot path takes no lock.
//! * The parallel Monte-Carlo runner spawns scoped worker threads per
//!   fan-out. A thread's arena is handed off to a global reservoir when the
//!   thread exits and adopted by the next worker thread that allocates, so
//!   MC workers keep an effectively **persistent scratch arena across
//!   samples and epochs** even though the threads themselves are short-lived.
//! * Recycling is on by default; [`set_enabled`]`(false)` disables it for
//!   A/B measurements. Numerical results are identical either way: pooled
//!   buffers are fully overwritten before they become visible.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::Scalar;

/// Buffers longer than this are never pooled (bounds retained memory).
const MAX_POOLED_LEN: usize = 1 << 22;
/// At most this many free buffers are retained per distinct length.
const MAX_PER_BUCKET: usize = 32;
/// At most this many orphaned worker arenas are retained for adoption.
const MAX_RESERVOIR: usize = 32;

/// Per-thread free lists plus recycling statistics.
#[derive(Default)]
struct Arena {
    buckets: HashMap<usize, Vec<Vec<Scalar>>>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

/// Arenas orphaned by exited worker threads, waiting for adoption.
static RESERVOIR: Mutex<Vec<Arena>> = Mutex::new(Vec::new());

/// Whether freed buffers are recycled (process-wide).
static ENABLED: AtomicBool = AtomicBool::new(true);

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables buffer recycling process-wide (on by default).
/// Used by benches to A/B pooled vs unpooled allocation in one process.
/// Safe at any time: disabling simply routes future frees to the allocator.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Holder whose drop hands the thread's arena to the global reservoir, so
/// short-lived Monte-Carlo worker threads pass their warm free lists on.
struct ThreadArena(RefCell<Option<Arena>>);

impl Drop for ThreadArena {
    fn drop(&mut self) {
        if let Some(arena) = self.0.borrow_mut().take() {
            if arena.buckets.is_empty() {
                return;
            }
            if let Ok(mut reservoir) = RESERVOIR.lock() {
                if reservoir.len() < MAX_RESERVOIR {
                    reservoir.push(arena);
                }
            }
        }
    }
}

thread_local! {
    static ARENA: ThreadArena = const { ThreadArena(RefCell::new(None)) };
}

/// Runs `f` against this thread's arena (adopting an orphaned one on first
/// use). Returns `None` when the thread-local is unavailable (thread
/// teardown) — callers then fall back to the plain allocator.
fn with_arena<R>(f: impl FnOnce(&mut Arena) -> R) -> Option<R> {
    ARENA
        .try_with(|cell| {
            let mut slot = cell.0.borrow_mut();
            let arena = slot.get_or_insert_with(|| {
                RESERVOIR
                    .lock()
                    .ok()
                    .and_then(|mut r| r.pop())
                    .unwrap_or_default()
            });
            f(arena)
        })
        .ok()
}

fn take_raw(len: usize) -> Option<Vec<Scalar>> {
    if !enabled() || len == 0 || len > MAX_POOLED_LEN {
        return None;
    }
    with_arena(|arena| {
        let buf = arena.buckets.get_mut(&len).and_then(Vec::pop);
        if buf.is_some() {
            arena.hits += 1;
        } else {
            arena.misses += 1;
        }
        buf
    })
    .flatten()
}

/// A length-`len` buffer with **unspecified contents** (possibly stale data
/// from a previous graph). Callers must overwrite every element before the
/// buffer becomes observable.
pub fn take_uninit(len: usize) -> Vec<Scalar> {
    match take_raw(len) {
        Some(buf) => buf,
        None => vec![0.0; len],
    }
}

/// A length-`len` buffer of zeros.
pub fn take_zeroed(len: usize) -> Vec<Scalar> {
    match take_raw(len) {
        Some(mut buf) => {
            buf.fill(0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// A pooled copy of `src`.
pub fn take_copy(src: &[Scalar]) -> Vec<Scalar> {
    match take_raw(src.len()) {
        Some(mut buf) => {
            buf.copy_from_slice(src);
            buf
        }
        None => src.to_vec(),
    }
}

/// A length-`len` buffer with element `i` set to `f(i)` — the pooled
/// replacement for `(0..len).map(f).collect()`.
pub fn filled_with(len: usize, mut f: impl FnMut(usize) -> Scalar) -> Vec<Scalar> {
    let mut buf = take_uninit(len);
    for (i, slot) in buf.iter_mut().enumerate() {
        *slot = f(i);
    }
    buf
}

/// Returns a buffer to this thread's free lists (drops it normally when the
/// pool is disabled, the buffer is over-sized, or the bucket is full).
pub fn recycle(buf: Vec<Scalar>) {
    let len = buf.len();
    if !enabled() || len == 0 || len > MAX_POOLED_LEN {
        return; // plain drop
    }
    with_arena(|arena| {
        let bucket = arena.buckets.entry(len).or_default();
        if bucket.len() < MAX_PER_BUCKET {
            bucket.push(buf);
            arena.recycled += 1;
        }
    });
}

/// Cumulative recycling statistics for the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take_*` calls served from a free list.
    pub hits: u64,
    /// `take_*` calls that fell through to the allocator.
    pub misses: u64,
    /// Buffers accepted back into a free list.
    pub recycled: u64,
}

/// This thread's pool statistics (all zeros when the pool is disabled or
/// the thread never touched it).
pub fn stats() -> PoolStats {
    with_arena(|a| PoolStats {
        hits: a.hits,
        misses: a.misses,
        recycled: a.recycled,
    })
    .unwrap_or_default()
}

/// A pooled buffer that returns itself to the pool on drop. Used for
/// forward-pass state histories stashed inside backward closures.
pub struct PoolBuf {
    buf: Option<Vec<Scalar>>,
}

impl PoolBuf {
    /// Wraps an owned buffer for recycling on drop.
    pub fn new(buf: Vec<Scalar>) -> Self {
        PoolBuf { buf: Some(buf) }
    }
}

impl Deref for PoolBuf {
    type Target = [Scalar];

    fn deref(&self) -> &[Scalar] {
        self.buf.as_deref().expect("PoolBuf accessed after drop")
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            recycle(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        set_enabled(true);
        // An unusual length so other tests' buffers cannot interfere.
        let len = 12_347;
        let mut buf = take_uninit(len);
        buf[0] = 42.0;
        let before = stats();
        recycle(buf);
        let again = take_uninit(len);
        let after = stats();
        assert_eq!(again.len(), len);
        assert_eq!(after.recycled, before.recycled + 1);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn zeroed_and_copy_contents() {
        set_enabled(true);
        let len = 9_973;
        let mut buf = take_uninit(len);
        buf.fill(7.0);
        recycle(buf);
        assert!(take_zeroed(len).iter().all(|&v| v == 0.0));

        let src = [1.0, 2.0, 3.0];
        assert_eq!(take_copy(&src), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn filled_with_matches_collect() {
        let a = filled_with(5, |i| i as Scalar * 0.5);
        let b: Vec<Scalar> = (0..5).map(|i| i as Scalar * 0.5).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_pool_allocates_fresh_zeroed() {
        set_enabled(false);
        let len = 8_191;
        let mut buf = take_uninit(len);
        buf.fill(3.0);
        recycle(buf); // dropped, not retained
        assert!(take_uninit(len).iter().all(|&v| v == 0.0));
        set_enabled(true);
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_pooled() {
        set_enabled(true);
        recycle(Vec::new());
        let before = stats();
        assert_eq!(take_uninit(0).len(), 0);
        let after = stats();
        // Zero-length requests never touch the free lists.
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
    }

    #[test]
    fn poolbuf_derefs_and_recycles() {
        set_enabled(true);
        let len = 6_421;
        let wrapped = PoolBuf::new(filled_with(len, |i| i as Scalar));
        assert_eq!(wrapped[3], 3.0);
        let before = stats();
        drop(wrapped);
        assert_eq!(stats().recycled, before.recycled + 1);
    }
}
