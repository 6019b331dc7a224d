//! Load generators for the in-process serving workloads.
//!
//! - [`open_loop`]: one thread submits on a fixed schedule whatever the
//!   server does, another waits for answers in submission order. Latency
//!   is timed from each request's due time, so a stall that delays later
//!   submissions shows as latency on all of them; how late the generator
//!   itself ran is reported separately.
//! - [`closed_loop`]: one thread keeps a fixed number of requests
//!   outstanding, submitting a new one each time the oldest completes.
//!
//! Both are generic over what a request is: `submit` issues op `k` and
//! returns an in-flight handle (or a refusal, which counts as failed), and
//! `complete` waits on the handle, checks the answer, and returns how many
//! timesteps it completed (`None` on a failed or wrong answer).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::phase::PhaseCount;
use crate::stats::{self, Histogram};
use crate::trace::{Span, SpanLog};

/// A submitted request on its way to `complete`.
pub struct Sent<T> {
    pub op: u64,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    pub item: T,
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub phase: PhaseCount,
    /// Per-request latency in µs, from the due time (open loop only: a
    /// closed loop's latency is set by its window, and its sample count by
    /// its speed, which would make memory use vary with speed).
    pub latency_us: Histogram,
    /// Open loop: send time minus due time, µs.
    pub lateness_us: Histogram,
    pub timesteps: u64,
    pub elapsed: Duration,
    /// Open loop: how long the schedule ran (the phase's elapsed time also
    /// counts waiting for the last answers).
    pub scheduled: Duration,
    pub spans: Vec<Span>,
}

impl LoopStats {
    /// Requests completed per second over the phase.
    pub fn achieved_rate(&self) -> f64 {
        self.phase.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Several rounds of one phase as one: counts and times summed,
    /// samples and spans concatenated.
    pub fn pooled<'a>(rounds: impl IntoIterator<Item = &'a LoopStats>) -> LoopStats {
        let mut all = LoopStats::default();
        for r in rounds {
            all.phase.absorb(&r.phase);
            all.latency_us.merge(&r.latency_us);
            all.lateness_us.merge(&r.lateness_us);
            all.timesteps += r.timesteps;
            all.elapsed += r.elapsed;
            all.scheduled += r.scheduled;
            all.spans.extend_from_slice(&r.spans);
        }
        all
    }
}

/// Span names an op is traced under: the submit call and the wait for its
/// answer, both children of an `op` root.
#[derive(Debug, Clone, Copy)]
pub struct SpanNames {
    pub submit: &'static str,
    pub wait: &'static str,
}

fn record_op<T>(log: &mut SpanLog, names: SpanNames, s: &Sent<T>, done: Instant) {
    if log.keeps(s.op) {
        let root = log.root("op", s.op, s.start, done);
        log.record(names.submit, s.op, root, s.start, s.end);
        log.record(names.wait, s.op, root, s.end, done);
    }
}

/// Runs an open loop at `rate` requests per second for `duration`.
pub fn open_loop<T: Send>(
    rate: f64,
    duration: Duration,
    trace: ((bool, u64), Instant),
    names: SpanNames,
    mut submit: impl FnMut(u64) -> Result<T, ()>,
    mut complete: impl FnMut(Sent<T>) -> Option<u64> + Send,
) -> LoopStats {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent<T>>();
    let start = Instant::now();
    let (mut submitted, mut refused, mut lateness_us) = (0u64, 0u64, Histogram::default());
    let waiter = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut log = SpanLog::new(trace.0, trace.1, 1);
            let mut st = LoopStats::default();
            for s in rx {
                let (due, op) = (s.due, s.op);
                let probe = Sent {
                    op,
                    due,
                    start: s.start,
                    end: s.end,
                    item: (),
                };
                let steps = complete(s);
                let done = Instant::now();
                record_op(&mut log, names, &probe, done);
                st.phase.add(steps.is_some());
                if let Some(n) = steps {
                    st.timesteps += n;
                    st.latency_us
                        .record(stats::due_latency(due, done).as_secs_f64() * 1e6);
                }
            }
            st.spans = log.into_spans();
            st
        });
        let end = start + duration;
        for k in 0u64.. {
            let due = start + interval.mul_f64(k as f64);
            if due >= end {
                break;
            }
            // Sleep, never spin: a spinning generator would take one of the
            // machine's cores from the server. Requests that fell due while
            // asleep go out back to back, late by the timer's overshoot.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            lateness_us.record(stats::lateness(due, sent).as_secs_f64() * 1e6);
            match submit(k) {
                Ok(item) => {
                    submitted += 1;
                    let s = Sent {
                        op: k,
                        due,
                        start: sent,
                        end: Instant::now(),
                        item,
                    };
                    tx.send(s).expect("waiter outlives the submitter");
                }
                Err(()) => refused += 1,
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    let mut st = waiter;
    st.elapsed = start.elapsed();
    debug_assert_eq!(st.phase.sent, submitted);
    st.phase.sent += refused;
    st.phase.failed += refused;
    st.lateness_us = lateness_us;
    st.scheduled = duration;
    st
}

/// Runs a closed loop keeping `window` requests outstanding for
/// `duration`, on the calling thread.
pub fn closed_loop<T>(
    window: usize,
    duration: Duration,
    trace: ((bool, u64), Instant),
    names: SpanNames,
    mut submit: impl FnMut(u64) -> Result<T, ()>,
    mut complete: impl FnMut(Sent<T>) -> Option<u64>,
) -> LoopStats {
    let mut log = SpanLog::new(trace.0, trace.1, 2);
    let mut st = LoopStats::default();
    let mut inflight: VecDeque<Sent<T>> = VecDeque::with_capacity(window);
    let start = Instant::now();
    let end = start + duration;
    let mut next = 0u64;
    let mut issue = |inflight: &mut VecDeque<Sent<T>>, st: &mut LoopStats| {
        let op = next;
        next += 1;
        let t0 = Instant::now();
        match submit(op) {
            Ok(item) => inflight.push_back(Sent {
                op,
                due: t0,
                start: t0,
                end: Instant::now(),
                item,
            }),
            Err(()) => st.phase.add(false),
        }
    };
    for _ in 0..window {
        issue(&mut inflight, &mut st);
    }
    while let Some(s) = inflight.pop_front() {
        let (op, t0, t1) = (s.op, s.start, s.end);
        let steps = complete(s);
        let done = Instant::now();
        let probe = Sent {
            op,
            due: t0,
            start: t0,
            end: t1,
            item: (),
        };
        record_op(&mut log, names, &probe, done);
        st.phase.add(steps.is_some());
        st.timesteps += steps.unwrap_or(0);
        if done < end {
            issue(&mut inflight, &mut st);
        }
    }
    st.elapsed = start.elapsed();
    st.spans = log.into_spans();
    st
}

/// Which generator drives a phase.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Submit on a fixed schedule of `rate` requests per second.
    Open { rate: f64 },
    /// Keep `window` requests outstanding.
    Closed { window: usize },
}

/// Runs `lp` for `duration`; see [`open_loop`] and [`closed_loop`].
pub fn drive<T: Send>(
    lp: Loop,
    duration: Duration,
    trace: ((bool, u64), Instant),
    names: SpanNames,
    submit: impl FnMut(u64) -> Result<T, ()>,
    complete: impl FnMut(Sent<T>) -> Option<u64> + Send,
) -> LoopStats {
    match lp {
        Loop::Open { rate } => open_loop(rate, duration, trace, names, submit, complete),
        Loop::Closed { window } => closed_loop(window, duration, trace, names, submit, complete),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: SpanNames = SpanNames {
        submit: "t.submit",
        wait: "t.wait",
    };

    #[test]
    fn open_loop_keeps_schedule_and_counts_refusals() {
        let st = open_loop(
            2000.0,
            Duration::from_millis(100),
            ((true, 1), Instant::now()),
            NAMES,
            |k| if k % 10 == 9 { Err(()) } else { Ok(k) },
            |s| (s.item % 2 == 0).then_some(4),
        );
        // 200 due in 100 ms: the 20 ops k = 9 mod 10 are refused, and of
        // the 180 sent the 80 odd ones answer "wrong".
        assert_eq!(st.phase.sent, 200);
        assert_eq!(st.phase.failed, 20 + 80);
        assert_eq!(st.phase.ok, 100);
        assert_eq!(st.timesteps, 400);
        assert_eq!(st.lateness_us.len(), 200);
        assert_eq!(st.latency_us.len(), 100);
        assert_eq!(st.spans.len(), 3 * 180);
        assert_eq!(st.scheduled, Duration::from_millis(100));
        assert!(st.elapsed >= Duration::from_millis(99));
    }

    #[test]
    fn closed_loop_keeps_window() {
        let mut outstanding = 0usize;
        let mut peak = 0usize;
        let cell = std::cell::Cell::new(0usize);
        let st = closed_loop(
            8,
            Duration::from_millis(50),
            ((false, 1), Instant::now()),
            NAMES,
            |_| {
                cell.set(cell.get() + 1);
                Ok(())
            },
            |_| {
                outstanding = cell.get();
                peak = peak.max(outstanding);
                cell.set(cell.get() - 1);
                std::thread::sleep(Duration::from_micros(200));
                Some(2)
            },
        );
        assert_eq!(peak, 8);
        assert_eq!(st.phase.failed, 0);
        assert_eq!(st.timesteps, 2 * st.phase.ok);
        assert!(st.latency_us.is_empty());
        assert!(st.spans.is_empty());
    }
}
