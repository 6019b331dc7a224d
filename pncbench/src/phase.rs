//! Per-phase bookkeeping: named counters read before and after a phase
//! (their difference is what the phase did, whatever ran before it), the
//! ops a phase sent / completed / failed, and the checks that tie the two
//! together.

use std::collections::BTreeMap;

/// A reading of named monotonic counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn set(&mut self, key: &'static str, value: u64) {
        self.0.insert(key, value);
    }

    /// The counter `key` (0 when never set).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Adds `other`'s counters into `self` (pooling phases).
    pub fn merge(&mut self, other: &Counters) {
        for (&k, &v) in &other.0 {
            *self.0.entry(k).or_default() += v;
        }
    }

    /// What happened between `before` and `self`: the per-key difference.
    ///
    /// # Panics
    ///
    /// When a counter went backwards, which means the two readings are not
    /// of the same counters.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut out = Counters::default();
        for (&k, &v) in &self.0 {
            let b = before.get(k);
            assert!(v >= b, "counter `{k}` went backwards: {b} -> {v}");
            out.set(k, v - b);
        }
        out
    }
}

/// What one phase sent, completed and failed. Refused submissions
/// (backpressure, a busy session) count as failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseCount {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl PhaseCount {
    /// Accounts one op by its outcome.
    pub fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Merges another tally of the same phase (another thread's share).
    pub fn absorb(&mut self, other: &PhaseCount) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// Checks that the server batched exactly one lane per op the phase saw
/// complete: more lanes than ops means work leaked in from outside the
/// phase; fewer means answers came from somewhere other than a batch.
///
/// # Errors
///
/// A message naming the phase and both counts.
pub fn check_lanes(phase: &str, delta: &Counters, ops_completed: u64) -> Result<(), String> {
    let lanes = delta.get("serve.lanes");
    if lanes == ops_completed {
        Ok(())
    } else {
        Err(format!(
            "{phase}: server batched {lanes} lanes for {ops_completed} completed ops"
        ))
    }
}

/// Totals across phases: `(attempted, failed)`.
pub fn totals(phases: &[PhaseCount]) -> (u64, u64) {
    phases
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.sent, f + p.failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(batches: u64, lanes: u64) -> Counters {
        let mut c = Counters::default();
        c.set("serve.batches", batches);
        c.set("serve.lanes", lanes);
        c
    }

    #[test]
    fn deltas_isolate_the_phase() {
        // Warm-up traffic before the phase must not be charged to it.
        let before = reading(10, 200);
        let after = reading(60, 1800);
        let d = after.since(&before);
        assert_eq!(d.get("serve.batches"), 50);
        assert_eq!(d.get("serve.lanes"), 1600);
        assert_eq!(d.get("absent"), 0);
        assert!(check_lanes("a", &d, 1600).is_ok());
        let err = check_lanes("a", &d, 1599).unwrap_err();
        assert!(err.contains("1600 lanes for 1599"), "{err}");
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn backwards_counter_is_a_bug() {
        reading(5, 5).since(&reading(6, 6));
    }

    #[test]
    fn phase_tallies_and_totals() {
        let mut a = PhaseCount::default();
        a.add(true);
        a.add(false);
        let mut b = PhaseCount::default();
        b.add(true);
        a.absorb(&b);
        assert_eq!((a.sent, a.ok, a.failed), (3, 2, 1));
        let mut c = PhaseCount::default();
        c.add(true);
        assert_eq!(totals(&[a, c]), (4, 1));
        let mut m = reading(1, 2);
        m.merge(&reading(3, 4));
        assert_eq!(m, reading(4, 6));
    }
}
