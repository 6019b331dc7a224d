//! Architecture search over printed temporal networks — the paper's stated
//! future work ("new architectural search methodologies for ADAPT-pNCs",
//! §V).
//!
//! The search space is small and hardware-meaningful: hidden width × filter
//! order. Each candidate trains briefly and is scored on the validation split
//! under the paper's combined robustness condition; device count and static
//! power are reported alongside so a designer can pick a point on the
//! accuracy/hardware Pareto front.

use ptnc_datasets::DataSplit;

use crate::eval::{evaluate_with_runner, EvalCondition};
use crate::hardware::{count_devices, DeviceCount};
use crate::models::FilterOrder;
use crate::parallel::ParallelRunner;
use crate::power::model_power;
use crate::training::{train_with_runner, TrainConfig};
use crate::variation::VariationConfig;

/// The candidate grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Hidden widths to try.
    pub hidden: Vec<usize>,
    /// Filter orders to try.
    pub orders: Vec<FilterOrder>,
}

impl SearchSpace {
    /// A compact default grid around the paper's operating point.
    pub fn compact() -> Self {
        SearchSpace {
            hidden: vec![4, 6, 8],
            orders: vec![FilterOrder::First, FilterOrder::Second, FilterOrder::Third],
        }
    }

    /// Number of candidates.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.hidden.len() * self.orders.len()
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Hidden width.
    pub hidden: usize,
    /// Filter order.
    pub order: FilterOrder,
    /// Validation accuracy under the robustness condition.
    pub score: f64,
    /// Device bill of the trained circuit.
    pub devices: DeviceCount,
    /// Static power of the trained circuit (W).
    pub power: f64,
}

impl Candidate {
    /// True when `other` is at least as good on both axes and strictly better
    /// on one (Pareto dominance: higher score, fewer devices).
    pub fn dominated_by(&self, other: &Candidate) -> bool {
        let geq = other.score >= self.score && other.devices.total() <= self.devices.total();
        let strict = other.score > self.score || other.devices.total() < self.devices.total();
        geq && strict
    }
}

/// Exhaustively evaluates the search space, fanning each candidate's
/// Monte-Carlo work out through `runner`. Returns all candidates in grid
/// order plus the index of the accuracy-best one.
///
/// # Panics
///
/// Panics if the space is empty.
pub fn architecture_search(
    split: &DataSplit,
    space: &SearchSpace,
    epochs: usize,
    seed: u64,
    runner: &ParallelRunner,
) -> (Vec<Candidate>, usize) {
    assert!(space.len() > 0, "empty search space");
    let condition = EvalCondition::VariationAndPerturbed {
        config: VariationConfig::paper_default(),
        trials: 3,
        strength: 0.5,
    };
    let mut candidates = Vec::with_capacity(space.len());
    let mut best = 0;
    for &hidden in &space.hidden {
        for &order in &space.orders {
            let cfg = TrainConfig::adapt_pnc(hidden)
                .with_epochs(epochs)
                .to_builder()
                .filter_order(order)
                .build();
            let trained = train_with_runner(split, &cfg, seed, runner);
            let score = evaluate_with_runner(&trained.model, &split.val, &condition, seed, runner);
            let candidate = Candidate {
                hidden,
                order,
                score,
                devices: count_devices(&trained.model),
                power: model_power(&trained.model, &cfg.pdk).total(),
            };
            if candidate.score
                > candidates
                    .get(best)
                    .map_or(f64::NEG_INFINITY, |c: &Candidate| c.score)
            {
                best = candidates.len();
            }
            candidates.push(candidate);
        }
    }
    (candidates, best)
}

/// Filters a candidate list down to its accuracy/device Pareto front,
/// preserving order.
pub fn pareto_front(candidates: &[Candidate]) -> Vec<Candidate> {
    candidates
        .iter()
        .filter(|c| !candidates.iter().any(|other| c.dominated_by(other)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::prepare_split;
    use ptnc_datasets::all_specs;

    fn candidate(score: f64, devices: usize) -> Candidate {
        Candidate {
            hidden: 4,
            order: FilterOrder::First,
            score,
            devices: DeviceCount {
                transistors: 0,
                resistors: devices,
                capacitors: 0,
            },
            power: 1e-4,
        }
    }

    #[test]
    fn dominance_rules() {
        let weak = candidate(0.6, 100);
        let strong = candidate(0.8, 80);
        assert!(weak.dominated_by(&strong));
        assert!(!strong.dominated_by(&weak));
        // Trade-off points do not dominate each other.
        let cheap = candidate(0.5, 50);
        assert!(!cheap.dominated_by(&weak));
        assert!(!weak.dominated_by(&cheap));
    }

    #[test]
    fn pareto_front_removes_dominated() {
        let list = vec![candidate(0.6, 100), candidate(0.8, 80), candidate(0.5, 50)];
        let front = pareto_front(&list);
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|c| c.score != 0.6));
    }

    #[test]
    fn tiny_search_runs() {
        let spec = all_specs().iter().find(|s| s.name == "Slope").unwrap();
        let split = prepare_split(spec, 0);
        let space = SearchSpace {
            hidden: vec![3],
            orders: vec![FilterOrder::First, FilterOrder::Second],
        };
        let (candidates, best) =
            architecture_search(&split, &space, 5, 0, &ParallelRunner::default());
        assert_eq!(candidates.len(), 2);
        assert!(best < 2);
        // Second-order must cost more capacitors at equal width.
        assert!(candidates[1].devices.capacitors > candidates[0].devices.capacitors);
        assert!(candidates.iter().all(|c| (0.0..=1.0).contains(&c.score)));
    }

    #[test]
    fn compact_space_has_nine_points() {
        assert_eq!(SearchSpace::compact().len(), 9);
    }
}
