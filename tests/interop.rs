//! Cross-crate interoperability: persistence, the SPICE netlist parser, the
//! trapezoidal integrator, CSV datasets and classification metrics working
//! together through public APIs only.

use adapt_pnc::eval::dataset_to_steps;
use adapt_pnc::persist;
use adapt_pnc::prelude::*;
use ptnc_datasets::csv::{from_csv, to_csv};
use ptnc_datasets::preprocess::Preprocess;
use ptnc_nn::metrics::ConfusionMatrix;
use ptnc_spice::{parse_netlist, DcAnalysis, Integrator, TransientAnalysis};
use ptnc_tensor::init;

/// A CSV-sourced dataset flows through preprocessing, training and metrics.
#[test]
fn csv_to_confusion_matrix_pipeline() {
    // Synthesize a separable 2-class CSV in UCR layout.
    let mut csv = String::new();
    let mut rng = init::rng(0);
    for i in 0..60 {
        let label = i % 2;
        let vals: Vec<String> = (0..48)
            .map(|k| {
                let t = k as f64 / 47.0;
                let signal = if label == 0 { t } else { 1.0 - t };
                format!(
                    "{}",
                    signal + 0.1 * ptnc_tensor::init::normal_sample(&mut rng)
                )
            })
            .collect();
        csv.push_str(&format!("{label},{}\n", vals.join(",")));
    }
    let ds = Preprocess::paper_default().apply(&from_csv("ramps", &csv).unwrap());
    let split = ds.shuffle_split(0.6, 0.2, 0);
    let trained = train(&split, &TrainConfig::baseline_ptpnc(4).with_epochs(60), 0);

    let (steps, labels) = dataset_to_steps(&split.test);
    let cm = ConfusionMatrix::from_logits(&trained.model.forward_nominal(&steps), &labels);
    assert!(
        cm.accuracy() > 0.8,
        "ramp task should be easy: {}",
        cm.accuracy()
    );
    assert!(!cm.is_degenerate());
    assert!(cm.macro_f1() > 0.75);

    // And the CSV writer round-trips the dataset.
    let round = from_csv("ramps", &to_csv(&ds)).unwrap();
    assert_eq!(round.len(), ds.len());
}

/// A trained model survives the persistence round trip and still scores the
/// same under the paper's randomized test condition (same seed).
#[test]
fn persisted_model_scores_identically() {
    let spec = ptnc_datasets::all_specs()
        .iter()
        .find(|s| s.name == "Slope")
        .unwrap();
    let split = adapt_pnc::experiments::prepare_split(spec, 0);
    let trained = train(&split, &TrainConfig::adapt_pnc(4).with_epochs(20), 0);
    let restored = persist::from_json(&persist::to_json(&trained.model)).unwrap();

    let cond = adapt_pnc::eval::EvalCondition::paper_test();
    let a = evaluate(&trained.model, &split.test, &cond, 9);
    let b = evaluate(&restored, &split.test, &cond, 9);
    assert_eq!(a, b);
}

/// The SPICE parser, both integrators and the DC solver agree on a printed
/// RC column described as netlist text.
#[test]
fn parsed_netlist_transient_consistency() {
    let src = "\
* printed filter column driven by a step
V1 in 0 PULSE(0 1 0 10)   ; effectively a step for the 0.9 s window
R1 in mid 800
C1 mid 0 100u
R2 mid out 800
C2 out 0 100u
.end
";
    let parsed = parse_netlist(src).unwrap();
    let out = parsed.node("out").unwrap();
    let be = TransientAnalysis::new(&parsed.circuit)
        .run(0.9, 1e-3)
        .unwrap();
    let trap = TransientAnalysis::new(&parsed.circuit)
        .integrator(Integrator::Trapezoidal)
        .run(0.9, 1e-3)
        .unwrap();
    // Two integrators agree at this resolution.
    let diff = be
        .voltage(out)
        .iter()
        .zip(trap.voltage(out))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 5e-3, "integrator disagreement {diff}");
    // And the response is rising toward 1 V.
    assert!(be.final_voltage(out).unwrap() > 0.9);
}

/// The parser accepts the exact netlist `export_column` would describe, and
/// the DC solutions of builder-made and text-made circuits agree.
#[test]
fn text_and_builder_circuits_agree() {
    let src = "\
V1 a 0 DC 1.0
R1 a b 150k
R2 b 0 330k
";
    let parsed = parse_netlist(src).unwrap();
    let b_node = parsed.node("b").unwrap();
    let from_text = DcAnalysis::new(&parsed.circuit)
        .solve()
        .unwrap()
        .voltage(b_node);

    let mut built = ptnc_spice::Circuit::new();
    let a = built.node("a");
    let b = built.node("b");
    built.vsource(
        a,
        ptnc_spice::Circuit::GROUND,
        ptnc_spice::Waveform::Dc(1.0),
    );
    built.resistor(a, b, 150e3);
    built.resistor(b, ptnc_spice::Circuit::GROUND, 330e3);
    let from_builder = DcAnalysis::new(&built).solve().unwrap().voltage(b);

    assert!((from_text - from_builder).abs() < 1e-12);
    assert!((from_text - 330.0 / 480.0).abs() < 1e-9);
}

/// Architecture search results persist coherently: the best candidate can be
/// retrained and snapshotted.
#[test]
fn search_winner_round_trips() {
    use adapt_pnc::search::{architecture_search, SearchSpace};
    let spec = ptnc_datasets::all_specs()
        .iter()
        .find(|s| s.name == "GPOVY")
        .unwrap();
    let split = adapt_pnc::experiments::prepare_split(spec, 0);
    let space = SearchSpace {
        hidden: vec![3],
        orders: vec![adapt_pnc::models::FilterOrder::Second],
    };
    let (candidates, best) = architecture_search(&split, &space, 8, 0, &Default::default());
    let cfg = TrainConfig::adapt_pnc(candidates[best].hidden)
        .with_epochs(8)
        .to_builder()
        .filter_order(candidates[best].order)
        .build();
    let trained = train(&split, &cfg, 0);
    let json = persist::to_json(&trained.model);
    assert!(persist::from_json(&json).is_ok());
}

/// Multivariate support end-to-end: a 2-channel printed model trains on the
/// cold-chain fusion task, which needs both sensors to decode.
#[test]
fn multivariate_cold_chain_trains() {
    use adapt_pnc::eval::multi_dataset_to_steps;
    use ptnc_datasets::multivariate::cold_chain;
    use ptnc_nn::{cross_entropy, AdamW};

    let mut rng = init::rng(5);
    let ds = cold_chain(&mut rng, 60, 64).normalized();
    let (train_set, test_set) = ds.split(0.75, 0);
    let (train_steps, train_labels) = multi_dataset_to_steps(&train_set);
    let (test_steps, test_labels) = multi_dataset_to_steps(&test_set);

    let model = adapt_pnc::models::PrintedModel::adapt_pnc(2, 6, 2, &mut rng);
    let mut opt = AdamW::new(model.parameters(), 0.01);
    let pdk = Pdk::paper_default();
    for _ in 0..120 {
        opt.zero_grad();
        cross_entropy(&model.forward_nominal(&train_steps), &train_labels).backward();
        opt.step();
        model.project(&pdk);
    }
    let acc = ptnc_nn::accuracy(&model.forward_nominal(&test_steps), &test_labels);
    assert!(acc > 0.75, "multivariate fusion accuracy {acc}");
}
