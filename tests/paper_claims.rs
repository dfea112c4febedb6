//! The paper's headline claims, asserted as integration tests. Each test
//! names the claim and the section it comes from; together they are the
//! "does the reproduction hold" checklist of EXPERIMENTS.md.

use rand::SeedableRng;
use solarml::energy::corpus::{gesture_sensing_corpus, inference_corpus_banded};
use solarml::energy::device::{GestureSensingGround, InferenceGround};
use solarml::energy::models::{LayerwiseMacModel, TotalMacModel};
use solarml::mcu::McuPowerModel;
use solarml::nn::{ArchSampler, LayerClass};
use solarml::platform::lifecycle::DutyCycleConfig;
use solarml::platform::{
    harvesting_time, solarml_detector_spec, EndToEndBudget, HarvestScenario, REFERENCE_DETECTORS,
};
use solarml::trace::{mean_absolute_percent_error, r_squared};
use solarml::units::{Frequency, Lux};
use solarml::{Energy, Seconds};

/// §V-B / Table III: the passive detector reduces event-detection energy by
/// up to 10× against SolarGest and responds in milliseconds.
#[test]
fn claim_detector_ten_times_cheaper() {
    let solarml = solarml_detector_spec();
    let wait = Seconds::new(5.0);
    let ours = solarml.wait_and_detect_energy(wait);
    let solargest = REFERENCE_DETECTORS[2].wait_and_detect_energy(wait);
    assert!(
        solargest / ours > 5.0,
        "expected ~10x vs SolarGest, got {:.1}x",
        solargest / ours
    );
    assert!(solarml.response_time_ms.1 < 25.0, "ms-scale response");
    assert!(
        (1.0..5.0).contains(&solarml.standby.as_micro_watts()),
        "≈2 µW standby"
    );
}

/// §II / Fig. 2: with one-minute sleep, inference is only ~15–18 % of total
/// energy; sensing dominates.
#[test]
fn claim_inference_is_minority_of_total_energy() {
    let (_, b) = DutyCycleConfig {
        sleep: Seconds::from_minutes(1.0),
        task: solarml::platform::TaskProfile::reference_gesture(),
        mcu: McuPowerModel::default(),
        trace_rate: Frequency::new(1000.0),
    }
    .run()
    .expect("duty cycle runs");
    let (fe, fs, fm) = b.fractions();
    let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
    assert!(fm < 0.25, "E_M fraction {fm:.2} should be a minority");
    assert!(fs > fm, "sensing should dominate inference");
    assert!(fe > 0.2, "waiting must be a material cost at 1-min sleep");
}

/// §IV-A / Table I: the layer-wise MAC model fits far better than the
/// total-MACs proxy.
#[test]
fn claim_layerwise_model_dominates_total_macs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1A13);
    let sampler = ArchSampler::for_measurement([20, 9, 1], 10);
    let ground = InferenceGround::default();
    let band = Some((20_000, 400_000));
    let (train, _) = inference_corpus_banded(300, &ground, &sampler, band, &mut rng);
    let (test, specs) = inference_corpus_banded(60, &ground, &sampler, band, &mut rng);
    let mut layerwise = LayerwiseMacModel::new();
    layerwise.fit(&train);
    let mut total = TotalMacModel::new();
    total.fit(&train);
    let lw: Vec<f64> = specs
        .iter()
        .map(|s| layerwise.estimate(s).as_micro_joules())
        .collect();
    let tm: Vec<f64> = specs
        .iter()
        .map(|s| total.estimate(s).as_micro_joules())
        .collect();
    let r2_lw = r_squared(&test.true_uj, &lw);
    let r2_tm = r_squared(&test.true_uj, &tm);
    assert!(r2_lw > 0.9, "layer-wise R² {r2_lw:.3} (paper 0.96)");
    assert!(
        r2_tm < r2_lw - 0.15,
        "total-MACs must trail clearly: {r2_tm:.3}"
    );

    // Fig. 9: the eNAS model roughly halves estimation error vs the proxy.
    let err_lw = mean_absolute_percent_error(&test.true_uj, &lw);
    let err_tm = mean_absolute_percent_error(&test.true_uj, &tm);
    assert!(
        err_lw * 1.5 < err_tm,
        "err {err_lw:.1}% vs proxy {err_tm:.1}%"
    );
}

/// §IV-A2 / Fig. 9(a): the sensing energy model's average error is a few
/// percent.
#[test]
fn claim_sensing_model_error_is_small() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1A14);
    let ground = GestureSensingGround::default();
    let (train, _) = gesture_sensing_corpus(300, &ground, &mut rng);
    let (test, configs) = gesture_sensing_corpus(60, &ground, &mut rng);
    let mut model = solarml::energy::models::GestureSensingModel::new();
    model.fit(&train);
    let preds: Vec<f64> = configs
        .iter()
        .map(|p| model.estimate(p).as_micro_joules())
        .collect();
    let err = mean_absolute_percent_error(&test.true_uj, &preds);
    assert!(err < 6.0, "sensing error {err:.1}% (paper 3.1%)");
}

/// Fig. 7: a Conv MAC costs ≈3.5× a Dense MAC on the device.
#[test]
fn claim_conv_mac_costs_more_than_dense_mac() {
    let ratio = solarml::energy::device::energy_per_mac(LayerClass::Conv)
        / solarml::energy::device::energy_per_mac(LayerClass::Dense);
    assert!(
        (3.0..4.0).contains(&ratio),
        "Conv/Dense = {ratio:.2} (paper 3.5)"
    );
}

/// §V-D: end-to-end savings vs the PS+µNAS baseline land in the paper's
/// tens-of-percent regime, and harvesting times order with light level.
#[test]
fn claim_end_to_end_savings_and_harvest_ordering() {
    // Representative winners from our device calibration.
    let solarml_budget = EndToEndBudget::solarml(
        Energy::from_micro_joules(2100.0),
        Energy::from_micro_joules(350.0),
        Seconds::new(5.0),
    );
    let baseline = EndToEndBudget::ps_baseline(
        Energy::from_micro_joules(2700.0),
        Energy::from_micro_joules(600.0),
        Seconds::new(5.0),
    );
    let saving = solarml_budget.saving_vs(&baseline).get();
    assert!((0.2..0.8).contains(&saving), "saving {saving:.2}");

    let [dim, office, window] = HarvestScenario::paper_conditions();
    let budget = Energy::from_micro_joules(6660.0); // the paper's digit budget
    let td = harvesting_time(budget, &dim);
    let to = harvesting_time(budget, &office);
    let tw = harvesting_time(budget, &window);
    assert!(tw < to && to < td);
    // Paper: 31 s at 500 lux, 19 s at 1000 lux for this budget.
    assert!(
        (20.0..45.0).contains(&to.as_seconds()),
        "office-time {to} for the paper's budget"
    );
    assert!(
        (12.0..28.0).contains(&tw.as_seconds()),
        "window-time {tw} for the paper's budget"
    );
}

/// §III-B2: the weak-light lockout keeps the platform off in near-darkness.
#[test]
fn claim_weak_light_lockout() {
    use solarml::circuit::env::Illumination;
    use solarml::circuit::event::EventDetector;
    use solarml::units::{Ratio, Volts};
    let mut det = EventDetector::default();
    let dark = Illumination {
        ambient: Lux::new(3.0),
        event_cell_shading: Ratio::ONE, // even a hover…
    };
    det.settle(dark, Volts::new(3.0));
    let mut connected = false;
    for _ in 0..3000 {
        let out = det.step(
            Seconds::from_millis(1.0),
            dark,
            Volts::ZERO,
            true,
            Volts::new(3.0),
        );
        connected |= out.mcu_connected;
    }
    assert!(!connected, "…must not wake the platform at 3 lux");
}
