//! Bit-identity goldens for the searches `search_golden.rs` does not pin:
//! µNAS, the HarvNet-style ratio search, random search, and eNAS's two
//! ablations (the total-MACs energy proxy and model-only evolution).
//!
//! Each test runs one search on the tiny gesture context and digests every
//! history entry (candidate, cycle, and the bits of accuracy, estimated and
//! true energy, plus feasibility), the reported best, and the bits of the
//! energy envelope. A change to a search's RNG order, tournament, aging rule,
//! energy override or envelope moves the digest.

use solarml_dsp::{GestureSensingParams, Resolution};
use solarml_nas::{
    run_enas, run_harvnet_style, run_munas, run_random_search, EnasConfig, EnergyProxy, Evaluated,
    MunasConfig, SearchOutcome, SensingConfig, TaskContext,
};
use solarml_nn::TrainConfig;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn evaluated(&mut self, e: &Evaluated) {
        self.bytes(e.candidate.to_string().as_bytes());
        self.u64(e.cycle as u64);
        self.u64(e.accuracy.to_bits());
        self.u64(e.estimated_energy.as_joules().to_bits());
        self.u64(e.true_energy.as_joules().to_bits());
        self.u64(u64::from(e.meets_accuracy));
    }
}

fn digest(outcome: &SearchOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in &outcome.history {
        h.evaluated(e);
    }
    h.evaluated(&outcome.best);
    h.u64(outcome.energy_envelope.0.as_joules().to_bits());
    h.u64(outcome.energy_envelope.1.as_joules().to_bits());
    h.0
}

fn ctx() -> TaskContext {
    let mut ctx = TaskContext::gesture(4, 11);
    ctx.train_config = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    ctx
}

fn baseline_config() -> MunasConfig {
    MunasConfig {
        seed: 0xBA5E,
        workers: 2,
        ..MunasConfig::quick()
    }
}

fn enas(config: EnasConfig) -> u64 {
    digest(&run_enas(
        &ctx(),
        &EnasConfig {
            workers: 2,
            ..config
        },
    ))
}

#[test]
fn munas_search_is_pinned() {
    let sensing = SensingConfig::Gesture(
        GestureSensingParams::new(6, 60, Resolution::Int, 8).expect("valid"),
    );
    let config = MunasConfig {
        workers: 2,
        ..MunasConfig::quick()
    };
    let got = digest(&run_munas(&ctx(), sensing, &config));
    assert_eq!(got, 0xa29b_9f6b_c946_1bba, "µNAS digest {got:#018x}");
}

#[test]
fn harvnet_style_search_is_pinned() {
    let got = digest(&run_harvnet_style(&ctx(), &baseline_config()));
    assert_eq!(
        got, 0x7e84_c366_ad5b_4ddd,
        "HarvNet-style digest {got:#018x}"
    );
}

#[test]
fn random_search_is_pinned() {
    let got = digest(&run_random_search(&ctx(), &baseline_config()));
    assert_eq!(
        got, 0x59e3_5c8c_6c1f_15a7,
        "random search digest {got:#018x}"
    );
}

#[test]
fn enas_total_macs_ablation_is_pinned() {
    let got = enas(EnasConfig {
        energy_proxy: EnergyProxy::TotalMacs,
        ..EnasConfig::quick(0.5)
    });
    assert_eq!(
        got, 0x0d44_48e5_40cc_cb75,
        "eNAS total-MACs digest {got:#018x}"
    );
}

#[test]
fn enas_model_only_ablation_is_pinned() {
    let got = enas(EnasConfig {
        grid_period: 0,
        ..EnasConfig::quick(0.5)
    });
    assert_eq!(
        got, 0x1a55_6c0d_1cd2_0a61,
        "eNAS model-only digest {got:#018x}"
    );
}
