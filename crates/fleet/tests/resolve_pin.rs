//! Byte pins for node resolution: the content keys of the CLI-default
//! population, every field of the configs its nodes build, and the light
//! profiles of the three environment generators (window sky, office,
//! home).
//!
//! Every store entry, checkpoint and golden report downstream is a
//! function of these bits, so a refactor of how a node's light is drawn
//! must leave these digests unmoved.

use solarml_fleet::{NodeDayTask, PopulationSpec, FLEET_SEED_CYCLE};
use solarml_platform::{CheckpointPolicy, IntermittentConfig};
use solarml_scenario::{registry, Scenario};
use solarml_trace::seed::derive_seed;
use solarml_trace::{fnv1a64, KeyHasher};

/// FNV-1a over the little-endian keys of representative nodes `0..1024`
/// at campaign seed 7, in node order. Re-pinned when `STORE_VERSION` went
/// to 3 (word-at-a-time content keys), when `SIM_FINGERPRINT`, which
/// every key folds, went to `v3`, `v4`, `v5` and `v6`, and when
/// `STORE_VERSION` went to 4 (keys over each node's draw record, not its
/// built config).
const REPRESENTATIVE_KEY_DIGEST: u64 = 0x8ae1_6110_7c05_05d3;

/// [`KeyHasher`] over the env index, policy index and every config word
/// ([`hash_config`]) of representative nodes `0..1024` at campaign seed 7,
/// then nodes `0..8` of each shipped scenario on the representative
/// population, in that order. Pinned while content keys still walked the
/// built config, so it holds every config to the bits those keys named.
const REPRESENTATIVE_CONFIG_DIGEST: u64 = 0x780e_16de_c682_57a8;

/// Per `(script, seed)`: FNV-1a over the profile's 24 `lux_by_hour` bit
/// patterns.
const PROFILE_DIGESTS: [(&str, u64, u64); 6] = [
    (
        "sky_markov(lat: 48 deg, doy: 172)",
        5,
        0xcf33_2b43_0ceb_dc3e,
    ),
    (
        "sky_markov(lat: 48 deg, doy: 172)",
        6,
        0xd8d5_970a_42ea_8bbc,
    ),
    ("office(peak: 400 lux)", 3, 0xb937_8f9f_5f85_27f0),
    ("office(peak: 400 lux)", 4, 0x4299_d302_520b_d865),
    ("home(peak: 300 lux)", 11, 0x86d0_c4e0_22a0_7b82),
    ("home(peak: 300 lux)", 12, 0x4f7f_a92e_79fe_4cf8),
];

#[test]
fn representative_content_keys_are_pinned() {
    let spec = PopulationSpec::representative();
    let mut keys = Vec::new();
    let mut buckets = [0usize; 3];
    for node in 0..1024 {
        let seed = derive_seed(7, FLEET_SEED_CYCLE, node);
        keys.extend(NodeDayTask::resolve(&spec, node, seed).key().to_le_bytes());
        buckets[spec.node_blueprint(seed).env_index] += 1;
    }
    let digest = fnv1a64(&keys);
    assert!(
        buckets.iter().all(|&n| n > 0),
        "all three environments must be covered: {buckets:?}"
    );
    assert_eq!(
        digest, REPRESENTATIVE_KEY_DIGEST,
        "representative content keys moved: {digest:#018x}"
    );
}

#[test]
fn environment_profiles_are_pinned() {
    for (src, seed, pinned) in PROFILE_DIGESTS {
        let profile = Scenario::parse(src).expect("parses").eval(seed).profile;
        let bits: Vec<u8> = profile
            .lux_by_hour
            .iter()
            .flat_map(|lux| lux.to_bits().to_le_bytes())
            .collect();
        let digest = fnv1a64(&bits);
        assert_eq!(
            digest, pinned,
            "`{src}` at seed {seed} moved: {digest:#018x}"
        );
    }
}

/// Content keys hash a node's draw record, not the config built from it,
/// so this digest is what notices a generator, preset or draw-to-config
/// change that moves a built config.
#[test]
fn built_node_configs_are_pinned() {
    let mut h = KeyHasher::new();
    let mut fold = |spec: &PopulationSpec, node: usize| {
        let blueprint = spec.node_blueprint(derive_seed(7, FLEET_SEED_CYCLE, node));
        h.write_u64(blueprint.env_index as u64);
        h.write_u64(blueprint.policy_index as u64);
        hash_config(&mut h, &blueprint.config);
    };
    let spec = PopulationSpec::representative();
    for node in 0..1024 {
        fold(&spec, node);
    }
    for entry in registry::all() {
        let mut spec = PopulationSpec::representative();
        spec.scenario = Some(entry.scenario.clone());
        for node in 0..8 {
            fold(&spec, node);
        }
    }
    let digest = h.finish();
    assert_eq!(
        digest, REPRESENTATIVE_CONFIG_DIGEST,
        "built node configs moved ({digest:#018x}): content keys do not walk \
         the config, so bump `SIM_FINGERPRINT` before re-pinning this digest"
    );
}

/// Folds every field of a built [`IntermittentConfig`] into `h`, one word
/// per field, in declaration order, floats by bit pattern,
/// variable-length sequences length-prefixed (so `[a] ++ [b]` never
/// aliases `[a, b]`).
fn hash_config(h: &mut KeyHasher, cfg: &IntermittentConfig) {
    // base: DaySimConfig
    for lux in &cfg.base.profile.lux_by_hour {
        h.write_f64_bits(lux.to_bits());
    }
    h.write_f64_bits(cfg.base.budget_per_inference.value().to_bits());
    h.write_u64(cfg.base.interactions.len() as u64);
    for t in &cfg.base.interactions {
        h.write_f64_bits(t.value().to_bits());
    }
    h.write_f64_bits(cfg.base.capacitance.value().to_bits());
    h.write_f64_bits(cfg.base.initial_voltage.value().to_bits());
    h.write_f64_bits(cfg.base.inference_threshold.value().to_bits());
    h.write_f64_bits(cfg.base.standby_power.value().to_bits());
    // faults: FaultPlan
    h.write_u64(cfg.faults.clouds.len() as u64);
    for c in &cfg.faults.clouds {
        h.write_f64_bits(c.at.value().to_bits());
        h.write_f64_bits(c.duration.value().to_bits());
        h.write_f64_bits(c.depth.get().to_bits());
        h.write_f64_bits(c.ramp.value().to_bits());
    }
    h.write_u64(cfg.faults.outages.len() as u64);
    for o in &cfg.faults.outages {
        h.write_f64_bits(o.at.value().to_bits());
        h.write_f64_bits(o.duration.value().to_bits());
    }
    h.write_f64_bits(cfg.faults.degradation.capacity_factor.get().to_bits());
    h.write_f64_bits(cfg.faults.degradation.esr_scale.get().to_bits());
    // thresholds: BrownoutThresholds
    h.write_f64_bits(cfg.thresholds.warn.value().to_bits());
    h.write_f64_bits(cfg.thresholds.brownout.value().to_bits());
    h.write_f64_bits(cfg.thresholds.hysteresis.value().to_bits());
    // plan: PhasePlan
    h.write_f64_bits(cfg.plan.sense_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.sense_power.value().to_bits());
    h.write_f64_bits(cfg.plan.process_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.process_power.value().to_bits());
    h.write_f64_bits(cfg.plan.infer_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.infer_power.value().to_bits());
    // ladder: DegradationLadder
    let rungs = cfg.ladder.rungs();
    h.write_u64(rungs.len() as u64);
    for rung in rungs {
        h.write_bytes(rung.name.as_bytes());
        h.write_f64_bits(rung.sense_scale.get().to_bits());
        h.write_f64_bits(rung.infer_scale.get().to_bits());
        h.write_f64_bits(rung.accuracy_proxy.get().to_bits());
    }
    // checkpoint policy + cost model
    h.write_u64(match cfg.checkpoint {
        CheckpointPolicy::None => 0,
        CheckpointPolicy::Volatile => 1,
        CheckpointPolicy::Retained => 2,
    });
    h.write_f64_bits(cfg.checkpoint_costs.save_energy.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.save_duration.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.restore_energy.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.restore_duration.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.retention_power.value().to_bits());
    // mcu: McuPowerModel
    h.write_f64_bits(cfg.mcu.rail_voltage.value().to_bits());
    h.write_f64_bits(cfg.mcu.deep_sleep.value().to_bits());
    h.write_f64_bits(cfg.mcu.standby.value().to_bits());
    h.write_f64_bits(cfg.mcu.wake_power.value().to_bits());
    h.write_f64_bits(cfg.mcu.wake_duration.value().to_bits());
    h.write_f64_bits(cfg.mcu.cold_boot_duration.value().to_bits());
    h.write_f64_bits(cfg.mcu.tickless_base.value().to_bits());
    h.write_f64_bits(cfg.mcu.active.value().to_bits());
    h.write_f64_bits(cfg.mcu.clock.value().to_bits());
    // runtime knobs
    h.write_u64(cfg.max_retries as u64);
    h.write_f64_bits(cfg.retry_backoff.value().to_bits());
    h.write_f64_bits(cfg.active_dt.value().to_bits());
    // dt_policy: DtPolicy
    h.write_u64(u64::from(cfg.dt_policy.adaptive));
    h.write_f64_bits(cfg.dt_policy.min_dt.value().to_bits());
    h.write_f64_bits(cfg.dt_policy.max_dt.value().to_bits());
    h.write_f64_bits(cfg.dt_policy.edge_hold().value().to_bits());
}
