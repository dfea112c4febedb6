//! Byte pins for node resolution: the content keys of the CLI-default
//! population and the light profiles of the three environment
//! generators (window sky, office, home).
//!
//! Every store entry, checkpoint and golden report downstream is a
//! function of these bits, so a refactor of how a node's light is drawn
//! must leave both digests unmoved.

use solarml_fleet::{NodeDayTask, PopulationSpec, FLEET_SEED_CYCLE};
use solarml_scenario::Scenario;
use solarml_trace::fnv1a64;
use solarml_trace::seed::derive_seed;

/// FNV-1a over the little-endian keys of representative nodes `0..1024`
/// at campaign seed 7, in node order. Re-pinned when `STORE_VERSION` went
/// to 3 (word-at-a-time content keys), and when `SIM_FINGERPRINT`, which
/// every key folds, went to `v3`, `v4` and `v5`.
const REPRESENTATIVE_KEY_DIGEST: u64 = 0x5d9b_651a_d93c_d069;

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
