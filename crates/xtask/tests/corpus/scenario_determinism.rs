// lint-rules: determinism seed-discipline
//
// Scenario evaluation must be a pure function of (script, seed): the
// node-day store and every golden FleetReport replay it under that
// assumption. No wall clock, no ambient entropy, and every random stream
// claimed through `derive_seed` with the registered SCENARIO_STREAM_TAG.

pub fn stream(seed: u64, instance: usize) -> u64 {
    derive_seed(seed, SCENARIO_STREAM_TAG, instance)
}

pub fn adhoc(seed: u64, instance: u64) -> u64 {
    seed + instance //~ ERROR seed-discipline
}

pub fn private_tag(seed: u64) -> u64 {
    derive_seed(seed, CLOUD_TAG, 0) //~ ERROR seed-discipline
}

pub fn stamp() -> Instant {
    Instant::now() //~ ERROR determinism
}

pub fn ambient() -> u64 {
    let mut rng = thread_rng(); //~ ERROR determinism
    rng.gen()
}

pub fn folded(seed: u64) -> u64 {
    // physics-lint: allow(seed-discipline): documented fold on the legacy parity path
    seed ^ 0x9E37_79B9
}

// The registered mixer bodies stay exempt from seed-discipline.
pub fn splitmix64(seed_state: &mut u64) -> u64 {
    *seed_state = seed_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    *seed_state ^ 0x9E37_79B9
}

#[cfg(test)]
mod tests {
    pub fn scratch(seed: u64) -> u64 {
        seed + 1
    }
}
