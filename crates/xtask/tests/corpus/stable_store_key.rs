// lint-rules: stable-store-key
//
// Store-key hygiene. Content-addressed store entries are looked up by
// recomputing their key in a *different* process than the one that wrote
// them, so the key hash must be byte-identical across processes, builds,
// and platforms. std's `DefaultHasher` is SipHash behind a per-process
// `RandomState` salt: a key minted with it is unfindable by the next run,
// turning the cache into a silent permanent miss. All store keys go
// through the registered stable key hasher (`solarml_trace::KeyHasher`).
// The rule flags the type names themselves, so the `use` line is a
// finding before any key is ever minted.

use std::collections::hash_map::DefaultHasher; //~ ERROR stable-store-key
use std::collections::hash_map::RandomState; //~ ERROR stable-store-key
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use solarml_trace::fnv1a64;

pub fn salted_key(node: u64) -> u64 {
    let mut hasher = DefaultHasher::new(); //~ ERROR stable-store-key
    hasher.write_u64(node);
    hasher.finish()
}

pub fn salted_state_key(node: u64) -> u64 {
    let state = RandomState::new(); //~ ERROR stable-store-key
    let mut hasher = state.build_hasher();
    hasher.write_u64(node);
    hasher.finish()
}

/// Doc comments are inert: `DefaultHasher` and `RandomState` here never fire.
pub fn stable_key(node: u64) -> u64 {
    fnv1a64(&node.to_le_bytes())
}

pub fn wrapped_build_hasher<H: Default + Hasher>() -> BuildHasherDefault<H> {
    // `BuildHasherDefault` is a whole-ident non-match, not a false positive.
    BuildHasherDefault::default()
}

pub fn annotated_scratch_key(node: u64) -> u64 {
    // physics-lint: allow(stable-store-key): in-memory dedup only, never persisted
    let mut hasher = DefaultHasher::new();
    hasher.write_u64(node);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn tests_may_use_std_hashers(node: u64) -> u64 {
        let mut hasher = DefaultHasher::new();
        hasher.write_u64(node);
        hasher.finish()
    }
}
