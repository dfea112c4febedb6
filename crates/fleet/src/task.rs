//! Node-days as pure, content-keyed units of work.
//!
//! A [`NodeDayTask`] is one node's day, resolved out of the population
//! once: [`NodeDayTask::key`] names it, so the store in [`crate::store`]
//! can replay a persisted outcome in place of an execution, and
//! [`NodeDayTask::execute`] builds the node's config and simulates it from
//! scratch. Resolving holds only the node's draw record (and, under a
//! scenario, its evaluated day): the config is built on a miss, never on
//! a hit, as in PIE's `require`.
//!
//! A task's identity is its **content key** — a stable word-at-a-time
//! hash ([`solarml_trace::KeyHasher`], one SplitMix64 round per 64-bit
//! word; never `DefaultHasher`/`RandomState`, enforced by the
//! `stable-store-key` lint) over the inputs of the node's build, not its
//! output:
//!
//! * [`SIM_FINGERPRINT`], the derived seed, the drawn environment and
//!   policy buckets and the ladder flag;
//! * the drawn hardware scalars (panel scale, capacitance, initial
//!   voltage, clamped aging) and the interaction and outage counts;
//! * only the light input the node's generator reads — latitude and day
//!   of year outdoors, the office or home peak indoors — and the cloud
//!   count for outdoor nodes only. Under a scenario the evaluated day's
//!   outputs are walked by value instead, so a scenario edit moves only
//!   the nodes whose day it reached;
//! * one digest of the preset words every config shares (budget,
//!   thresholds, phase plan, both ladders, checkpoint costs, MCU model,
//!   dt policy), computed once per process.
//!
//! This is the complete closure of [`NodeDayTask::execute`]'s inputs:
//! every [`crate::Dist`] consumes exactly one draw, so the profile seed
//! and every later stream position — the interaction, cloud and outage
//! times — are functions of the seed and the counts. A spec edit that
//! leaves a node's record words alone leaves its key, and its cached
//! outcome, in place. What the key no longer walks is the code that turns
//! those words into a config: the light generators and the draw-to-config
//! build. [`SIM_FINGERPRINT`] discipline covers them, guarded by the
//! config-digest pin in `tests/resolve_pin.rs`. The output
//! [`NodeDayOutcome`] excludes the node index, so a replayed outcome is
//! bit-identical to a recomputed one.

use std::sync::OnceLock;

use solarml_platform::{simulate_faulted_day, IntermittentConfig};
use solarml_scenario::ScenarioDay;
use solarml_trace::{ByteReader, ByteWriter, CodecError, KeyHasher};

use crate::campaign::NodeSummary;
use crate::population::{NodeDraw, PopulationSpec};

/// Simulator-version fingerprint folded into every node-day content key.
///
/// Bump the trailing version whenever the day simulator's observable
/// behavior changes (physics, scheduler stepping, ledger accounting…),
/// and whenever a light generator, a preset or the draw-to-config build
/// ([`PopulationSpec::node_blueprint`]) changes: content keys hash the
/// draws, not the config built from them, so only this tag tells a config
/// that new generator or build code makes from the old one. The
/// config-digest pin in `tests/resolve_pin.rs` fails when a built config
/// moves. Every existing store entry then misses and recomputes, which is
/// the *only* correct response to new semantics.
pub const SIM_FINGERPRINT: &str = "solarml-node-day-sim/v6";

/// One node's simulated day, as a task: resolve the node's draws out of
/// the population once, then carry everything `execute` needs.
#[derive(Debug, Clone)]
pub struct NodeDayTask {
    /// Node index within the campaign (display/summary only — not key
    /// material, because the outcome does not depend on it).
    pub node: usize,
    /// The node's derived seed.
    pub seed: u64,
    draw: NodeDraw,
    /// The scenario's day on the node's profile seed, when the population
    /// has a scenario.
    day: Option<ScenarioDay>,
    key: u64,
}

impl NodeDayTask {
    /// Resolves node `node` of `spec` from its derived seed: runs the draw
    /// program (and the scenario, if any) and derives the content key from
    /// the draws. A sampled node allocates nothing here.
    pub fn resolve(spec: &PopulationSpec, node: usize, seed: u64) -> Self {
        let draw = spec.draw(seed);
        let day = spec.scenario.as_ref().map(|s| s.eval(draw.profile_seed));
        let key = node_day_key(&draw, day.as_ref(), seed);
        Self {
            node,
            seed,
            draw,
            day,
            key,
        }
    }

    /// The content key this node-day is stored under: a pure function of
    /// the simulation inputs. Two specs that resolve a node to identical
    /// inputs (a scenario edit that misses this node, say) share the key —
    /// which is exactly what lets the incremental store replay unaffected
    /// node-days across spec edits.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Builds the node's config and simulates the day from scratch. Pure:
    /// equal tasks yield equal outcomes, bit for bit.
    pub fn execute(&self) -> NodeDayOutcome {
        let report = simulate_faulted_day(&self.draw.build(self.day.as_ref()).config);
        NodeDayOutcome {
            attempted: report.attempted,
            completed: report.completed,
            abandoned: report.abandoned,
            degraded: report.degraded,
            brownouts: report.brownouts,
            dead_window_s: report.dead_window.as_seconds(),
            harvested_j: report.harvested.as_joules(),
            consumed_j: report.consumed.as_joules(),
            wasted_j: report.wasted.as_joules(),
            residual_j: report.audit.discrepancy.as_joules(),
            mean_accuracy: report.mean_accuracy.get(),
        }
    }

    /// Rehydrates a full [`NodeSummary`] from a (cached or fresh) outcome
    /// plus the task's own identity fields.
    pub fn summary(&self, outcome: &NodeDayOutcome) -> NodeSummary {
        NodeSummary {
            node: self.node,
            seed: self.seed,
            env_index: self.draw.env_index(self.day.as_ref()),
            policy_index: self.draw.policy_pick,
            attempted: outcome.attempted,
            completed: outcome.completed,
            abandoned: outcome.abandoned,
            degraded: outcome.degraded,
            brownouts: outcome.brownouts,
            dead_window_s: outcome.dead_window_s,
            harvested_j: outcome.harvested_j,
            consumed_j: outcome.consumed_j,
            wasted_j: outcome.wasted_j,
            residual_j: outcome.residual_j,
            mean_accuracy: outcome.mean_accuracy,
        }
    }
}

/// What one node-day leaves behind, minus the task identity: exactly the
/// fields that are a pure function of the content key. This is the store's
/// payload type — caching identity fields like the node index would let a
/// (hash-collision-grade unlikely, but structurally possible) foreign entry
/// masquerade as another node, so they are reconstructed at replay instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDayOutcome {
    /// Interaction cycles attempted.
    pub attempted: usize,
    /// Cycles completed (any rung).
    pub completed: usize,
    /// Cycles abandoned after retries ran out.
    pub abandoned: usize,
    /// Completions below the full rung.
    pub degraded: usize,
    /// Brownout events.
    pub brownouts: usize,
    /// Time below the brownout threshold (seconds).
    pub dead_window_s: f64,
    /// Energy harvested over the day (joules).
    pub harvested_j: f64,
    /// Energy consumed over the day (joules).
    pub consumed_j: f64,
    /// Energy wasted on lost progress (joules).
    pub wasted_j: f64,
    /// Signed ledger conservation residual (joules).
    pub residual_j: f64,
    /// Mean accuracy proxy across completed cycles.
    pub mean_accuracy: f64,
}

impl NodeDayOutcome {
    /// Appends the outcome's canonical byte encoding: five `u64` counters
    /// then six `f64` bit patterns, little-endian, fixed width. The store
    /// wraps this payload in its own envelope and checksum.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_u64(self.attempted as u64);
        w.push_u64(self.completed as u64);
        w.push_u64(self.abandoned as u64);
        w.push_u64(self.degraded as u64);
        w.push_u64(self.brownouts as u64);
        w.push_f64_bits(self.dead_window_s.to_bits());
        w.push_f64_bits(self.harvested_j.to_bits());
        w.push_f64_bits(self.consumed_j.to_bits());
        w.push_f64_bits(self.wasted_j.to_bits());
        w.push_f64_bits(self.residual_j.to_bits());
        w.push_f64_bits(self.mean_accuracy.to_bits());
    }

    /// Reads one outcome back; the exact inverse of [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_le_bytes(&r.read_array()?))
    }

    /// Decodes the [`OUTCOME_LEN`] bytes [`Self::encode_into`] wrote, at
    /// their fixed offsets. Total: every bit pattern is some outcome.
    pub(crate) fn from_le_bytes(bytes: &[u8; OUTCOME_LEN]) -> Self {
        let (words, _) = bytes.as_chunks::<8>();
        let word = |i: usize| u64::from_le_bytes(words[i]);
        Self {
            attempted: word(0) as usize,
            completed: word(1) as usize,
            abandoned: word(2) as usize,
            degraded: word(3) as usize,
            brownouts: word(4) as usize,
            dead_window_s: f64::from_bits(word(5)),
            harvested_j: f64::from_bits(word(6)),
            consumed_j: f64::from_bits(word(7)),
            wasted_j: f64::from_bits(word(8)),
            residual_j: f64::from_bits(word(9)),
            mean_accuracy: f64::from_bits(word(10)),
        }
    }
}

/// Bytes of a [`NodeDayOutcome`]'s encoding: five counters and six floats,
/// eight bytes each.
pub(crate) const OUTCOME_LEN: usize = 88;

/// The key hasher after [`SIM_FINGERPRINT`], the words every content key
/// starts with, folded once at compile time.
const FINGERPRINTED: KeyHasher = {
    let mut h = KeyHasher::new();
    h.write_bytes(SIM_FINGERPRINT.as_bytes());
    h
};

/// Content key of one resolved node-day, in the word order the module
/// doc lists. The hash walks the draw record's values, never the spec, so
/// two specs that draw a node the same inputs produce the same key —
/// which is exactly the cache-hit condition a parameter sweep needs.
fn node_day_key(draw: &NodeDraw, day: Option<&ScenarioDay>, seed: u64) -> u64 {
    let mut h = FINGERPRINTED;
    h.write_u64(seed);
    h.write_u64(draw.env_pick as u64);
    h.write_u64(draw.policy_pick as u64);
    h.write_u64(u64::from(draw.has_ladder));
    h.write_f64_bits(draw.panel_scale.to_bits());
    h.write_f64_bits(draw.capacitance_f.to_bits());
    h.write_f64_bits(draw.initial_voltage_v.to_bits());
    h.write_f64_bits(draw.capacity_factor.to_bits());
    h.write_f64_bits(draw.esr_scale.to_bits());
    h.write_u64(draw.interactions as u64);
    h.write_u64(draw.outages as u64);
    match day {
        Some(day) => hash_day(&mut h, day),
        None => match draw.env_pick {
            0 => {
                h.write_f64_bits(draw.latitude_deg.to_bits());
                h.write_u64(u64::from(draw.day_of_year));
            }
            1 => h.write_f64_bits(draw.office_peak_lux.to_bits()),
            _ => h.write_f64_bits(draw.home_peak_lux.to_bits()),
        },
    }
    if draw.env_pick == 0 {
        h.write_u64(draw.clouds as u64);
    }
    h.write_u64(preset_digest());
    h.finish()
}

/// Folds an evaluated scenario day into `h` by value: its light bucket
/// and profile, then each override with a presence word, floats by bit
/// pattern, sequences length-prefixed (so `[a] ++ [b]` never aliases
/// `[a, b]`).
fn hash_day(h: &mut KeyHasher, day: &ScenarioDay) {
    h.write_u64(day.env_bucket as u64);
    for lux in &day.profile.lux_by_hour {
        h.write_f64_bits(lux.to_bits());
    }
    h.write_u64(u64::from(day.has_faults));
    h.write_u64(day.clouds.len() as u64);
    for c in &day.clouds {
        h.write_f64_bits(c.at.value().to_bits());
        h.write_f64_bits(c.duration.value().to_bits());
        h.write_f64_bits(c.depth.get().to_bits());
        h.write_f64_bits(c.ramp.value().to_bits());
    }
    h.write_u64(day.outages.len() as u64);
    for o in &day.outages {
        h.write_f64_bits(o.at.value().to_bits());
        h.write_f64_bits(o.duration.value().to_bits());
    }
    h.write_u64(u64::from(day.degradation.is_some()));
    if let Some(d) = day.degradation {
        h.write_f64_bits(d.capacity_factor.get().to_bits());
        h.write_f64_bits(d.esr_scale.get().to_bits());
    }
    h.write_u64(u64::from(day.interactions.is_some()));
    if let Some(times) = &day.interactions {
        h.write_u64(times.len() as u64);
        for t in times {
            h.write_f64_bits(t.value().to_bits());
        }
    }
    h.write_u64(u64::from(day.capacitance.is_some()));
    if let Some(c) = day.capacitance {
        h.write_f64_bits(c.value().to_bits());
    }
}

/// Digest of the words every built config takes from presets rather than
/// draws, with and without the degradation ladder: computed once per
/// process from two configs the build itself makes, so a preset edit
/// moves every key.
fn preset_digest() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| {
        let mut h = KeyHasher::new();
        let mut draw = PopulationSpec::representative().draw(0);
        for has_ladder in [false, true] {
            draw.has_ladder = has_ladder;
            hash_presets(&mut h, &draw.build(None).config);
        }
        h.finish()
    })
}

/// Folds the preset fields of `cfg` into `h`, one word per field, in
/// declaration order, floats by bit pattern, the ladder length-prefixed.
fn hash_presets(h: &mut KeyHasher, cfg: &IntermittentConfig) {
    h.write_f64_bits(cfg.base.budget_per_inference.value().to_bits());
    h.write_f64_bits(cfg.base.inference_threshold.value().to_bits());
    h.write_f64_bits(cfg.base.standby_power.value().to_bits());
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
    // checkpoint cost model (the policy itself is the drawn policy pick)
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

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_trace::seed::derive_seed;

    use crate::campaign::FLEET_SEED_CYCLE;

    fn task(spec: &PopulationSpec, node: usize) -> NodeDayTask {
        NodeDayTask::resolve(spec, node, derive_seed(7, FLEET_SEED_CYCLE, node))
    }

    #[test]
    fn content_keys_are_pure_and_distinct_per_node() {
        let spec = PopulationSpec::smoke();
        assert_eq!(task(&spec, 0).key(), task(&spec, 0).key());
        assert_ne!(task(&spec, 0).key(), task(&spec, 1).key());
    }

    #[test]
    fn execute_matches_simulate_node_bit_for_bit() {
        let spec = PopulationSpec::smoke();
        let t = task(&spec, 3);
        assert_eq!(
            t.summary(&t.execute()),
            crate::campaign::simulate_node(&spec, 3, t.seed)
        );
    }

    #[test]
    fn unaffected_nodes_keep_their_keys_across_a_spec_edit() {
        let spec = PopulationSpec::smoke();
        let mut edited = spec.clone();
        edited.office_peak_lux = crate::population::Dist::Uniform {
            lo: 250.0,
            hi: 900.0,
        };
        let mut office = 0;
        let mut moved = 0;
        for node in 0..48 {
            let a = task(&spec, node);
            let b = task(&edited, node);
            let is_office = spec.node_blueprint(a.seed).env_index == 1;
            office += usize::from(is_office);
            moved += usize::from(a.key() != b.key());
            if !is_office {
                assert_eq!(
                    a.key(),
                    b.key(),
                    "node {node} does not use office_peak_lux; its key must survive"
                );
            }
        }
        assert!(office > 0, "a 48-node smoke fleet has office nodes");
        assert_eq!(moved, office, "exactly the office nodes were invalidated");
    }
}
