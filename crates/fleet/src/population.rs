//! Node-population sampling: per-node configurations drawn from declared
//! distributions.
//!
//! A [`PopulationSpec`] declares *distributions* over everything that
//! varies across a deployed fleet — environment mix, supercap sizing and
//! aging, panel area, interaction load, runtime policy — and
//! [`PopulationSpec::node_blueprint`] collapses one node out of it from a
//! per-node seed. Draws happen in one fixed program order from a private
//! SplitMix64 stream, and every [`Dist`] variant (including
//! [`Dist::Constant`]) consumes exactly one draw, so editing a spec field
//! from a constant to a distribution never shifts the stream of the draws
//! after it: the rest of the node stays bit-identical.

use solarml_circuit::{CloudTransient, FaultPlan, OutageWindow, SupercapDegradation};
use solarml_platform::{
    CheckpointPolicy, DaySimConfig, DegradationLadder, IntermittentConfig, PhasePlan,
};
use solarml_scenario::{home, office, sky_markov, Scenario, ScenarioDay};
use solarml_sim::DtPolicy;
use solarml_trace::seed::{pick_weighted, splitmix64, uniform};
use solarml_units::{Energy, Farads, Power, Ratio, Seconds, Volts};

/// Domain-separation tag for per-node blueprint draws: XORed into the
/// node seed so blueprint sampling never replays another consumer of the
/// same seed. Registered with the seed-discipline lint.
pub const POPULATION_STREAM_TAG: u64 = 0xF1EE_7000_0000_0001;

/// A one-dimensional sampling distribution over `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always this value. Still consumes one stream draw, so swapping a
    /// constant for a distribution (or back) never desynchronizes the
    /// draws that follow it.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-uniform over `[lo, hi)`: uniform in `ln x`, for scale
    /// parameters spanning decades (capacitance, panel area).
    LogUniform {
        /// Inclusive lower bound (must be positive).
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

impl Dist {
    /// Draws one sample, always consuming exactly one stream advance.
    pub fn sample(&self, state: &mut u64) -> f64 {
        let unit = uniform(state, 0.0, 1.0);
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => lo + unit * (hi - lo),
            Dist::LogUniform { lo, hi } => {
                debug_assert!(lo > 0.0 && hi > lo, "log-uniform needs 0 < lo < hi");
                (lo.ln() + unit * (hi.ln() - lo.ln())).exp()
            }
        }
    }
}

/// Declared distributions a fleet's nodes are drawn from.
///
/// Shares are relative weights, not probabilities — they are normalized by
/// the weighted pick, so `[2.0, 1.0, 1.0]` means half the fleet in the
/// first bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Relative share of nodes at window desks (clear-sky + weather).
    pub outdoor_share: f64,
    /// Relative share of nodes under office lighting.
    pub office_share: f64,
    /// Relative share of nodes in homes.
    pub home_share: f64,
    /// Relative share of nodes running retained (FRAM) checkpoints.
    pub retained_share: f64,
    /// Relative share running volatile (SRAM) checkpoints.
    pub volatile_share: f64,
    /// Relative share running the naive no-checkpoint runtime.
    pub none_share: f64,
    /// Probability in `[0, 1]` that a node carries the multi-exit
    /// degradation ladder (vs full-model-only).
    pub ladder_share: f64,
    /// Site latitude in degrees for outdoor nodes.
    pub latitude_deg: Dist,
    /// Day of year the whole campaign simulates (one day per node).
    pub day_of_year: u32,
    /// Office midday illuminance peak (lux).
    pub office_peak_lux: Dist,
    /// Home evening illuminance peak (lux).
    pub home_peak_lux: Dist,
    /// Multiplier on the node's whole light profile: panel area and
    /// optical coupling relative to the reference array.
    pub panel_scale: Dist,
    /// Supercap nameplate capacitance (farads).
    pub capacitance_f: Dist,
    /// Supercap voltage at midnight (volts).
    pub initial_voltage_v: Dist,
    /// Aged-supercap capacity retention, in `(0, 1]`.
    pub capacity_factor: Dist,
    /// Aged-supercap ESR multiplier, `≥ 1`.
    pub esr_scale: Dist,
    /// Number of user interactions over the day (rounded down, ≥ 0).
    pub interaction_count: Dist,
    /// Number of cloud transients hitting outdoor nodes (rounded down).
    /// Indoor nodes draw but ignore it — their sky is the ceiling lights.
    pub cloud_count: Dist,
    /// Number of harvester disconnect windows (rounded down, any
    /// environment — loose wiring does not care about the weather).
    pub outage_count: Dist,
    /// Scripted conditions overriding the sampled ones: when set, every
    /// node's profile/faults/workload come from this scenario (evaluated
    /// on the node's own profile seed) instead of the environment mix
    /// above. The full draw program still runs identically, so fields the
    /// script does not declare keep their sampled values. `None` is the
    /// legacy fully-sampled fleet.
    pub scenario: Option<Scenario>,
}

impl PopulationSpec {
    /// A representative deployed fleet: mostly indoor nodes around the
    /// paper's office operating point, a window-desk minority, realistic
    /// supercap aging spread, and a runtime-policy mix dominated by the
    /// resilient configuration.
    pub fn representative() -> Self {
        Self {
            outdoor_share: 0.25,
            office_share: 0.50,
            home_share: 0.25,
            retained_share: 0.60,
            volatile_share: 0.20,
            none_share: 0.20,
            ladder_share: 0.70,
            latitude_deg: Dist::Uniform { lo: 25.0, hi: 60.0 },
            day_of_year: 172,
            office_peak_lux: Dist::Uniform {
                lo: 250.0,
                hi: 800.0,
            },
            home_peak_lux: Dist::Uniform {
                lo: 150.0,
                hi: 500.0,
            },
            panel_scale: Dist::LogUniform { lo: 0.5, hi: 2.0 },
            capacitance_f: Dist::LogUniform { lo: 0.022, hi: 0.1 },
            initial_voltage_v: Dist::Uniform { lo: 2.3, hi: 2.6 },
            capacity_factor: Dist::Uniform { lo: 0.45, hi: 1.0 },
            esr_scale: Dist::Uniform { lo: 1.0, hi: 2.5 },
            interaction_count: Dist::Uniform { lo: 20.0, hi: 61.0 },
            cloud_count: Dist::Uniform { lo: 4.0, hi: 13.0 },
            outage_count: Dist::Uniform { lo: 0.0, hi: 2.5 },
            scenario: None,
        }
    }

    /// A cheap preset for tests and smoke campaigns: the same structure as
    /// [`Self::representative`] with a light interaction load, so a
    /// 1000-node campaign stays fast even in debug builds.
    pub fn smoke() -> Self {
        Self {
            interaction_count: Dist::Uniform { lo: 4.0, hi: 9.0 },
            cloud_count: Dist::Uniform { lo: 1.0, hi: 5.0 },
            ..Self::representative()
        }
    }

    /// Edits one named parameter in place — the CLI's sweep surface. The
    /// names, their fields and their domains are the rows of
    /// [`POPULATION_PARAMS`].
    ///
    /// Share and scalar parameters replace the field; `<dist>-lo` /
    /// `<dist>-hi` edit one bound of a distribution field, leaving the
    /// other bound and the variant untouched (a `Constant` becomes a
    /// `Uniform` over the implied range). An unknown name, or a value
    /// outside the parameter's domain, returns `Err` naming the parameter;
    /// an unknown name's error lists every known one.
    pub fn set_param(&mut self, name: &str, value: f64) -> Result<(), String> {
        let param = POPULATION_PARAMS.iter().find(|p| p.name == name);
        let param = param.ok_or_else(|| {
            let known: Vec<&str> = POPULATION_PARAMS.iter().map(|p| p.name).collect();
            format!(
                "unknown population parameter `{name}`; known: {}",
                known.join(", ")
            )
        })?;
        let need = match param.domain {
            _ if !value.is_finite() => Some("finite"),
            Domain::NonNegative if value < 0.0 => Some("non-negative"),
            Domain::Positive if value <= 0.0 => Some("positive"),
            Domain::Count if value > MAX_EVENTS_PER_DAY => {
                Some("at most 86400 (one per simulated second)")
            }
            _ => None,
        };
        if let Some(need) = need {
            return Err(format!(
                "population parameter `{name}` must be {need}, got {value}"
            ));
        }
        match param.target {
            Target::Scalar(field) => *field(self) = value,
            Target::DayOfYear => self.day_of_year = value.max(0.0) as u32,
            Target::Lo(field) => {
                let d = field(self);
                *d = match *d {
                    Dist::Constant(v) => Dist::Uniform { lo: value, hi: v },
                    Dist::Uniform { hi, .. } => Dist::Uniform { lo: value, hi },
                    Dist::LogUniform { hi, .. } => Dist::LogUniform { lo: value, hi },
                };
            }
            Target::Hi(field) => {
                let d = field(self);
                *d = match *d {
                    Dist::Constant(v) => Dist::Uniform { lo: v, hi: value },
                    Dist::Uniform { lo, .. } => Dist::Uniform { lo, hi: value },
                    Dist::LogUniform { lo, .. } => Dist::LogUniform { lo, hi: value },
                };
            }
        }
        Ok(())
    }

    /// Collapses one node out of the spec from its per-node seed,
    /// including which environment and policy buckets it landed in:
    /// `draw`, then (under [`Self::scenario`]) the scenario's day on the
    /// node's profile seed, then `NodeDraw::build`.
    ///
    /// Deterministic and order-fixed: the same `(spec, node_seed)` always
    /// yields the same blueprint, bit for bit.
    ///
    /// The draw program runs identically whether or not
    /// [`Self::scenario`] is set — the scenario replaces *values*
    /// (profile, faults, workload, capacitance) after the draws, never the
    /// draws themselves. That keeps every other per-node quantity (panel
    /// scale, voltage, policy, ladder) on the same stream positions, so
    /// switching a campaign between scripted and sampled conditions
    /// perturbs exactly the fields the script declares.
    pub fn node_blueprint(&self, node_seed: u64) -> NodeBlueprint {
        let draw = self.draw(node_seed);
        let day = self.scenario.as_ref().map(|s| s.eval(draw.profile_seed));
        draw.build(day.as_ref())
    }

    /// The node's draw record: every top-level draw, unconditionally and
    /// in one fixed order before any branch, so every node consumes the
    /// same prefix of its stream regardless of which environment or
    /// policy it lands in. Each [`Dist`] consumes exactly one draw, so
    /// `profile_seed` and the stream position the event times start from
    /// are functions of the node seed alone.
    pub(crate) fn draw(&self, node_seed: u64) -> NodeDraw {
        let mut state = node_seed ^ POPULATION_STREAM_TAG;
        let env_pick = pick_weighted(
            &mut state,
            &[self.outdoor_share, self.office_share, self.home_share],
        );
        // A latitude drawn past a pole gets the pole's light: the solar
        // formula is meaningless beyond ±90°.
        let latitude_deg = self.latitude_deg.sample(&mut state).clamp(-90.0, 90.0);
        let office_peak_lux = self.office_peak_lux.sample(&mut state);
        let home_peak_lux = self.home_peak_lux.sample(&mut state);
        let panel_scale = self.panel_scale.sample(&mut state);
        let capacitance_f = self.capacitance_f.sample(&mut state);
        let initial_voltage_v = self.initial_voltage_v.sample(&mut state);
        let capacity_factor = self.capacity_factor.sample(&mut state).clamp(0.05, 1.0);
        let esr_scale = self.esr_scale.sample(&mut state).max(1.0);
        let interactions = self.interaction_count.sample(&mut state).max(0.0) as usize;
        let clouds = self.cloud_count.sample(&mut state).max(0.0) as usize;
        let outages = self.outage_count.sample(&mut state).max(0.0) as usize;
        let policy_pick = pick_weighted(
            &mut state,
            &[self.retained_share, self.volatile_share, self.none_share],
        );
        let has_ladder = uniform(&mut state, 0.0, 1.0) < self.ladder_share;
        let profile_seed = splitmix64(&mut state);
        NodeDraw {
            env_pick,
            latitude_deg,
            day_of_year: self.day_of_year,
            office_peak_lux,
            home_peak_lux,
            panel_scale,
            capacitance_f,
            initial_voltage_v,
            capacity_factor,
            esr_scale,
            interactions,
            clouds,
            outages,
            policy_pick,
            has_ladder,
            profile_seed,
            stream: state,
        }
    }
}

/// One node's draw record: the scalars [`PopulationSpec::draw`] takes
/// from the node's stream, clamped as the build uses them, plus the
/// spec's day of year and the stream position the event times continue
/// from. Small and `Copy`: it is all a store hit needs to name the node
/// (see [`crate::task`]), and [`Self::build`] turns it into the config a
/// miss simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeDraw {
    /// Weighted environment pick: 0 = outdoor window, 1 = office, 2 = home.
    pub env_pick: usize,
    /// Site latitude after its clamp to ±90°; read by outdoor nodes.
    pub latitude_deg: f64,
    /// The spec's day of year; read by outdoor nodes.
    pub day_of_year: u32,
    /// Office midday peak (lux); read by office nodes.
    pub office_peak_lux: f64,
    /// Home evening peak (lux); read by home nodes.
    pub home_peak_lux: f64,
    /// Multiplier on the light profile.
    pub panel_scale: f64,
    /// Supercap nameplate capacitance (farads).
    pub capacitance_f: f64,
    /// Supercap voltage at midnight (volts).
    pub initial_voltage_v: f64,
    /// Capacity retention, clamped to `[0.05, 1]`.
    pub capacity_factor: f64,
    /// ESR multiplier, at least 1.
    pub esr_scale: f64,
    /// Interaction count.
    pub interactions: usize,
    /// Cloud-transient count; only outdoor nodes draw their times.
    pub clouds: usize,
    /// Harvester outage count.
    pub outages: usize,
    /// Weighted policy pick: 0 = retained, 1 = volatile, 2 = none.
    pub policy_pick: usize,
    /// Whether the node carries the multi-exit degradation ladder.
    pub has_ladder: bool,
    /// Seed of the light generator (or the scenario's evaluation).
    pub profile_seed: u64,
    /// Stream state after `profile_seed`: interaction, cloud and outage
    /// times are drawn from here, in that order.
    stream: u64,
}

impl NodeDraw {
    /// The environment bucket the node reports under: the scenario's light
    /// source when it has a `day`, else the drawn environment.
    pub fn env_index(&self, day: Option<&ScenarioDay>) -> usize {
        day.map_or(self.env_pick, |day| day.env_bucket)
    }

    /// Builds the node's blueprint from its draws and, under a scenario,
    /// its evaluated `day` (evaluated on [`Self::profile_seed`]).
    pub fn build(&self, day: Option<&ScenarioDay>) -> NodeBlueprint {
        let mut state = self.stream;
        // The scenario (when present) was evaluated on the same profile
        // seed the sampled environment would have used, then hardware
        // diversity (panel scale) applies on top either way.
        let mut profile = match day {
            Some(day) => day.profile.clone(),
            None => match self.env_pick {
                0 => sky_markov(self.latitude_deg, self.day_of_year, self.profile_seed),
                1 => office(self.office_peak_lux, self.profile_seed),
                _ => home(self.home_peak_lux, self.profile_seed),
            },
        };
        for lux in &mut profile.lux_by_hour {
            *lux *= self.panel_scale;
        }

        // Interaction times: sorted uniform draws over the waking window.
        // Every draw is positive, and positive floats' bit patterns order
        // exactly as `f64::total_cmp` orders the floats, so sorting the
        // bits is the same sort, at about half the float comparator's cost.
        let mut interactions: Vec<u64> = (0..self.interactions)
            .map(|_| uniform(&mut state, 8.0 * 3600.0, 22.0 * 3600.0).to_bits())
            .collect();
        interactions.sort_unstable();
        let interactions: Vec<Seconds> = interactions
            .into_iter()
            .map(|bits| Seconds::new(f64::from_bits(bits)))
            .collect();

        // Cloud transients only darken outdoor nodes — ceiling lights have
        // no weather — but the count draw happened for everyone.
        let clouds = if self.env_pick == 0 {
            (0..self.clouds)
                .map(|_| {
                    let at = uniform(&mut state, 7.0 * 3600.0, 19.0 * 3600.0);
                    let duration = uniform(&mut state, 180.0, 1500.0);
                    let depth = uniform(&mut state, 0.4, 0.95);
                    let ramp = uniform(&mut state, 20.0, 120.0);
                    CloudTransient {
                        at: Seconds::new(at),
                        duration: Seconds::new(duration),
                        depth: Ratio::new(depth),
                        ramp: Seconds::new(ramp),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let outages = (0..self.outages)
            .map(|_| {
                let at = uniform(&mut state, 8.0 * 3600.0, 21.0 * 3600.0);
                let duration = uniform(&mut state, 60.0, 600.0);
                OutageWindow {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                }
            })
            .collect();
        let sampled_faults = FaultPlan {
            clouds,
            outages,
            degradation: SupercapDegradation {
                capacity_factor: Ratio::new(self.capacity_factor),
                esr_scale: Ratio::new(self.esr_scale),
            },
        };
        // Scenario overrides land here, after every draw has happened:
        // declared fault combinators replace the sampled plan (falling
        // back to the sampled aging when the script declares none), a
        // declared workload replaces the sampled interaction times, and a
        // declared supercap replaces the sampled capacitance. The
        // parameters whose draws a script overrides are the
        // `scenario_owned` rows of `POPULATION_PARAMS`, below.
        let faults = match day {
            Some(day) => day.fault_plan(&sampled_faults),
            None => sampled_faults,
        };
        let interactions = match day.and_then(|d| d.interactions.clone()) {
            Some(times) => times,
            None => interactions,
        };
        let capacitance = day
            .and_then(|d| d.capacitance)
            .unwrap_or(Farads::new(self.capacitance_f));

        let base = DaySimConfig {
            profile,
            budget_per_inference: Energy::from_milli_joules(30.0),
            interactions,
            capacitance,
            initial_voltage: Volts::new(self.initial_voltage_v),
            inference_threshold: Volts::new(2.2),
            standby_power: Power::from_micro_watts(2.4),
        };

        let ladder = if self.has_ladder {
            DegradationLadder::representative()
        } else {
            DegradationLadder::full_only()
        };
        let mut cfg = IntermittentConfig::resilient(
            base,
            faults,
            PhasePlan::representative_gesture(),
            ladder,
        );
        cfg.checkpoint = match self.policy_pick {
            0 => CheckpointPolicy::Retained,
            1 => CheckpointPolicy::Volatile,
            _ => CheckpointPolicy::None,
        };
        // Adaptive stepping: same physics, ~60× cheaper through dead and
        // idle windows, pinned against fixed-dt by the sim parity suites.
        // The 50 ms floor (vs the parity suites' 1 ms) keeps nodes that
        // hover at the brownout threshold from grinding the clock; the
        // trapezoidal ledger flows hold the ≤ 1 nJ residual at any dt.
        cfg.dt_policy = DtPolicy::adaptive(Seconds::from_millis(50.0), Seconds::new(3600.0));
        NodeBlueprint {
            env_index: self.env_index(day),
            policy_index: self.policy_pick,
            config: cfg,
        }
    }
}

/// Where a population parameter's edit lands.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// A share or scalar field, replaced whole.
    Scalar(fn(&mut PopulationSpec) -> &mut f64),
    /// [`PopulationSpec::day_of_year`], truncated to a whole day.
    DayOfYear,
    /// The lower bound of a distribution field.
    Lo(fn(&mut PopulationSpec) -> &mut Dist),
    /// The upper bound of a distribution field.
    Hi(fn(&mut PopulationSpec) -> &mut Dist),
}

/// The values a parameter accepts; every parameter must also be finite.
#[derive(Debug, Clone, Copy)]
enum Domain {
    Any,
    /// Illuminance peaks (zero lux is dark, not an error) and share
    /// weights (a zero share empties its bucket; a negative one would
    /// corrupt the weighted pick).
    NonNegative,
    /// Log-uniform bounds: `ln` needs a positive value.
    Positive,
    /// Per-node event counts, each drawn into a per-node list: at most
    /// [`MAX_EVENTS_PER_DAY`].
    Count,
}

/// The most interactions, cloud transients or outages a node's day may
/// draw: one per simulated second.
const MAX_EVENTS_PER_DAY: f64 = 86_400.0;

/// One editable population parameter: a row of [`POPULATION_PARAMS`].
#[derive(Debug, Clone, Copy)]
pub struct PopulationParam {
    /// The name [`PopulationSpec::set_param`] takes, e.g. `office-peak-hi`.
    pub name: &'static str,
    target: Target,
    domain: Domain,
    /// Whether a scenario script owns the parameter: the script replaces
    /// the sampled environment, fault and workload conditions (see
    /// [`PopulationSpec::node_blueprint`]), so editing the parameter
    /// alongside a script is a contradiction, not a merge. Policy and
    /// hardware parameters (`retained-share`, `panel-scale-*`, …) still
    /// apply under a script.
    pub scenario_owned: bool,
}

use Domain::{Any, Count, NonNegative, Positive};
use Target::{DayOfYear, Hi, Lo, Scalar};

/// Every parameter [`PopulationSpec::set_param`] edits, one row each: name,
/// field and bound, domain, and whether a scenario script owns it.
#[rustfmt::skip]
pub const POPULATION_PARAMS: &[PopulationParam] = &[
    PopulationParam { name: "outdoor-share", target: Scalar(|s| &mut s.outdoor_share), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "office-share", target: Scalar(|s| &mut s.office_share), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "home-share", target: Scalar(|s| &mut s.home_share), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "retained-share", target: Scalar(|s| &mut s.retained_share), domain: NonNegative, scenario_owned: false },
    PopulationParam { name: "volatile-share", target: Scalar(|s| &mut s.volatile_share), domain: NonNegative, scenario_owned: false },
    PopulationParam { name: "none-share", target: Scalar(|s| &mut s.none_share), domain: NonNegative, scenario_owned: false },
    PopulationParam { name: "ladder-share", target: Scalar(|s| &mut s.ladder_share), domain: NonNegative, scenario_owned: false },
    PopulationParam { name: "day-of-year", target: DayOfYear, domain: Any, scenario_owned: true },
    PopulationParam { name: "latitude-lo", target: Lo(|s| &mut s.latitude_deg), domain: Any, scenario_owned: true },
    PopulationParam { name: "latitude-hi", target: Hi(|s| &mut s.latitude_deg), domain: Any, scenario_owned: true },
    PopulationParam { name: "office-peak-lo", target: Lo(|s| &mut s.office_peak_lux), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "office-peak-hi", target: Hi(|s| &mut s.office_peak_lux), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "home-peak-lo", target: Lo(|s| &mut s.home_peak_lux), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "home-peak-hi", target: Hi(|s| &mut s.home_peak_lux), domain: NonNegative, scenario_owned: true },
    PopulationParam { name: "panel-scale-lo", target: Lo(|s| &mut s.panel_scale), domain: Positive, scenario_owned: false },
    PopulationParam { name: "panel-scale-hi", target: Hi(|s| &mut s.panel_scale), domain: Positive, scenario_owned: false },
    PopulationParam { name: "capacitance-lo", target: Lo(|s| &mut s.capacitance_f), domain: Positive, scenario_owned: false },
    PopulationParam { name: "capacitance-hi", target: Hi(|s| &mut s.capacitance_f), domain: Positive, scenario_owned: false },
    PopulationParam { name: "initial-voltage-lo", target: Lo(|s| &mut s.initial_voltage_v), domain: Any, scenario_owned: false },
    PopulationParam { name: "initial-voltage-hi", target: Hi(|s| &mut s.initial_voltage_v), domain: Any, scenario_owned: false },
    PopulationParam { name: "capacity-factor-lo", target: Lo(|s| &mut s.capacity_factor), domain: Any, scenario_owned: false },
    PopulationParam { name: "capacity-factor-hi", target: Hi(|s| &mut s.capacity_factor), domain: Any, scenario_owned: false },
    PopulationParam { name: "esr-scale-lo", target: Lo(|s| &mut s.esr_scale), domain: Any, scenario_owned: false },
    PopulationParam { name: "esr-scale-hi", target: Hi(|s| &mut s.esr_scale), domain: Any, scenario_owned: false },
    PopulationParam { name: "interactions-lo", target: Lo(|s| &mut s.interaction_count), domain: Count, scenario_owned: true },
    PopulationParam { name: "interactions-hi", target: Hi(|s| &mut s.interaction_count), domain: Count, scenario_owned: true },
    PopulationParam { name: "clouds-lo", target: Lo(|s| &mut s.cloud_count), domain: Count, scenario_owned: true },
    PopulationParam { name: "clouds-hi", target: Hi(|s| &mut s.cloud_count), domain: Count, scenario_owned: true },
    PopulationParam { name: "outages-lo", target: Lo(|s| &mut s.outage_count), domain: Count, scenario_owned: true },
    PopulationParam { name: "outages-hi", target: Hi(|s| &mut s.outage_count), domain: Count, scenario_owned: true },
];

/// One sampled node: its simulation config plus which population buckets
/// it fell into (the aggregate reports fleet composition by these).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBlueprint {
    /// Environment bucket: 0 = outdoor window, 1 = office, 2 = home.
    pub env_index: usize,
    /// Checkpoint-policy bucket: 0 = retained, 1 = volatile, 2 = none.
    pub policy_index: usize,
    /// The fully-instantiated day-simulation configuration.
    pub config: IntermittentConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_dist_consumes_a_draw() {
        // Two streams, one sampling a constant and one a uniform, must
        // stay aligned for the draws that follow.
        let mut a = 123u64;
        let mut b = 123u64;
        let _ = Dist::Constant(5.0).sample(&mut a);
        let _ = Dist::Uniform { lo: 0.0, hi: 1.0 }.sample(&mut b);
        assert_eq!(a, b, "both variants must advance the stream identically");
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
    }

    #[test]
    fn log_uniform_spans_the_declared_range() {
        let d = Dist::LogUniform { lo: 0.01, hi: 10.0 };
        let mut state = 5u64;
        for _ in 0..500 {
            let v = d.sample(&mut state);
            assert!((0.01..10.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn node_configs_are_deterministic_per_seed() {
        let spec = PopulationSpec::representative();
        assert_eq!(
            spec.node_blueprint(17).config,
            spec.node_blueprint(17).config
        );
        assert_ne!(
            spec.node_blueprint(17).config,
            spec.node_blueprint(18).config
        );
    }

    #[test]
    fn sampled_nodes_satisfy_physical_invariants() {
        let spec = PopulationSpec::representative();
        for seed in 0..100 {
            let cfg = spec.node_blueprint(seed).config;
            let cf = cfg.faults.degradation.capacity_factor.get();
            assert!(cf > 0.0 && cf <= 1.0, "seed {seed}: capacity {cf}");
            assert!(
                cfg.faults.degradation.esr_scale.get() >= 1.0,
                "seed {seed}: esr below fresh"
            );
            assert!(cfg.base.capacitance.as_farads() > 0.0);
            assert!(
                cfg.base
                    .interactions
                    .windows(2)
                    .all(|w| w[0].as_seconds() <= w[1].as_seconds()),
                "seed {seed}: interactions must be sorted"
            );
        }
    }

    #[test]
    fn set_param_edits_exactly_one_field() {
        let base = PopulationSpec::representative();
        let mut edited = base.clone();
        edited.set_param("office-peak-hi", 900.0).expect("known");
        assert_eq!(
            edited.office_peak_lux,
            Dist::Uniform {
                lo: 250.0,
                hi: 900.0
            }
        );
        // Everything else untouched.
        edited.office_peak_lux = base.office_peak_lux;
        assert_eq!(edited, base);

        let mut shares = base.clone();
        shares.set_param("ladder-share", 0.5).expect("known");
        assert!((shares.ladder_share - 0.5).abs() < 1e-12);

        let err = base
            .clone()
            .set_param("flux-capacitor", 1.21)
            .expect_err("unknown");
        assert!(err.contains("flux-capacitor") && err.contains("office-peak"));
    }

    #[test]
    fn set_param_refuses_out_of_domain_values() {
        let base = PopulationSpec::representative();
        let refused = [
            ("latitude-lo", f64::NAN),
            ("ladder-share", f64::INFINITY),
            ("office-peak-lo", -100.0),
            ("home-peak-hi", -1.0),
            ("panel-scale-lo", 0.0),
            ("capacitance-lo", 0.0),
            ("capacitance-hi", -0.1),
        ];
        for (name, value) in refused {
            let mut edited = base.clone();
            let err = edited.set_param(name, value).expect_err("out of domain");
            assert!(err.contains(name), "{err}");
            assert_eq!(edited, base, "a refused edit leaves the spec untouched");
        }
        let mut dark = base.clone();
        dark.set_param("office-peak-lo", 0.0)
            .expect("zero lux is a peak");
        assert_eq!(dark.office_peak_lux, Dist::Uniform { lo: 0.0, hi: 800.0 });
    }

    #[test]
    fn set_param_refuses_negative_shares_and_unbounded_counts() {
        let base = PopulationSpec::representative();
        let refused = [
            ("office-share", -5.0, "non-negative"),
            ("ladder-share", -3.0, "non-negative"),
            ("none-share", -0.5, "non-negative"),
            ("interactions-lo", 1e9, "at most 86400"),
            ("clouds-hi", 86_401.0, "at most 86400"),
            ("outages-lo", f64::MAX, "at most 86400"),
        ];
        for (name, value, need) in refused {
            let mut edited = base.clone();
            let err = edited.set_param(name, value).expect_err("out of domain");
            assert!(err.contains(name) && err.contains(need), "{err}");
            assert_eq!(edited, base, "a refused edit leaves the spec untouched");
        }
        let mut edited = base.clone();
        edited.set_param("home-share", 0.0).expect("a zero share");
        edited
            .set_param("interactions-hi", MAX_EVENTS_PER_DAY)
            .expect("one per second");
    }

    #[test]
    fn indoor_nodes_carry_no_cloud_transients() {
        let spec = PopulationSpec {
            outdoor_share: 0.0,
            office_share: 1.0,
            home_share: 0.0,
            ..PopulationSpec::representative()
        };
        for seed in 0..30 {
            assert!(spec.node_blueprint(seed).config.faults.clouds.is_empty());
        }
    }
}
