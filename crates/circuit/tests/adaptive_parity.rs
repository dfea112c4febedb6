//! Property test: an adaptive-timestep scheduler run of a circuit
//! scenario agrees with the fixed-timestep reference.
//!
//! For randomized light schedules (ambient level, step/ramp changes,
//! hover events), driving the same [`CircuitSim`] through the
//! co-simulation [`Scheduler`] under an adaptive [`DtPolicy`] must land
//! within a few millivolts of the fixed-dt supercap voltage, keep the
//! energy-conservation ledger residual at round-off (≤ 1 nJ), and take
//! strictly fewer steps.
//!
//! The case loop is hand-rolled over the proptest stand-in's seeded
//! runner instead of the `proptest!` macro: each case simulates two full
//! minutes of circuit time, so the default 256-case budget would dominate
//! the workspace test wall-clock. 24 deterministic cases keep the same
//! reproducibility (fixed per-test seed stream) at tier-1-friendly cost.

use proptest::runner::rng_for;
use proptest::Strategy;
use rand::rngs::StdRng;
use solarml_circuit::env::{HoverSchedule, LightChange, LightEnvironment};
use solarml_circuit::CircuitSim;
use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, StepControl};
use solarml_units::{Lux, Seconds, Volts};

/// Simulated window per case, in seconds.
const WINDOW: f64 = 60.0;

/// Fixed-policy step, the reference run's 1 ms.
const SLICE: Seconds = Seconds::new(1e-3);

/// Deterministic cases per property.
const CASES: u32 = 24;

/// One scheduler-driven run; returns (final supercap voltage, ledger
/// residual in joules, steps taken).
fn run(env: &LightEnvironment, policy: DtPolicy) -> (Volts, f64, usize) {
    let mut sim = CircuitSim::new(env.clone());
    let mut sched = Scheduler::new(policy);
    let mut bus = SimBus::new();
    let mut steps = 0usize;
    sched.run_until(
        Seconds::new(WINDOW),
        SLICE,
        &mut [&mut sim as &mut dyn Clocked],
        &mut bus,
        |_, _, _| {
            steps += 1;
            StepControl::Continue
        },
    );
    (bus.rail_voltage, bus.audit().discrepancy.as_joules(), steps)
}

/// Samples a randomized light schedule: base ambient, up to three level
/// changes (possibly ramped), up to two hover events.
fn scenario(rng: &mut StdRng) -> LightEnvironment {
    let ambient = (50.0..900.0f64).sample(rng);
    let n_changes = (0usize..4).sample(rng);
    let mut changes: Vec<LightChange> = (0..n_changes)
        .map(|_| LightChange {
            at: Seconds::new((5.0..55.0f64).sample(rng)),
            level: Lux::new((20.0..1000.0f64).sample(rng)),
            ramp: Seconds::new((0.0..4.0f64).sample(rng)),
        })
        .collect();
    changes.sort_by(|a, b| a.at.as_seconds().total_cmp(&b.at.as_seconds()));
    let n_hovers = (0usize..3).sample(rng);
    let schedule = HoverSchedule::from_hovers((0..n_hovers).map(|_| {
        (
            Seconds::new((8.0..50.0f64).sample(rng)),
            Seconds::new((0.5..3.0f64).sample(rng)),
        )
    }));
    LightEnvironment::with_hovers(Lux::new(ambient), schedule).with_changes(changes)
}

#[test]
fn adaptive_run_matches_fixed_run() {
    for case in 0..CASES {
        let mut rng = rng_for("adaptive_run_matches_fixed_run", case);
        let env = scenario(&mut rng);
        let fixed = run(&env, DtPolicy::fixed());
        let adaptive = run(
            &env,
            DtPolicy::adaptive(Seconds::from_millis(1.0), Seconds::new(30.0)),
        );
        assert!(
            fixed.1 <= 1e-9,
            "case {case}: fixed-dt ledger residual {} J ({env:?})",
            fixed.1
        );
        assert!(
            adaptive.1 <= 1e-9,
            "case {case}: adaptive-dt ledger residual {} J ({env:?})",
            adaptive.1
        );
        let dv = (adaptive.0.as_volts() - fixed.0.as_volts()).abs();
        assert!(
            dv <= 0.01,
            "case {case}: supercap voltage diverged by {dv} V (fixed {}, adaptive {}; {env:?})",
            fixed.0,
            adaptive.0
        );
        assert!(
            adaptive.2 < fixed.2,
            "case {case}: adaptive must take fewer steps ({} vs {})",
            adaptive.2,
            fixed.2
        );
    }
}
