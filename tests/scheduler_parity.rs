//! Golden-parity pins for the unified co-simulation scheduler (ISSUE 4).
//!
//! Every legacy stepping loop — `circuit::sim`, both lifecycle runs,
//! `platform::endtoend`, `platform::intermittent`, `platform::replay` — was
//! ported onto `solarml_sim::Scheduler`. These tests pin that the ported
//! loops reproduce the pre-port outputs *exactly* at fixed dt:
//!
//! * `DayFaultReport::to_json()` byte-stable for the seeded cloudy day,
//! * `EnergyBreakdown` bit-exact (f64s compared via shortest round-trip
//!   formatting) for duty-cycle and interaction lifecycles,
//! * `DayReport` counters/voltages bit-exact for the office day (the
//!   `harvested` field moved from a side-channel sum to the EnergyAudit
//!   ledger's mid-voltage integral, so it is pinned to a 1e-3 relative
//!   band instead),
//! * replay tap-voltage streams bit-exact via per-channel FNV-1a digests.
//!
//! The fixtures under `tests/golden/` were generated by running this file
//! with `GOLDEN_REGEN=1` on the pre-port tree; regenerating them on a tree
//! that changes the physics defeats the point, so don't.

use std::fmt::Write as _;
use std::path::PathBuf;

use solarml::circuit::FaultPlan;
use solarml::mcu::McuPowerModel;
use solarml::platform::{
    replay_gesture, simulate_day, simulate_faulted_day, stressed_office_day, DaySimConfig,
    DegradationLadder, DutyCycleConfig, EnergyBreakdown, GestureReplay, InteractionConfig,
    IntermittentConfig, PhasePlan, TaskProfile,
};
use solarml::trace::PowerTrace;
use solarml::units::{Energy, Frequency, Lux, Seconds};

const SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `GOLDEN_REGEN` is set in the environment.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with GOLDEN_REGEN=1", name));
    assert_eq!(
        expected, actual,
        "{name} diverged from the pre-port golden output"
    );
}

/// One line per scenario: the breakdown's raw joule values plus the trace's
/// shape, all formatted with `{}` (shortest round-trip, so bit-exact).
fn breakdown_line(name: &str, trace: &PowerTrace, b: &EnergyBreakdown) -> String {
    format!(
        "{name} event={} sensing={} inference={} samples={} segments={} total={}\n",
        b.event.as_joules(),
        b.sensing.as_joules(),
        b.inference.as_joules(),
        trace.len(),
        trace.segments().len(),
        trace.total_energy().as_joules(),
    )
}

#[test]
fn day_fault_reports_are_byte_stable() {
    let naive = IntermittentConfig::naive(
        stressed_office_day(Lux::new(200.0)),
        FaultPlan::seeded_cloudy_day(SEED),
        PhasePlan::representative_gesture(),
    );
    let resilient = IntermittentConfig::resilient(
        stressed_office_day(Lux::new(200.0)),
        FaultPlan::seeded_cloudy_day(SEED),
        PhasePlan::representative_gesture(),
        DegradationLadder::representative(),
    );
    check_golden(
        "day_fault_naive_200.json",
        &simulate_faulted_day(&naive).to_json(),
    );
    check_golden(
        "day_fault_resilient_200.json",
        &simulate_faulted_day(&resilient).to_json(),
    );
}

#[test]
fn lifecycle_breakdowns_are_bit_exact() {
    let mut out = String::new();

    let (trace, b) = DutyCycleConfig {
        sleep: Seconds::new(2.0),
        task: TaskProfile::reference_gesture(),
        mcu: McuPowerModel::default(),
        trace_rate: Frequency::new(500.0),
    }
    .run()
    .expect("duty cycle runs");
    out.push_str(&breakdown_line("duty_gesture", &trace, &b));

    let (trace, b) = DutyCycleConfig {
        sleep: Seconds::new(2.0),
        task: TaskProfile::reference_kws(),
        mcu: McuPowerModel::default(),
        trace_rate: Frequency::new(500.0),
    }
    .run()
    .expect("duty cycle runs");
    out.push_str(&breakdown_line("duty_kws", &trace, &b));

    let (trace, b) = InteractionConfig::standard(TaskProfile::reference_gesture())
        .run()
        .expect("interaction runs");
    out.push_str(&breakdown_line("interaction_gesture", &trace, &b));

    let (trace, b) = InteractionConfig {
        second_interaction: true,
        ..InteractionConfig::standard(TaskProfile::reference_gesture())
    }
    .run()
    .expect("interaction runs");
    out.push_str(&breakdown_line("interaction_gesture_second", &trace, &b));

    let (trace, b) = InteractionConfig::standard(TaskProfile::reference_kws())
        .run()
        .expect("interaction runs");
    out.push_str(&breakdown_line("interaction_kws", &trace, &b));

    check_golden("energy_breakdowns.txt", &out);
}

#[test]
fn office_day_report_matches_golden() {
    let report = simulate_day(&DaySimConfig::office_day(Energy::from_milli_joules(3.0)));
    let actual = format!(
        "attempted={} completed={} rejected={}\nfinal_voltage={}\nmin_voltage={}\nharvested={}\n",
        report.attempted,
        report.completed,
        report.rejected,
        report.final_voltage.as_volts(),
        report.min_voltage.as_volts(),
        report.harvested.as_joules(),
    );
    let path = golden_dir().join("day_report.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("fixture exists; run with GOLDEN_REGEN=1");
    // Every line except `harvested=` is pinned byte-exact. `harvested`
    // moved from a pre-step-voltage side-channel sum onto the EnergyAudit
    // ledger's mid-voltage integral (satellite fix), which shifts it by the
    // half-step voltage difference — pin it to a 1e-3 relative band.
    for (exp, act) in expected.lines().zip(actual.lines()) {
        if let (Some(e), Some(a)) = (
            exp.strip_prefix("harvested="),
            act.strip_prefix("harvested="),
        ) {
            let e: f64 = e.parse().expect("golden harvested parses");
            let a: f64 = a.parse().expect("actual harvested parses");
            let rel = ((a - e) / e).abs();
            assert!(
                rel < 1e-3,
                "harvested {a} departs from golden {e} by {rel:.2e} (> 1e-3 relative)"
            );
        } else {
            assert_eq!(exp, act, "day_report.txt diverged");
        }
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

/// FNV-1a over the f32 bit patterns of one replay channel.
fn channel_digest(samples: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn replay_streams_are_bit_exact() {
    let out = replay_gesture(&GestureReplay::standard(3));
    let mut text = format!(
        "channels={} samples={} sensing_power={}\n",
        out.channels.len(),
        out.channels.first().map_or(0, Vec::len),
        out.sensing_power.as_watts(),
    );
    for (c, ch) in out.channels.iter().enumerate() {
        let _ = writeln!(text, "digest[{c}]={:016x}", channel_digest(ch));
    }
    check_golden("replay_digit3.txt", &text);
}
