//! The passive event detector in action: watch the Fig. 5 circuit wake the
//! platform when a hand hovers, measure its response time and standby
//! draw, and compare against the Table III alternatives.
//!
//! ```sh
//! cargo run --release --example event_detection
//! ```

use solarml::circuit::env::{HoverSchedule, LightEnvironment};
use solarml::circuit::CircuitSim;
use solarml::platform::{solarml_detector_spec, REFERENCE_DETECTORS};
use solarml::sim::{DtPolicy, Scheduler, SimBus, StepControl};
use solarml::units::Lux;
use solarml::Seconds;

fn main() {
    // A user hovers at t = 2 s for 300 ms.
    let env = LightEnvironment::with_hovers(
        Lux::new(500.0),
        HoverSchedule::from_hovers([(Seconds::new(2.0), Seconds::from_millis(300.0))]),
    );
    let mut sim = CircuitSim::new(env);
    // No MCU on the bus: it draws nothing and holds its pin low, so the
    // rail's load is the detector's own draw.
    let mut sched = Scheduler::new(DtPolicy::fixed());
    let mut bus = SimBus::new();
    let dt = Seconds::from_millis(1.0);

    println!("simulating 3 s at 500 lux with a hover at t = 2.0 s...\n");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>6}",
        "t", "V2", "V_cap", "detector", "MCU"
    );
    let mut woke_at = None;
    // One scheduler step at a time, so each step's gate node can be read.
    while sched.time() < Seconds::new(3.0) {
        sched.run_steps(1, dt, &mut [&mut sim], &mut bus, |_, _, _| {
            StepControl::Continue
        });
        let t = sched.time();
        if woke_at.is_none() && bus.rail_connected {
            woke_at = Some(t);
        }
        // Print a sparse sample of the trace.
        let ms = (t.as_seconds() * 1000.0).round() as u64;
        if ms % 250 == 0 || (1995..2030).contains(&ms) {
            println!(
                "{:>8} {:>8} {:>10} {:>12} {:>6}",
                t.to_string(),
                sim.detector().v2().to_string(),
                bus.rail_voltage.to_string(),
                bus.load_power.to_string(),
                if bus.rail_connected { "ON" } else { "off" }
            );
        }
    }
    match woke_at {
        Some(t) => println!(
            "\nMCU rail connected at {} — {} after the hover began.",
            t,
            t - Seconds::new(2.0)
        ),
        None => println!("\nMCU never woke (unexpected for this scenario)."),
    }

    println!("\nTable III comparison for a 5 s wait:");
    let wait = Seconds::new(5.0);
    let mut rows = REFERENCE_DETECTORS.to_vec();
    rows.push(solarml_detector_spec());
    for d in &rows {
        println!(
            "  {:<10} standby {:>9}  5-s energy {:>9}",
            d.name,
            d.standby.to_string(),
            d.wait_and_detect_energy(wait).to_string()
        );
    }
}
