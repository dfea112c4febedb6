//! Fig. 2 — End-to-end energy traces for gesture recognition and KWS under
//! a conventional one-minute duty cycle, with the E_E/E_S/E_M decomposition
//! the paper reports (gesture 38/47/15 %, KWS 29/53/18 %).

use solarml::mcu::McuPowerModel;
use solarml::platform::lifecycle::{DutyCycleConfig, TaskProfile};
use solarml::units::Frequency;
use solarml::Seconds;
use solarml_bench::{header, pct};

fn main() {
    header(
        "Fig. 2",
        "Energy trace decomposition, 1-minute sleep duty cycle",
    );
    for (name, task) in [
        ("gesture", TaskProfile::reference_gesture()),
        ("KWS", TaskProfile::reference_kws()),
    ] {
        let (trace, breakdown) = DutyCycleConfig {
            sleep: Seconds::from_minutes(1.0),
            task,
            mcu: McuPowerModel::default(),
            trace_rate: Frequency::new(1000.0),
        }
        .run()
        .expect("duty cycle runs");
        let (fe, fs, fm) = breakdown.fractions();
        let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
        println!();
        println!(
            "{name}: total {} over {}",
            breakdown.total(),
            trace.duration()
        );
        println!("  E_E (sleep+wake)      {} ({})", breakdown.event, pct(fe));
        println!(
            "  E_S (sample+process)  {} ({})",
            breakdown.sensing,
            pct(fs)
        );
        println!(
            "  E_M (inference)       {} ({})",
            breakdown.inference,
            pct(fm)
        );
        println!("  phases:");
        for (label, summary) in trace.segment_summaries() {
            println!(
                "    {:<12} {:>10} for {:>10} (avg {}, peak {})",
                label,
                summary.energy.to_string(),
                summary.duration.to_string(),
                summary.average_power,
                summary.peak_power
            );
        }
    }
    println!();
    println!("Paper: gesture E_E/E_S/E_M = 38/47/15 %, KWS = 29/53/18 %.");
}
