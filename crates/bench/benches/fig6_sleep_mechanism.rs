//! Fig. 6 — The SolarML sleep mechanism: the platform is *off* until the
//! event detector powers it, samples until the end-of-gesture hover, infers,
//! lingers in standby for a possible second interaction and powers down.

use solarml::platform::lifecycle::{InteractionConfig, TaskProfile};
use solarml_bench::{header, pct};

fn main() {
    header(
        "Fig. 6",
        "SolarML event-driven sleep mechanism (ASCII trace)",
    );

    for (label, second) in [
        ("single interaction", false),
        ("with second inference", true),
    ] {
        let config = InteractionConfig {
            second_interaction: second,
            ..InteractionConfig::standard(TaskProfile::reference_gesture())
        };
        let (trace, breakdown) = config.run().expect("interaction runs");
        println!();
        println!("--- {label} ---");
        // ASCII power profile: one row per segment with a bar scaled to
        // average power (log-ish compression for visibility).
        let max_pow = trace
            .segment_summaries()
            .iter()
            .map(|(_, s)| s.average_power.as_watts())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (seg_label, summary) in trace.segment_summaries() {
            let frac = (summary.average_power.as_watts() / max_pow).powf(0.4);
            let bar = "#".repeat((frac * 40.0).round() as usize);
            println!(
                "  {:<11} {:>9} {:>10}  |{bar}",
                seg_label,
                summary.duration.to_string(),
                summary.average_power.to_string()
            );
        }
        let (fe, fs, fm) = breakdown.fractions();
        let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
        println!(
            "  totals: {} (E_E {}, E_S {}, E_M {})",
            breakdown.total(),
            pct(fe),
            pct(fs),
            pct(fm)
        );
    }
    println!();
    println!("Paper: the system is fully off while idle, wakes passively on a hover,");
    println!("and a standby window allows an immediate second inference.");
}
