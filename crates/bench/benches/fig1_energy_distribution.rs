//! Fig. 1 — Energy cost distribution for end-to-end inference in six SOTA
//! systems, with a 3-second event wait.

use solarml::platform::sota::sota_systems;
use solarml::platform::TaskProfile;
use solarml::Seconds;
use solarml_bench::{header, pct};

fn main() {
    header(
        "Fig. 1",
        "Energy cost distribution for end-to-end inference (3 s event wait)",
    );
    let systems = sota_systems(
        &TaskProfile::reference_gesture(),
        &TaskProfile::reference_kws(),
    );
    let wait = Seconds::new(3.0);
    println!(
        "{:<42} {:>8} {:>8} {:>8} {:>12}",
        "system", "E_E", "E_S", "E_M", "total"
    );
    for sys in &systems {
        let b = sys.breakdown(wait);
        let (fe, fs, fm) = b.fractions();
        let (fe, fs, fm) = (fe.get(), fs.get(), fm.get());
        println!(
            "{:<42} {:>8} {:>8} {:>8} {:>12}",
            sys.name,
            pct(fe),
            pct(fs),
            pct(fm),
            b.total().to_string()
        );
    }
    println!();
    println!("Paper shape: continuous systems spend up to ~70% on event detection;");
    println!("deep-sleep systems ~15%; for #5/#6 sensing exceeds inference cost.");
}
