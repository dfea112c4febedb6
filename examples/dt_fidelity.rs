//! How far the fleet's production timestep policy drifts from fixed dt.
//!
//! Every fleet node steps its day at `DtPolicy::adaptive(50 ms, 3600 s)`.
//! This example runs a 912-node sample at that policy and at the
//! `DtPolicy::fixed()` reference (1 s idle, 10 ms active):
//!
//! * the 512 nodes of the representative seed-7 campaign (`fleet_cold`);
//! * 200 nodes each of the `brownout_gauntlet` and `stressed_office_day`
//!   scenarios at seed 7.
//!
//! For each population it prints the production policy's rail steps by
//! width band and by the bound that set them; the worst and mean
//! |Δharvested|/fixed, |Δcompleted| and |Δmin voltage| against the
//! reference; and the mean signed shift of the day-end and minimum
//! voltages. Every node more than 30 mV off is listed with its minimum at
//! a uniform 20 ms grid as well, which tells a drifting policy from a
//! minimum that is chaotic in the step grid.
//!
//! `dt_fidelity_baseline.csv` holds every node's production-policy
//! minimum voltage and completions under an earlier `SIM_FINGERPRINT`
//! (named on its first line). Each node whose |Δcompleted| against fixed
//! dt is worse now than under that baseline, or whose |Δmin voltage| is
//! worse by more than the printed 0.1 mV, is listed with its figures on a
//! uniform 5 ms grid, which tells an error in the fixed-dt reference from
//! an error in the step rule.
//! `--write-baseline PATH` writes the present figures in that format.
//!
//! `--check` makes the run a gate: it exits 1 when any population's mean
//! |Δmin voltage| passes [`CHECK_MEAN_MIN_V`], its mean signed min-voltage
//! shift passes [`CHECK_MEAN_SHIFT_V`] either way, or its worst
//! |Δcompleted| or worst |Δmin voltage| passes the baseline's own worst
//! by more than [`CHECK_WORST_COMPLETED_SLACK`] or
//! [`CHECK_WORST_MIN_V_SLACK`]. Deterministic; the output is Markdown
//! tables. Usage:
//!
//! ```sh
//! cargo run --release --example dt_fidelity [-- [--check] [--write-baseline PATH]]
//! ```

use std::fmt::Write as _;

use solarml::fleet::{PopulationSpec, FLEET_SEED_CYCLE, SIM_FINGERPRINT};
use solarml::nas::parallel::{available_workers, derive_seed, parallel_map};
use solarml::platform::{
    simulate_faulted_day, DayCost, DayFaultReport, IntermittentConfig, STEP_LIMITS,
};
use solarml::scenario::registry;
use solarml::sim::DtPolicy;
use solarml::units::Seconds;

const SEED: u64 = 7;
/// A node whose minimum voltage moved further than this is listed.
const LIST_PAST_V: f64 = 0.030;
/// A node whose |Δmin voltage| grew past the baseline's by more than
/// this, the tables' printed precision, is listed against the baseline.
const LIST_WORSE_PAST_V: f64 = 1e-4;

/// `--check`: the most a population's mean |Δmin voltage| may read.
const CHECK_MEAN_MIN_V: f64 = 1e-3;
/// `--check`: the most a population's mean signed min-voltage shift may
/// read either way; a step rule that drifts one way shows here first.
const CHECK_MEAN_SHIFT_V: f64 = 0.5e-3;
/// `--check`: how far a population's worst |Δcompleted| and worst
/// |Δmin voltage| may pass the baseline's worst over the same nodes.
const CHECK_WORST_COMPLETED_SLACK: usize = 1;
const CHECK_WORST_MIN_V_SLACK: f64 = 1e-3;

/// Every node's production-policy minimum voltage and completions under
/// the fingerprint on the first line: `population,node,min_voltage_v,completed`.
const BASELINE: &str = include_str!("dt_fidelity_baseline.csv");

/// One node's production-policy figures in [`BASELINE`].
struct BaselineNode {
    min_voltage: f64,
    completed: usize,
}

/// The baseline's fingerprint and its figures for `(population, node)`.
fn baseline() -> (&'static str, Vec<(String, usize, BaselineNode)>) {
    let mut lines = BASELINE.lines();
    let fingerprint = lines.next().unwrap_or_default().trim_start_matches("# ");
    let nodes = lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let parse = |i: usize| -> f64 {
                f.get(i)
                    .and_then(|x| x.parse().ok())
                    .unwrap_or_else(|| panic!("malformed baseline line {l:?}"))
            };
            let node = BaselineNode {
                min_voltage: parse(2),
                completed: parse(3) as usize,
            };
            (f[0].to_string(), parse(1) as usize, node)
        })
        .collect();
    (fingerprint, nodes)
}

/// One node at the production policy and at the fixed-dt reference.
struct NodePair {
    node: usize,
    config: IntermittentConfig,
    adaptive: DayFaultReport,
    fixed: DayFaultReport,
}

impl NodePair {
    fn harvested_rel(&self) -> f64 {
        let f = self.fixed.harvested.as_joules();
        (self.adaptive.harvested.as_joules() - f).abs() / f.max(1e-12)
    }

    fn completed_delta(&self) -> usize {
        self.adaptive.completed.abs_diff(self.fixed.completed)
    }

    fn min_voltage_delta(&self) -> f64 {
        self.min_voltage_shift().abs()
    }

    fn min_voltage_shift(&self) -> f64 {
        self.adaptive.min_voltage.as_volts() - self.fixed.min_voltage.as_volts()
    }

    fn final_voltage_shift(&self) -> f64 {
        self.adaptive.final_voltage.as_volts() - self.fixed.final_voltage.as_volts()
    }
}

/// Simulates `nodes` nodes of `spec` at seed 7 under both policies.
fn run_population(spec: &PopulationSpec, nodes: usize) -> Vec<NodePair> {
    let ids: Vec<usize> = (0..nodes).collect();
    parallel_map(available_workers(), &ids, |_, &node| {
        let config = spec
            .node_blueprint(derive_seed(SEED, FLEET_SEED_CYCLE, node))
            .config;
        let mut fixed = config.clone();
        fixed.dt_policy = DtPolicy::fixed();
        NodePair {
            node,
            adaptive: simulate_faulted_day(&config),
            fixed: simulate_faulted_day(&fixed),
            config,
        }
    })
}

fn main() {
    let mut check = false;
    let mut write_baseline = None;
    let mut args = std::env::args().skip(1);
    let usage = "usage: dt_fidelity [--check] [--write-baseline PATH]";
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--write-baseline" => write_baseline = Some(args.next().expect(usage)),
            _ => panic!("{usage}"),
        }
    }
    let mut populations = vec![(
        "representative".to_string(),
        run_population(&PopulationSpec::representative(), 512),
    )];
    for name in ["brownout_gauntlet", "stressed_office_day"] {
        let Some(entry) = registry::find(name) else {
            panic!("scenario {name} is registered");
        };
        let mut spec = PopulationSpec::representative();
        spec.scenario = Some(entry.scenario.clone());
        populations.push((name.to_string(), run_population(&spec, 200)));
    }

    println!(
        "| population | nodes | rail steps | < 0.1 s | 0.1–1 s | 1–10 s | 10–100 s | ≥ 100 s |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let costs: Vec<DayCost> = populations
        .iter()
        .map(|(_, pairs)| {
            let mut cost = DayCost::default();
            for p in pairs {
                cost += p.adaptive.cost;
            }
            cost
        })
        .collect();
    for ((name, pairs), cost) in populations.iter().zip(&costs) {
        let cells: Vec<String> = cost.step_bands.iter().map(usize::to_string).collect();
        println!(
            "| {name} | {} | {} | {} |",
            pairs.len(),
            cost.steps(),
            cells.join(" | ")
        );
    }

    println!();
    println!("| population | {} |", STEP_LIMITS.join(" | "));
    println!("|---|{}", "---|".repeat(STEP_LIMITS.len()));
    for ((name, _), cost) in populations.iter().zip(&costs) {
        let total = cost.steps().max(1) as f64;
        let cells: Vec<String> = cost
            .step_limits
            .iter()
            .map(|&n| format!("{n} ({:.1} %)", 100.0 * n as f64 / total))
            .collect();
        println!("| {name} | {} |", cells.join(" | "));
    }

    println!();
    println!(
        "| population | worst harvested | mean harvested | worst completions | \
         worst min V | mean min V | past 30 mV |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (name, pairs) in &populations {
        let n = pairs.len() as f64;
        let worst = |f: &dyn Fn(&NodePair) -> f64| pairs.iter().map(f).fold(0.0, f64::max);
        let mean = |f: &dyn Fn(&NodePair) -> f64| pairs.iter().map(f).sum::<f64>() / n;
        println!(
            "| {name} | {:.2} % | {:.2} % | {} | {:.1} mV | {:.2} mV | {} |",
            100.0 * worst(&NodePair::harvested_rel),
            100.0 * mean(&NodePair::harvested_rel),
            pairs
                .iter()
                .map(NodePair::completed_delta)
                .max()
                .unwrap_or(0),
            1e3 * worst(&NodePair::min_voltage_delta),
            1e3 * mean(&NodePair::min_voltage_delta),
            pairs
                .iter()
                .filter(|p| p.min_voltage_delta() > LIST_PAST_V)
                .count(),
        );
    }

    // Signed means show drift that piles up one way over a day.
    println!();
    println!("| population | mean day-end shift | mean \\|day-end shift\\| | mean min V shift |");
    println!("|---|---|---|---|");
    for (name, pairs) in &populations {
        let n = pairs.len() as f64;
        let mean = |f: &dyn Fn(&NodePair) -> f64| pairs.iter().map(f).sum::<f64>() / n;
        println!(
            "| {name} | {:+.2} mV | {:.2} mV | {:+.2} mV |",
            1e3 * mean(&NodePair::final_voltage_shift),
            1e3 * mean(&|p| p.final_voltage_shift().abs()),
            1e3 * mean(&NodePair::min_voltage_shift),
        );
    }

    println!();
    println!("| node past 30 mV | fixed min V | production min V | uniform 20 ms min V |");
    println!("|---|---|---|---|");
    let reference = DtPolicy::adaptive(Seconds::from_millis(20.0), Seconds::from_millis(20.0));
    for (name, pairs) in &populations {
        for p in pairs.iter().filter(|p| p.min_voltage_delta() > LIST_PAST_V) {
            let mut uniform = p.config.clone();
            uniform.dt_policy = reference;
            let grid = simulate_faulted_day(&uniform);
            println!(
                "| {name} {} | {:.4} V | {:.4} V | {:.4} V |",
                p.node,
                p.fixed.min_voltage.as_volts(),
                p.adaptive.min_voltage.as_volts(),
                grid.min_voltage.as_volts(),
            );
        }
    }

    // Nodes that drift further from fixed dt than under the baseline, with
    // a uniform 5 ms grid as the arbiter.
    let (fingerprint, base) = baseline();
    println!();
    println!(
        "| node worse than {fingerprint} | fixed min V | {fingerprint} min V | min V | \
         uniform 5 ms min V | fixed / {fingerprint} / now / 5 ms completed |"
    );
    println!("|---|---|---|---|---|---|");
    let mut worse = Vec::new();
    for (name, pairs) in &populations {
        for p in pairs {
            let Some((_, _, b)) = base.iter().find(|(n, i, _)| n == name && *i == p.node) else {
                continue;
            };
            let fixed_v = p.fixed.min_voltage.as_volts();
            let was_v = (b.min_voltage - fixed_v).abs();
            let was_completed = b.completed.abs_diff(p.fixed.completed);
            if p.min_voltage_delta() > was_v + LIST_WORSE_PAST_V
                || p.completed_delta() > was_completed
            {
                worse.push((name.clone(), p, b));
            }
        }
    }
    let fine = DtPolicy::adaptive(Seconds::from_millis(5.0), Seconds::from_millis(5.0));
    let grids = parallel_map(available_workers(), &worse, |_, (_, p, _)| {
        let mut uniform = p.config.clone();
        uniform.dt_policy = fine;
        simulate_faulted_day(&uniform)
    });
    for ((name, p, b), grid) in worse.iter().zip(&grids) {
        println!(
            "| {name} {} | {:.4} V | {:.4} V | {:.4} V | {:.4} V | {} / {} / {} / {} |",
            p.node,
            p.fixed.min_voltage.as_volts(),
            b.min_voltage,
            p.adaptive.min_voltage.as_volts(),
            grid.min_voltage.as_volts(),
            p.fixed.completed,
            b.completed,
            p.adaptive.completed,
            grid.completed,
        );
    }

    if let Some(path) = write_baseline {
        let mut out = format!("# {SIM_FINGERPRINT}\n");
        for (name, pairs) in &populations {
            for p in pairs {
                let _ = writeln!(
                    out,
                    "{name},{},{:?},{}",
                    p.node,
                    p.adaptive.min_voltage.as_volts(),
                    p.adaptive.completed
                );
            }
        }
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("{path}: {e}"));
    }

    if check {
        let misses = check_against(&populations, fingerprint, &base);
        for miss in &misses {
            eprintln!("dt_fidelity --check: {miss}");
        }
        if !misses.is_empty() {
            std::process::exit(1);
        }
    }
}

/// Prints each population's `--check` figures beside their limits and
/// returns one line per limit passed.
fn check_against(
    populations: &[(String, Vec<NodePair>)],
    fingerprint: &str,
    base: &[(String, usize, BaselineNode)],
) -> Vec<String> {
    println!();
    println!(
        "| check | mean \\|Δmin V\\| | mean min V shift | worst completions \
         ({fingerprint} + {CHECK_WORST_COMPLETED_SLACK}) | worst min V \
         ({fingerprint} + {:.0} mV) |",
        1e3 * CHECK_WORST_MIN_V_SLACK
    );
    println!("|---|---|---|---|---|");
    let mut misses = Vec::new();
    for (name, pairs) in populations {
        let n = pairs.len().max(1) as f64;
        let mean_dv = pairs.iter().map(NodePair::min_voltage_delta).sum::<f64>() / n;
        let shift = pairs.iter().map(NodePair::min_voltage_shift).sum::<f64>() / n;
        let worst_c = pairs
            .iter()
            .map(NodePair::completed_delta)
            .max()
            .unwrap_or(0);
        let worst_v = pairs
            .iter()
            .map(NodePair::min_voltage_delta)
            .fold(0.0, f64::max);
        let (mut was_c, mut was_v) = (0, 0.0f64);
        for p in pairs {
            if let Some((_, _, b)) = base.iter().find(|(m, i, _)| m == name && *i == p.node) {
                was_c = was_c.max(b.completed.abs_diff(p.fixed.completed));
                was_v = was_v.max((b.min_voltage - p.fixed.min_voltage.as_volts()).abs());
            }
        }
        let max_c = was_c + CHECK_WORST_COMPLETED_SLACK;
        let max_v = was_v + CHECK_WORST_MIN_V_SLACK;
        println!(
            "| {name} | {:.2} mV (≤ {:.2}) | {:+.2} mV (± {:.2}) | {worst_c} (≤ {max_c}) | \
             {:.1} mV (≤ {:.1}) |",
            1e3 * mean_dv,
            1e3 * CHECK_MEAN_MIN_V,
            1e3 * shift,
            1e3 * CHECK_MEAN_SHIFT_V,
            1e3 * worst_v,
            1e3 * max_v,
        );
        if mean_dv > CHECK_MEAN_MIN_V {
            misses.push(format!("{name}: mean |Δmin V| {:.2} mV", 1e3 * mean_dv));
        }
        if shift.abs() > CHECK_MEAN_SHIFT_V {
            misses.push(format!("{name}: mean min V shift {:+.2} mV", 1e3 * shift));
        }
        if worst_c > max_c {
            misses.push(format!("{name}: worst |Δcompleted| {worst_c} > {max_c}"));
        }
        if worst_v > max_v {
            misses.push(format!(
                "{name}: worst |Δmin V| {:.1} mV > {:.1} mV",
                1e3 * worst_v,
                1e3 * max_v
            ));
        }
    }
    misses
}
