//! Maximum-power-point tracking.
//!
//! The SPV1050 harvester in the prototype performs MPPT by fractional-V_oc
//! sampling; this module provides both that and a classic perturb-and-observe
//! tracker, plus an I–V curve sweep utility. The rest of the workspace uses
//! the analytic MPP ([`SolarCell::mpp_power`]); these trackers quantify how
//! close a real controller gets to it (and feed the harvester-efficiency
//! discussion in DESIGN.md).

use solarml_units::{Amps, Lux, Power, Ratio, Volts};

use crate::components::SolarCell;

/// One point of an I–V sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvPoint {
    /// Operating voltage.
    pub voltage: Volts,
    /// Current delivered at that voltage.
    pub current: Amps,
    /// Power delivered at that voltage.
    pub power: Power,
}

/// Sweeps the cell's I–V curve from 0 to V_oc in `steps` points.
///
/// The current model interpolates between the short-circuit plateau and the
/// exponential knee: `I(V) = I_sc · (1 − (V/V_oc)^m)` with a sharpness `m`
/// matching the cell's fill factor.
///
/// # Panics
///
/// Panics if `steps < 2`.
pub fn iv_sweep(cell: &SolarCell, lux: Lux, shading: Ratio, steps: usize) -> Vec<IvPoint> {
    assert!(steps >= 2, "need at least two sweep points");
    let isc = cell.short_circuit_current(lux, shading);
    let voc = cell.open_circuit_voltage(isc);
    // Choose the knee sharpness so the analytic MPP power is achieved at
    // the curve's maximum: for I = Isc(1 − u^m), peak power / (Voc·Isc)
    // = m·(m+1)^{-(m+1)/m}; solve for m numerically against the fill factor.
    let m = knee_for_fill_factor(cell.fill_factor);
    (0..steps)
        .map(|i| {
            let u = i as f64 / (steps - 1) as f64;
            let v = Volts::new(voc.as_volts() * u);
            let current = Amps::new(isc.as_amps() * (1.0 - u.powf(m)).max(0.0));
            IvPoint {
                voltage: v,
                current,
                power: v * current,
            }
        })
        .collect()
}

/// Solves `m·(m+1)^{-(m+1)/m} = ff` by bisection (the fill factor uniquely
/// determines the knee sharpness of the normalized curve).
fn knee_for_fill_factor(ff: f64) -> f64 {
    let f = |m: f64| {
        let u_star = (1.0 / (m + 1.0)).powf(1.0 / m);
        u_star * (1.0 - u_star.powf(m))
    };
    let (mut lo, mut hi) = (1.0f64, 60.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < ff {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A perturb-and-observe MPPT controller operating on a cell's I–V curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbObserve {
    /// Current operating voltage.
    pub voltage: Volts,
    /// Perturbation step.
    pub step: Volts,
    last_power: Power,
    direction: f64,
}

impl PerturbObserve {
    /// Creates a tracker starting at `start` with the given step.
    pub fn new(start: Volts, step: Volts) -> Self {
        Self {
            voltage: start,
            step,
            last_power: Power::ZERO,
            direction: 1.0,
        }
    }

    /// One P&O iteration against the cell at the given conditions; returns
    /// the power extracted at the *new* operating point.
    pub fn step_once(&mut self, cell: &SolarCell, lux: Lux, shading: Ratio) -> Power {
        let p = operating_power(cell, lux, shading, self.voltage);
        if p < self.last_power {
            self.direction = -self.direction;
        }
        self.last_power = p;
        let isc = cell.short_circuit_current(lux, shading);
        let voc = cell.open_circuit_voltage(isc);
        let next = (self.voltage.as_volts() + self.direction * self.step.as_volts())
            .clamp(0.0, voc.as_volts());
        self.voltage = Volts::new(next);
        operating_power(cell, lux, shading, self.voltage)
    }

    /// Runs `iters` iterations and returns the final extracted power.
    pub fn track(&mut self, cell: &SolarCell, lux: Lux, shading: Ratio, iters: usize) -> Power {
        let mut p = Power::ZERO;
        for _ in 0..iters {
            p = self.step_once(cell, lux, shading);
        }
        p
    }
}

/// A fractional-open-circuit-voltage controller (the SPV1050's strategy):
/// periodically samples `V_oc` and regulates the cell at `k · V_oc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalVoc {
    /// The V_oc fraction (SPV1050 default ≈ 0.75 for amorphous cells).
    pub fraction: f64,
}

impl Default for FractionalVoc {
    fn default() -> Self {
        Self { fraction: 0.75 }
    }
}

impl FractionalVoc {
    /// Power extracted when regulating at `fraction · V_oc`.
    pub fn power(&self, cell: &SolarCell, lux: Lux, shading: Ratio) -> Power {
        let isc = cell.short_circuit_current(lux, shading);
        let voc = cell.open_circuit_voltage(isc);
        operating_power(
            cell,
            lux,
            shading,
            Volts::new(voc.as_volts() * self.fraction),
        )
    }

    /// Tracking efficiency relative to the true MPP.
    pub fn efficiency(&self, cell: &SolarCell, lux: Lux) -> Ratio {
        let mpp = cell.mpp_power(lux, Ratio::ZERO);
        if mpp.as_watts() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.power(cell, lux, Ratio::ZERO) / mpp)
    }
}

/// Power delivered by the cell when held at voltage `v` (same knee model as
/// [`iv_sweep`]).
pub fn operating_power(cell: &SolarCell, lux: Lux, shading: Ratio, v: Volts) -> Power {
    let isc = cell.short_circuit_current(lux, shading);
    let voc = cell.open_circuit_voltage(isc);
    if voc.as_volts() <= 0.0 {
        return Power::ZERO;
    }
    let u = (v.as_volts() / voc.as_volts()).clamp(0.0, 1.0);
    let m = knee_for_fill_factor(cell.fill_factor);
    let current = isc.as_amps() * (1.0 - u.powf(m)).max(0.0);
    v * Amps::new(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sweep_spans_zero_to_voc() {
        let cell = SolarCell::default();
        let sweep = iv_sweep(&cell, Lux::new(500.0), Ratio::new(0.0), 50);
        assert_eq!(sweep.len(), 50);
        assert_eq!(sweep[0].voltage, Volts::ZERO);
        let last = sweep.last().expect("non-empty");
        assert!(last.current.as_amps().abs() < 1e-12, "I(V_oc) = 0");
        assert_eq!(sweep[0].power, Power::ZERO);
    }

    #[test]
    fn sweep_peak_matches_analytic_mpp() {
        let cell = SolarCell::default();
        let sweep = iv_sweep(&cell, Lux::new(500.0), Ratio::new(0.0), 500);
        let peak = sweep.iter().map(|p| p.power).fold(Power::ZERO, Power::max);
        let mpp = cell.mpp_power(Lux::new(500.0), Ratio::new(0.0));
        let rel = (peak / mpp - 1.0).abs();
        assert!(rel < 0.03, "sweep peak {peak} vs analytic MPP {mpp}");
    }

    #[test]
    fn knee_solver_reproduces_fill_factor() {
        for ff in [0.5, 0.62, 0.7, 0.8] {
            let m = knee_for_fill_factor(ff);
            let u_star = (1.0 / (m + 1.0)).powf(1.0 / m);
            let achieved = u_star * (1.0 - u_star.powf(m));
            assert!((achieved - ff).abs() < 1e-6, "ff={ff}: got {achieved}");
        }
    }

    #[test]
    fn perturb_observe_converges_near_mpp() {
        let cell = SolarCell::default();
        let mpp = cell.mpp_power(Lux::new(500.0), Ratio::new(0.0));
        let mut tracker = PerturbObserve::new(Volts::new(0.3), Volts::new(0.02));
        let tracked = tracker.track(&cell, Lux::new(500.0), Ratio::new(0.0), 300);
        let eff = tracked / mpp;
        assert!(eff > 0.95, "P&O should reach ≥95% of MPP, got {eff:.3}");
    }

    #[test]
    fn perturb_observe_retracks_after_light_change() {
        let cell = SolarCell::default();
        let mut tracker = PerturbObserve::new(Volts::new(0.3), Volts::new(0.02));
        tracker.track(&cell, Lux::new(1000.0), Ratio::new(0.0), 200);
        // Light drops: the tracker must follow the new MPP.
        let tracked = tracker.track(&cell, Lux::new(250.0), Ratio::new(0.0), 300);
        let mpp = cell.mpp_power(Lux::new(250.0), Ratio::new(0.0));
        assert!(
            tracked / mpp > 0.93,
            "retrack efficiency {:.3}",
            tracked / mpp
        );
    }

    #[test]
    fn fractional_voc_is_decent_but_suboptimal() {
        let cell = SolarCell::default();
        let eff = FractionalVoc::default()
            .efficiency(&cell, Lux::new(500.0))
            .get();
        assert!(
            (0.8..1.0).contains(&eff),
            "fractional-Voc typically reaches 80-97% of MPP, got {eff:.3}"
        );
        // And P&O beats it.
        let mut po = PerturbObserve::new(Volts::new(0.3), Volts::new(0.02));
        let po_eff = po.track(&cell, Lux::new(500.0), Ratio::new(0.0), 300)
            / cell.mpp_power(Lux::new(500.0), Ratio::new(0.0));
        assert!(po_eff >= eff - 0.02);
    }

    #[test]
    fn operating_power_zero_at_rails() {
        let cell = SolarCell::default();
        assert_eq!(
            operating_power(&cell, Lux::new(500.0), Ratio::new(0.0), Volts::ZERO),
            Power::ZERO
        );
        let isc = cell.short_circuit_current(Lux::new(500.0), Ratio::new(0.0));
        let voc = cell.open_circuit_voltage(isc);
        let at_voc = operating_power(&cell, Lux::new(500.0), Ratio::new(0.0), voc);
        assert!(at_voc.as_micro_watts() < 0.01);
    }

    proptest! {
        #[test]
        fn sweep_power_is_unimodal_envelope(lux in 50.0f64..2000.0) {
            let cell = SolarCell::default();
            let sweep = iv_sweep(&cell, Lux::new(lux), Ratio::new(0.0), 100);
            // Power rises to a single peak then falls.
            let powers: Vec<f64> = sweep.iter().map(|p| p.power.as_watts()).collect();
            let peak_idx = powers
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            for w in powers[..peak_idx].windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-12);
            }
            for w in powers[peak_idx..].windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-12);
            }
        }

        #[test]
        fn po_never_exceeds_mpp(lux in 50.0f64..2000.0, start in 0.05f64..2.0) {
            let cell = SolarCell::default();
            let mut tracker = PerturbObserve::new(Volts::new(start), Volts::new(0.02));
            let p = tracker.track(&cell, Lux::new(lux), Ratio::new(0.0), 100);
            prop_assert!(p <= cell.mpp_power(Lux::new(lux), Ratio::new(0.0)) * 1.001);
        }
    }
}
