//! Electrical component models used by the SolarML circuits.
//!
//! Each model is the simplest formulation that preserves the behaviour the
//! paper's measurements depend on: amorphous-Si solar cells with logarithmic
//! open-circuit voltage and sub-linear indoor power response, an ideal-ish
//! supercapacitor with leakage, Schottky blocking diodes with a fixed forward
//! drop, threshold-switched MOSFETs, and resistor dividers (the sensing taps
//! and the event-detection bias network).

use solarml_units::{Amps, Energy, Farads, Lux, Ohms, Power, Ratio, Seconds, Volts};

/// An amorphous-silicon solar cell (AM1606C-like, 13 mm × 13 mm).
///
/// Indoor photovoltaic response is distinctly sub-linear in illuminance and
/// the open-circuit voltage is logarithmic in photocurrent. We model:
///
/// * short-circuit current `I_sc = k_i · lux^γ · (1 − shading)`
/// * open-circuit voltage `V_oc = V_ref · ln(1 + I_sc/I_dark)/ln(1 + I_ref/I_dark)`
/// * maximum power point at `FF · V_oc · I_sc` with fill factor `FF`.
///
/// The default constants are calibrated so a 25-cell array harvests ≈215 µW
/// at 500 lux and ≈350 µW at 1000 lux — matching the paper's reported 31 s /
/// 19 s harvesting times for a 6660 µJ budget (§V-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarCell {
    /// Short-circuit current at 1 lux, in amps (before the sub-linear exponent).
    pub isc_per_lux: f64,
    /// Sub-linear illuminance exponent γ (≈0.71 indoors).
    pub lux_exponent: f64,
    /// Open-circuit voltage at the reference illuminance.
    pub voc_ref: Volts,
    /// Reference short-circuit current where `voc_ref` is reached.
    pub isc_ref: Amps,
    /// Diode dark current controlling the logarithmic V_oc curve.
    pub dark_current: Amps,
    /// Fill factor of the maximum power point.
    pub fill_factor: f64,
}

impl Default for SolarCell {
    fn default() -> Self {
        Self {
            // AM1606C-like amorphous cells are internally series-connected,
            // giving ~2.4 V open-circuit. Calibrated so 25 cells harvest
            // ≈265 µW raw at 500 lux (≈225 µW after the SPV1050 model),
            // matching the paper's 31 s / 19 s harvest times (§V-D).
            isc_per_lux: 1.05e-7,
            lux_exponent: 0.71,
            voc_ref: Volts::new(2.4),
            isc_ref: Amps::from_micro_amps(50.0),
            dark_current: Amps::new(2e-9),
            fill_factor: 0.62,
        }
    }
}

impl SolarCell {
    /// Short-circuit current under `lux` illuminance with `shading ∈ [0, 1]`
    /// of the cell covered (1 = fully covered).
    ///
    /// # Panics
    ///
    /// Panics if `shading` is outside `[0, 1]`.
    pub fn short_circuit_current(&self, lux: Lux, shading: Ratio) -> Amps {
        let s = shading.get();
        assert!(
            (0.0..=1.0).contains(&s),
            "shading must be in [0,1], got {s}"
        );
        let lux = lux.as_lux().max(0.0);
        Amps::new(self.isc_per_lux * lux.powf(self.lux_exponent) * (1.0 - s))
    }

    /// Open-circuit voltage for a given short-circuit current.
    pub fn open_circuit_voltage(&self, isc: Amps) -> Volts {
        let i = isc.as_amps().max(0.0);
        let i0 = self.dark_current.as_amps();
        let norm = (1.0 + self.isc_ref.as_amps() / i0).ln();
        Volts::new(self.voc_ref.as_volts() * (1.0 + i / i0).ln() / norm)
    }

    /// Power at the maximum power point under the given conditions.
    pub fn mpp_power(&self, lux: Lux, shading: Ratio) -> Power {
        let isc = self.short_circuit_current(lux, shading);
        let voc = self.open_circuit_voltage(isc);
        voc * isc * self.fill_factor
    }

    /// Operating voltage when loaded by a resistive divider of total
    /// resistance `r_load` (used for the sensing taps, Fig. 4).
    ///
    /// Solves the intersection of the cell's I–V curve with `V = I·R`
    /// approximately: the cell behaves as a current source `I_sc` until the
    /// voltage approaches `V_oc`, so `V = min(I_sc·R, V_oc)` with a soft knee.
    pub fn loaded_voltage(&self, lux: Lux, shading: Ratio, r_load: Ohms) -> Volts {
        let isc = self.short_circuit_current(lux, shading);
        let voc = self.open_circuit_voltage(isc);
        let linear = isc.as_amps() * r_load.as_ohms();
        let v = voc.as_volts() * (linear / voc.as_volts()).tanh().max(0.0);
        Volts::new(if voc.as_volts() <= 0.0 { 0.0 } else { v })
    }
}

/// A supercapacitor with leakage and equivalent series resistance (the
/// paper uses 1 F).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supercap {
    capacitance: Farads,
    voltage: Volts,
    /// Self-discharge leakage resistance.
    pub leakage: Ohms,
    /// Equivalent series resistance (terminal voltage sags by `I·ESR`
    /// under load — what makes the `V > V_θ` check conservative during
    /// inference bursts).
    pub esr: Ohms,
    /// Maximum voltage rating; charging clips here.
    pub max_voltage: Volts,
}

impl Supercap {
    /// Creates a supercap with the given capacitance, starting voltage, a
    /// 2 MΩ leakage path, 2 Ω ESR and a 5.5 V rating.
    pub fn new(capacitance: Farads, initial: Volts) -> Self {
        Self {
            capacitance,
            voltage: initial,
            leakage: Ohms::new(2e6),
            esr: Ohms::new(2.0),
            max_voltage: Volts::new(5.5),
        }
    }

    /// The open-circuit cell voltage.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// The terminal voltage while sourcing `load` watts: the cell voltage
    /// minus the `I·ESR` sag (clamped at zero).
    pub fn terminal_voltage(&self, load: Power) -> Volts {
        let v = self.voltage.as_volts();
        if v <= 0.0 {
            return Volts::ZERO;
        }
        let i = load.as_watts() / v;
        Volts::new((v - i * self.esr.as_ohms()).max(0.0))
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Energy stored (`½CV²`).
    pub fn stored_energy(&self) -> Energy {
        self.capacitance.stored_energy(self.voltage)
    }

    /// Usable energy above a cutoff voltage, zero if below the cutoff.
    pub fn usable_energy(&self, cutoff: Volts) -> Energy {
        if self.voltage <= cutoff {
            return Energy::ZERO;
        }
        self.capacitance.stored_energy(self.voltage) - self.capacitance.stored_energy(cutoff)
    }

    /// Integrates one timestep: `charge_in` amps flowing in, `power_out`
    /// watts drawn by the load (converted to current at the present voltage),
    /// plus internal leakage. Voltage clips to `[0, max_voltage]`.
    ///
    /// Returns the per-step energy breakdown, computed from the *same*
    /// intermediates as the voltage update so that the conservation identity
    /// `delta_stored = harvested - load - leaked - clamped` holds to
    /// floating-point round-off (the basis of [`crate::sim::EnergyAudit`]).
    pub fn step(&mut self, dt: Seconds, charge_in: Amps, power_out: Power) -> CapStepEnergy {
        let v0 = self.voltage.as_volts();
        let v = v0.max(1e-3);
        let i_out = power_out.as_watts() / v;
        let i_leak = v0 / self.leakage.as_ohms();
        let net = charge_in.as_amps() - i_out - i_leak;
        let dv = net * dt.as_seconds() / self.capacitance.as_farads();
        let next = (v0 + dv).clamp(0.0, self.max_voltage.as_volts());
        self.voltage = Volts::new(next);
        debug_assert!(
            self.voltage >= Volts::ZERO && self.voltage <= self.max_voltage,
            "supercap voltage out of bounds after step"
        );
        // Trapezoidal mid-voltage makes the discrete energy flows consistent
        // with the Euler voltage update: ½C(v1²-v0²) = C·(v1-v0)·(v1+v0)/2.
        let c = self.capacitance.as_farads();
        let v_mid = 0.5 * (v0 + next);
        let dt_s = dt.as_seconds();
        CapStepEnergy {
            delta_stored: Energy::new(c * (next - v0) * v_mid),
            harvested: Energy::new(charge_in.as_amps() * v_mid * dt_s),
            load: Energy::new(i_out * v_mid * dt_s),
            leaked: Energy::new(i_leak * v_mid * dt_s),
            clamped: Energy::new(c * (v0 + dv - next) * v_mid),
        }
    }

    /// Largest timestep for which one Euler step moves the voltage by at
    /// most `eps_v` under the given charge/load conditions: `dt ≤ ε·C/|I|`.
    ///
    /// This is the adaptive-timestep hint the co-simulation scheduler uses
    /// to stretch steps through quiescent windows. The *ledger* stays exact
    /// at any dt (the trapezoidal flows in [`Supercap::step`] balance by
    /// construction); this bound limits the trajectory error of the voltage
    /// itself. Capped at one hour so a fully quiescent hint stays finite.
    pub fn stable_dt(&self, charge_in: Amps, power_out: Power, eps_v: Volts) -> Seconds {
        let v = self.voltage.as_volts().max(1e-3);
        let i_out = power_out.as_watts() / v;
        let i_leak = self.voltage.as_volts() / self.leakage.as_ohms();
        let net = (charge_in.as_amps() - i_out - i_leak).abs();
        let cap = 3600.0;
        if net <= 0.0 {
            return Seconds::new(cap);
        }
        let dt = eps_v.as_volts().max(0.0) * self.capacitance.as_farads() / net;
        Seconds::new(dt.min(cap))
    }

    /// Directly removes an energy quantum (used for discrete inference costs).
    /// The voltage floor is zero.
    pub fn drain_energy(&mut self, e: Energy) {
        let stored = self.stored_energy();
        let remaining = (stored.as_joules() - e.as_joules()).max(0.0);
        let v = (2.0 * remaining / self.capacitance.as_farads()).sqrt();
        self.voltage = Volts::new(v.min(self.max_voltage.as_volts()));
        debug_assert!(
            self.stored_energy() >= Energy::ZERO,
            "supercap stored energy went negative in drain_energy"
        );
    }
}

/// Energy flows through a [`Supercap`] during one [`Supercap::step`].
///
/// All five fields are derived from the same intermediates as the voltage
/// update, so `delta_stored == harvested - load - leaked - clamped` up to
/// floating-point round-off (a few ulps per step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapStepEnergy {
    /// Change in stored energy `½C(v1² - v0²)` over the step.
    pub delta_stored: Energy,
    /// Energy delivered by the charging current at the mid-step voltage.
    pub harvested: Energy,
    /// Energy drawn by the external load.
    pub load: Energy,
    /// Energy dissipated in the internal leakage path.
    pub leaked: Energy,
    /// Energy rejected because the voltage clipped at a rail
    /// (zero whenever the voltage stayed within `[0, max_voltage]`).
    pub clamped: Energy,
}

impl From<CapStepEnergy> for solarml_sim::EnergyFlows {
    fn from(e: CapStepEnergy) -> Self {
        Self {
            delta_stored: e.delta_stored,
            harvested: e.harvested,
            load: e.load,
            leaked: e.leaked,
            clamped: e.clamped,
        }
    }
}

/// A Schottky blocking diode (the event-detection cells connect to the
/// supercap through two of these to prevent reverse flow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchottkyDiode {
    /// Forward voltage drop when conducting.
    pub forward_drop: Volts,
}

impl Default for SchottkyDiode {
    fn default() -> Self {
        Self {
            forward_drop: Volts::new(0.3),
        }
    }
}

impl SchottkyDiode {
    /// Current that flows from `anode` to `cathode` through a series
    /// resistance `r`; zero when reverse-biased or below the forward drop.
    pub fn current(&self, anode: Volts, cathode: Volts, r: Ohms) -> Amps {
        let drive = anode.as_volts() - cathode.as_volts() - self.forward_drop.as_volts();
        if drive <= 0.0 {
            Amps::ZERO
        } else {
            Amps::new(drive / r.as_ohms())
        }
    }
}

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosfetPolarity {
    /// N-channel: conducts when `V_gs > threshold` (threshold positive).
    NChannel,
    /// P-channel: conducts when `V_gs < threshold` (threshold negative).
    PChannel,
}

/// A MOSFET modelled as a threshold-controlled switch (SI2309 / SI2304-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Channel polarity.
    pub polarity: MosfetPolarity,
    /// Gate-source threshold voltage (negative for P-channel).
    pub threshold: Volts,
    /// Channel on-resistance.
    pub r_on: Ohms,
}

impl Mosfet {
    /// An SI2309-like P-channel part (`V_th ≈ −1.4 V`, `R_on ≈ 0.1 Ω`).
    pub fn si2309() -> Self {
        Self {
            polarity: MosfetPolarity::PChannel,
            threshold: Volts::new(-1.4),
            r_on: Ohms::new(0.1),
        }
    }

    /// An SI2304-like N-channel part (`V_th ≈ 1.2 V`, `R_on ≈ 0.08 Ω`).
    pub fn si2304() -> Self {
        Self {
            polarity: MosfetPolarity::NChannel,
            threshold: Volts::new(1.2),
            r_on: Ohms::new(0.08),
        }
    }

    /// Whether the channel conducts for a given gate-source voltage.
    pub fn conducts(&self, v_gs: Volts) -> bool {
        match self.polarity {
            MosfetPolarity::NChannel => v_gs > self.threshold,
            MosfetPolarity::PChannel => v_gs < self.threshold,
        }
    }
}

/// A two-resistor voltage divider with a tap between `r_top` and `r_bottom`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistorDivider {
    /// Resistance from the source to the tap.
    pub r_top: Ohms,
    /// Resistance from the tap to ground.
    pub r_bottom: Ohms,
}

impl ResistorDivider {
    /// Creates a divider.
    ///
    /// # Panics
    ///
    /// Panics if either resistance is non-positive.
    pub fn new(r_top: Ohms, r_bottom: Ohms) -> Self {
        assert!(
            r_top.as_ohms() > 0.0 && r_bottom.as_ohms() > 0.0,
            "divider resistances must be positive"
        );
        Self { r_top, r_bottom }
    }

    /// Total series resistance.
    pub fn total(&self) -> Ohms {
        Ohms::new(self.r_top.as_ohms() + self.r_bottom.as_ohms())
    }

    /// Tap voltage for a source voltage `v_in`.
    pub fn tap(&self, v_in: Volts) -> Volts {
        Volts::new(v_in.as_volts() * self.r_bottom.as_ohms() / self.total().as_ohms())
    }

    /// Static power dissipated in the divider at `v_in`.
    pub fn dissipation(&self, v_in: Volts) -> Power {
        let i = v_in / self.total();
        v_in * i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solar_cell_power_sublinear_in_lux() {
        let cell = SolarCell::default();
        let p500 = cell.mpp_power(Lux::new(500.0), Ratio::new(0.0));
        let p1000 = cell.mpp_power(Lux::new(1000.0), Ratio::new(0.0));
        let ratio = p1000 / p500;
        assert!(
            ratio > 1.3 && ratio < 1.9,
            "doubling lux should give ~1.6x power, got {ratio}"
        );
    }

    #[test]
    fn array_of_25_cells_matches_paper_harvest_power() {
        let cell = SolarCell::default();
        let p = cell.mpp_power(Lux::new(500.0), Ratio::new(0.0)) * 25.0;
        let uw = p.as_micro_watts();
        assert!(
            (220.0..320.0).contains(&uw),
            "25-cell array at 500 lux should produce ~265 uW raw, got {uw:.1}"
        );
    }

    #[test]
    fn shading_reduces_current_to_zero() {
        let cell = SolarCell::default();
        let full = cell.short_circuit_current(Lux::new(500.0), Ratio::new(0.0));
        let half = cell.short_circuit_current(Lux::new(500.0), Ratio::new(0.5));
        let none = cell.short_circuit_current(Lux::new(500.0), Ratio::new(1.0));
        assert!(half.as_amps() < full.as_amps());
        assert_eq!(none, Amps::ZERO);
    }

    #[test]
    #[should_panic(expected = "shading must be in [0,1]")]
    fn invalid_shading_panics() {
        let _ = SolarCell::default().short_circuit_current(Lux::new(500.0), Ratio::new(1.5));
    }

    #[test]
    fn voc_increases_with_light_logarithmically() {
        let cell = SolarCell::default();
        let v100 =
            cell.open_circuit_voltage(cell.short_circuit_current(Lux::new(100.0), Ratio::new(0.0)));
        let v1000 = cell
            .open_circuit_voltage(cell.short_circuit_current(Lux::new(1000.0), Ratio::new(0.0)));
        assert!(v1000 > v100);
        // Logarithmic: 10x light gives far less than 10x voltage.
        assert!(v1000.as_volts() / v100.as_volts() < 2.0);
    }

    #[test]
    fn loaded_voltage_saturates_at_voc() {
        let cell = SolarCell::default();
        let isc = cell.short_circuit_current(Lux::new(500.0), Ratio::new(0.0));
        let voc = cell.open_circuit_voltage(isc);
        let v = cell.loaded_voltage(Lux::new(500.0), Ratio::new(0.0), Ohms::new(1e9));
        assert!(v <= voc);
        assert!(v.as_volts() > 0.9 * voc.as_volts());
    }

    #[test]
    fn loaded_voltage_linear_for_small_loads() {
        let cell = SolarCell::default();
        let r = Ohms::new(1e3);
        let v = cell.loaded_voltage(Lux::new(500.0), Ratio::new(0.0), r);
        let isc = cell.short_circuit_current(Lux::new(500.0), Ratio::new(0.0));
        let expected = isc.as_amps() * r.as_ohms();
        assert!((v.as_volts() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn supercap_charges_and_discharges() {
        let mut cap = Supercap::new(Farads::new(1.0), Volts::new(2.0));
        cap.step(Seconds::new(1.0), Amps::from_milli_amps(100.0), Power::ZERO);
        assert!(cap.voltage().as_volts() > 2.09); // ~0.1 V rise minus leakage
        let v_before = cap.voltage();
        cap.step(
            Seconds::new(1.0),
            Amps::ZERO,
            Power::from_milli_watts(210.0),
        );
        assert!(cap.voltage() < v_before);
    }

    #[test]
    fn supercap_voltage_clips_at_rating() {
        let mut cap = Supercap::new(Farads::new(0.001), Volts::new(5.4));
        for _ in 0..1000 {
            cap.step(Seconds::new(1.0), Amps::from_milli_amps(10.0), Power::ZERO);
        }
        assert!(cap.voltage() <= cap.max_voltage);
    }

    #[test]
    fn supercap_drain_energy_reduces_voltage() {
        let mut cap = Supercap::new(Farads::new(1.0), Volts::new(3.0));
        let before = cap.stored_energy();
        cap.drain_energy(Energy::from_milli_joules(500.0));
        let after = cap.stored_energy();
        assert!((before.as_joules() - after.as_joules() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn supercap_drain_beyond_stored_floors_at_zero() {
        let mut cap = Supercap::new(Farads::new(0.001), Volts::new(1.0));
        cap.drain_energy(Energy::new(100.0));
        assert_eq!(cap.voltage(), Volts::ZERO);
    }

    #[test]
    fn usable_energy_zero_below_cutoff() {
        let cap = Supercap::new(Farads::new(1.0), Volts::new(1.5));
        assert_eq!(cap.usable_energy(Volts::new(1.8)), Energy::ZERO);
    }

    #[test]
    fn terminal_voltage_sags_under_load() {
        let cap = Supercap::new(Farads::new(1.0), Volts::new(3.0));
        let idle = cap.terminal_voltage(Power::ZERO);
        assert_eq!(idle, Volts::new(3.0));
        // 20 mW at 3 V → ~6.7 mA → ~13 mV sag at 2 Ω.
        let loaded = cap.terminal_voltage(Power::from_milli_watts(20.0));
        let sag_mv = (idle - loaded).as_volts() * 1e3;
        assert!((10.0..20.0).contains(&sag_mv), "sag {sag_mv:.1} mV");
        // Empty cell reports zero, no division blow-up.
        let empty = Supercap::new(Farads::new(1.0), Volts::ZERO);
        assert_eq!(empty.terminal_voltage(Power::new(1.0)), Volts::ZERO);
    }

    #[test]
    fn diode_blocks_reverse_and_drops_forward() {
        let d = SchottkyDiode::default();
        let r = Ohms::new(100.0);
        assert_eq!(d.current(Volts::new(1.0), Volts::new(2.0), r), Amps::ZERO);
        assert_eq!(d.current(Volts::new(2.0), Volts::new(1.9), r), Amps::ZERO);
        let i = d.current(Volts::new(2.0), Volts::new(1.0), r);
        assert!((i.as_amps() - 0.007).abs() < 1e-9);
    }

    #[test]
    fn mosfet_thresholds() {
        let p = Mosfet::si2309();
        assert!(p.conducts(Volts::new(-2.0)));
        assert!(!p.conducts(Volts::new(-1.0)));
        let n = Mosfet::si2304();
        assert!(n.conducts(Volts::new(2.0)));
        assert!(!n.conducts(Volts::new(0.5)));
    }

    #[test]
    fn divider_tap_and_dissipation() {
        let d = ResistorDivider::new(Ohms::new(1e6), Ohms::new(1e6));
        let tap = d.tap(Volts::new(2.0));
        assert!((tap.as_volts() - 1.0).abs() < 1e-12);
        // 2 V over 2 MΩ → 1 µA → 2 µW: this is the paper's standby draw.
        assert!((d.dissipation(Volts::new(2.0)).as_micro_watts() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "divider resistances must be positive")]
    fn divider_rejects_zero_resistance() {
        let _ = ResistorDivider::new(Ohms::ZERO, Ohms::new(1.0));
    }

    proptest! {
        #[test]
        fn mpp_power_monotone_in_lux(lux in 1.0f64..2000.0) {
            let cell = SolarCell::default();
            let p1 = cell.mpp_power(Lux::new(lux), Ratio::new(0.0));
            let p2 = cell.mpp_power(Lux::new(lux * 1.1), Ratio::new(0.0));
            prop_assert!(p2 >= p1);
        }

        #[test]
        fn mpp_power_monotone_in_shading(s in 0.0f64..1.0) {
            let cell = SolarCell::default();
            let p_clear = cell.mpp_power(Lux::new(500.0), Ratio::new(0.0));
            let p_shaded = cell.mpp_power(Lux::new(500.0), Ratio::new(s));
            prop_assert!(p_shaded <= p_clear + Power::new(1e-15));
        }

        #[test]
        fn supercap_never_exceeds_bounds(
            v0 in 0.0f64..5.5,
            current in 0.0f64..1.0,
            load in 0.0f64..1.0,
            steps in 1usize..100,
        ) {
            let mut cap = Supercap::new(Farads::new(0.01), Volts::new(v0));
            for _ in 0..steps {
                cap.step(
                    Seconds::from_millis(10.0),
                    Amps::new(current),
                    Power::new(load),
                );
                prop_assert!(cap.voltage().as_volts() >= 0.0);
                prop_assert!(cap.voltage() <= cap.max_voltage);
            }
        }

        #[test]
        fn divider_tap_below_input(v in 0.0f64..10.0, r1 in 1.0f64..1e7, r2 in 1.0f64..1e7) {
            let d = ResistorDivider::new(Ohms::new(r1), Ohms::new(r2));
            let tap = d.tap(Volts::new(v));
            prop_assert!(tap.as_volts() <= v + 1e-12);
            prop_assert!(tap.as_volts() >= 0.0);
        }
    }
}
