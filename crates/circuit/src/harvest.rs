//! The Figure-4 harvesting & sensing network: a 5×5 solar-cell array with
//! per-cell roles, SPDT switching between harvesting and sensing, and an
//! SPV1050-like boost harvester charging the supercapacitor.
//!
//! Role assignment follows the paper's prototype: all 25 cells harvest; the
//! 9 cells of the bottom-right 3×3 block can additionally be switched onto
//! sensing dividers; 2 bottom-left cells feed the event detector through
//! Schottky blocking diodes (they still contribute harvest current, minus
//! the diode drop).

use solarml_units::{Amps, Lux, Ohms, Power, Ratio, Volts};

use crate::components::{ResistorDivider, SchottkyDiode, SolarCell};

/// What a given cell in the array is wired to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellRole {
    /// Directly wired to the harvester (14 cells in the prototype).
    HarvestOnly,
    /// Behind an SPDT switch: harvests normally, senses on demand (9 cells).
    Sensing,
    /// Behind a Schottky diode, also feeding the event detector (2 cells).
    EventDetection,
}

/// Whether the sensing block is currently harvesting or sensing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HarvestMode {
    /// All SPDT switches on the harvesting branch.
    Harvesting,
    /// Sensing cells diverted onto their dividers (gesture sampling).
    Sensing,
}

/// Geometric/electrical layout of the array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayLayout {
    /// Role of each cell, row-major over the 5×5 grid.
    pub roles: Vec<CellRole>,
    /// The common cell model.
    pub cell: SolarCell,
}

impl Default for ArrayLayout {
    fn default() -> Self {
        Self::paper_prototype()
    }
}

impl ArrayLayout {
    /// The paper's prototype: 5×5 grid, bottom-right 3×3 sensing block,
    /// two bottom-left event cells, the rest harvest-only.
    pub fn paper_prototype() -> Self {
        let mut roles = vec![CellRole::HarvestOnly; 25];
        // Bottom-right 3×3 block (rows 2..5, cols 2..5) senses.
        for row in 2..5 {
            for col in 2..5 {
                roles[row * 5 + col] = CellRole::Sensing;
            }
        }
        // Two bottom-left cells detect events.
        roles[4 * 5] = CellRole::EventDetection;
        roles[4 * 5 + 1] = CellRole::EventDetection;
        Self {
            roles,
            cell: SolarCell::default(),
        }
    }

    /// Number of cells with the given role.
    pub fn count(&self, role: CellRole) -> usize {
        self.roles.iter().filter(|&&r| r == role).count()
    }

    /// Indices (row-major) of all cells with the given role.
    pub fn indices(&self, role: CellRole) -> Vec<usize> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == role)
            .map(|(i, _)| i)
            .collect()
    }
}

/// An SPV1050-like boost harvester, run at the analytic maximum power point.
///
/// Conversion efficiency falls off at very low input power (cold-start and
/// quiescent losses dominate): `η(P) = η_max · (1 − e^(−P/P_knee))`. With the
/// defaults the 25-cell array nets ≈225 µW at 500 lux, ≈390 µW at 1000 lux
/// and ≈103 µW at 250 lux — reproducing the paper's harvesting times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harvester {
    /// Peak conversion efficiency.
    pub eta_max: f64,
    /// Input power at which efficiency reaches `(1−1/e)·η_max`.
    pub knee_power: Power,
}

impl Default for Harvester {
    fn default() -> Self {
        Self {
            eta_max: 0.85,
            knee_power: Power::from_micro_watts(100.0),
        }
    }
}

impl Harvester {
    /// Efficiency at the given raw photovoltaic input power.
    pub fn efficiency(&self, input: Power) -> Ratio {
        if input.as_watts() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.eta_max * (1.0 - (-(input / self.knee_power)).exp()))
    }

    /// Net power delivered to the supercap for a raw PV input.
    pub fn output(&self, input: Power) -> Power {
        input * self.efficiency(input)
    }
}

/// The complete Fig.-4 network: layout + harvester + sensing dividers.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestingArray {
    /// Cell roles and model.
    pub layout: ArrayLayout,
    /// The boost harvester.
    pub harvester: Harvester,
    /// Divider loading each sensing cell while in sensing mode.
    pub sensing_divider: ResistorDivider,
    /// Blocking diodes in front of the event-detection cells.
    pub blocking_diode: SchottkyDiode,
    /// Current SPDT position.
    pub mode: HarvestMode,
}

impl Default for HarvestingArray {
    fn default() -> Self {
        Self {
            layout: ArrayLayout::paper_prototype(),
            harvester: Harvester::default(),
            sensing_divider: ResistorDivider::new(Ohms::new(4.7e5), Ohms::new(4.7e5)),
            blocking_diode: SchottkyDiode::default(),
            mode: HarvestMode::Harvesting,
        }
    }
}

impl HarvestingArray {
    /// Creates the paper-prototype array in harvesting mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the sensing block between harvesting and sensing.
    pub fn set_mode(&mut self, mode: HarvestMode) {
        self.mode = mode;
    }

    /// Net charging current into the supercap at `v_cap`, under ambient
    /// `lux` with per-cell shading `shading(cell_index)` clamped to `[0,1]`:
    /// the [`HarvestingArray::output_power`] at `v_cap`
    /// ([`HarvestingArray::current_into`]).
    ///
    /// No cell is cut off by `v_cap`: the harvester's boost stage decouples
    /// cell voltage from supercap voltage, so the summed power is
    /// converted, `I = η·P_raw / V_cap`, with `V_cap` floored at 0.5 V.
    pub fn charging_current(
        &self,
        lux: Lux,
        v_cap: Volts,
        shading: impl Fn(usize) -> Ratio,
    ) -> Amps {
        Self::current_into(self.output_power(lux, shading), v_cap)
    }

    /// The charging current the harvester's output `power` drives into the
    /// supercap at `v_cap`: `P / max(V_cap, 0.5 V)`. A caller holding the
    /// power re-evaluates the current at another voltage for one division.
    pub fn current_into(power: Power, v_cap: Volts) -> Amps {
        Amps::new(power.as_watts() / v_cap.as_volts().max(0.5))
    }

    /// Power the harvester delivers towards the supercap under ambient
    /// `lux` with per-cell shading `shading(cell_index)` clamped to `[0,1]`.
    ///
    /// Every cell not diverted onto the sensing dividers adds its MPP power;
    /// event cells first lose `I_sc·V_f` to their blocking diode (floored at
    /// zero). The sum goes through the boost converter's efficiency curve.
    ///
    /// The cell model is evaluated once per run of equal clamped shading
    /// values rather than once per cell. Each cell still adds its own term
    /// in layout order, and equal inputs give equal bits, so the sum is
    /// bit-identical to evaluating every cell.
    pub fn output_power(&self, lux: Lux, shading: impl Fn(usize) -> Ratio) -> Power {
        let voc_norm = self.layout.cell.voc_norm();
        // The last shading value's bits, plain-cell and event-cell power.
        let mut memo: Option<(u64, Power, Power)> = None;
        let mut raw = Power::ZERO;
        for (i, &role) in self.layout.roles.iter().enumerate() {
            if self.diverted(role) {
                continue;
            }
            let s = shading(i).clamp01();
            let key = s.get().to_bits();
            let (plain, event) = match memo {
                Some((k, plain, event)) if k == key => (plain, event),
                _ => {
                    let (plain, event) = self.cell_powers(lux, s, voc_norm);
                    memo = Some((key, plain, event));
                    (plain, event)
                }
            };
            raw += if role == CellRole::EventDetection {
                event
            } else {
                plain
            };
        }
        self.harvester.output(raw)
    }

    /// Whether a cell of `role` is diverted onto the sensing dividers.
    fn diverted(&self, role: CellRole) -> bool {
        role == CellRole::Sensing && self.mode == HarvestMode::Sensing
    }

    /// The MPP power of one plain cell and of one diode-fed event cell
    /// under `lux` with `shading` covered, the `V_oc` denominator
    /// `voc_norm` given.
    fn cell_powers(&self, lux: Lux, shading: Ratio, voc_norm: f64) -> (Power, Power) {
        let cell = &self.layout.cell;
        let isc = cell.short_circuit_current(lux, shading);
        let plain = cell.mpp_power_at(isc, voc_norm);
        // The Schottky diode eats its forward drop's share of power.
        let event = (plain - isc * self.blocking_diode.forward_drop).max(Power::ZERO);
        (plain, event)
    }

    /// The array as a function of lux alone, with no cell shaded
    /// ([`UnshadedArray`]).
    pub fn unshaded(self) -> UnshadedArray {
        let voc_norm = self.layout.cell.voc_norm();
        UnshadedArray {
            array: self,
            voc_norm,
        }
    }

    /// Sensing-channel voltages (9 taps, row-major over the 3×3 block) for
    /// the current illumination and per-cell shading. Only meaningful in
    /// [`HarvestMode::Sensing`]; in harvesting mode all taps read zero.
    pub fn sensing_voltages(&self, lux: Lux, shading: impl Fn(usize) -> Ratio) -> Vec<Volts> {
        if self.mode != HarvestMode::Sensing {
            return vec![Volts::ZERO; self.layout.count(CellRole::Sensing)];
        }
        self.layout
            .indices(CellRole::Sensing)
            .into_iter()
            .map(|i| {
                let s = shading(i).clamp01();
                let v_cell = self
                    .layout
                    .cell
                    .loaded_voltage(lux, s, self.sensing_divider.total());
                self.sensing_divider.tap(v_cell)
            })
            .collect()
    }

    /// Static power burned in the sensing dividers while sensing.
    pub fn sensing_power(&self, lux: Lux, shading: impl Fn(usize) -> Ratio) -> Power {
        if self.mode != HarvestMode::Sensing {
            return Power::ZERO;
        }
        self.layout
            .indices(CellRole::Sensing)
            .into_iter()
            .map(|i| {
                let s = shading(i).clamp01();
                let v_cell = self
                    .layout
                    .cell
                    .loaded_voltage(lux, s, self.sensing_divider.total());
                self.sensing_divider.dissipation(v_cell)
            })
            .sum()
    }
}

/// A [`HarvestingArray`] with no cell shaded, the case of a rail that
/// samples the light many times a day: the cell model's light-independent
/// `V_oc` denominator is worked out once, when it is built
/// ([`HarvestingArray::unshaded`]), and each call evaluates the cell model
/// once and adds every non-diverted cell's term in layout order. So
/// [`UnshadedArray::output_power`] equals the array's
/// `output_power(lux, |_| Ratio::ZERO)` bit for bit. It owns its array,
/// so the two cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct UnshadedArray {
    array: HarvestingArray,
    voc_norm: f64,
}

impl UnshadedArray {
    /// [`HarvestingArray::output_power`] under `lux` with no cell shaded.
    pub fn output_power(&self, lux: Lux) -> Power {
        let array = &self.array;
        let (plain, event) = array.cell_powers(lux, Ratio::ZERO, self.voc_norm);
        let mut raw = Power::ZERO;
        for &role in &array.layout.roles {
            if array.diverted(role) {
                continue;
            }
            raw += if role == CellRole::EventDetection {
                event
            } else {
                plain
            };
        }
        array.harvester.output(raw)
    }

    /// [`HarvestingArray::charging_current`] into the supercap at `v_cap`
    /// under `lux` with no cell shaded.
    pub fn charging_current(&self, lux: Lux, v_cap: Volts) -> Amps {
        HarvestingArray::current_into(self.output_power(lux), v_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn no_shade(_: usize) -> Ratio {
        Ratio::ZERO
    }

    #[test]
    fn prototype_role_counts_match_paper() {
        let layout = ArrayLayout::paper_prototype();
        assert_eq!(layout.roles.len(), 25);
        assert_eq!(layout.count(CellRole::Sensing), 9);
        assert_eq!(layout.count(CellRole::EventDetection), 2);
        assert_eq!(layout.count(CellRole::HarvestOnly), 14);
    }

    #[test]
    fn net_harvest_power_matches_calibration() {
        let array = HarvestingArray::new();
        let v = Volts::new(3.0);
        for (lux, lo, hi) in [
            (500.0, 180.0, 260.0),
            (1000.0, 320.0, 460.0),
            (250.0, 80.0, 130.0),
        ] {
            let i = array.charging_current(Lux::new(lux), v, no_shade);
            let p = (v * i).as_micro_watts();
            assert!(
                (lo..hi).contains(&p),
                "net harvest at {lux} lux should be in [{lo},{hi}] µW, got {p:.1}"
            );
        }
    }

    #[test]
    fn harvesting_times_match_paper_shape() {
        // §V-D: 6660 µJ in ~31 s at 500 lux, ~19 s at 1000 lux, 1–2 min at 250.
        let array = HarvestingArray::new();
        let v = Volts::new(3.0);
        let time_for = |lux: f64, uj: f64| {
            let i = array.charging_current(Lux::new(lux), v, no_shade);
            uj / (v * i).as_micro_watts()
        };
        let t500 = time_for(500.0, 6660.0);
        let t1000 = time_for(1000.0, 6660.0);
        let t250 = time_for(250.0, 6660.0);
        assert!((24.0..40.0).contains(&t500), "t500={t500:.1}");
        assert!((14.0..24.0).contains(&t1000), "t1000={t1000:.1}");
        assert!((55.0..120.0).contains(&t250), "t250={t250:.1}");
        assert!(t1000 < t500 && t500 < t250);
    }

    #[test]
    fn sensing_mode_reduces_harvest() {
        let mut array = HarvestingArray::new();
        let v = Volts::new(3.0);
        let full = array.charging_current(Lux::new(500.0), v, no_shade);
        array.set_mode(HarvestMode::Sensing);
        let reduced = array.charging_current(Lux::new(500.0), v, no_shade);
        assert!(reduced < full);
        // 9 of 25 cells diverted → roughly 64% of the raw power remains.
        let ratio = reduced / full;
        assert!((0.5..0.8).contains(&ratio), "ratio={ratio:.2}");
    }

    #[test]
    fn sensing_voltages_respond_to_shading() {
        let mut array = HarvestingArray::new();
        array.set_mode(HarvestMode::Sensing);
        let sensing_idx = array.layout.indices(CellRole::Sensing);
        let target = sensing_idx[4]; // centre of the 3×3 block
        let vs = array.sensing_voltages(Lux::new(500.0), |i| {
            if i == target {
                Ratio::new(0.9)
            } else {
                Ratio::ZERO
            }
        });
        assert_eq!(vs.len(), 9);
        let covered = vs[4];
        let clear = vs[0];
        assert!(covered.as_volts() < 0.5 * clear.as_volts());
    }

    #[test]
    fn sensing_voltages_zero_in_harvest_mode() {
        let array = HarvestingArray::new();
        for v in array.sensing_voltages(Lux::new(500.0), no_shade) {
            assert_eq!(v, Volts::ZERO);
        }
        assert_eq!(array.sensing_power(Lux::new(500.0), no_shade), Power::ZERO);
    }

    #[test]
    fn harvester_efficiency_knee() {
        let h = Harvester::default();
        assert_eq!(h.efficiency(Power::ZERO), Ratio::ZERO);
        let low = h.efficiency(Power::from_micro_watts(20.0)).get();
        let high = h.efficiency(Power::from_micro_watts(500.0)).get();
        assert!(low < 0.3 * 0.85 / 0.2, "low-power efficiency collapses");
        assert!(high > 0.8, "high-power efficiency near peak: {high:.2}");
        assert!(low < high);
    }

    #[test]
    fn event_cells_pay_diode_drop() {
        let mut array = HarvestingArray::new();
        let v = Volts::new(3.0);
        let with_diode = array.charging_current(Lux::new(500.0), v, no_shade);
        array.blocking_diode.forward_drop = Volts::ZERO;
        let without = array.charging_current(Lux::new(500.0), v, no_shade);
        assert!(with_diode < without);
    }

    /// The per-cell loop `charging_current` replaced, kept as its oracle:
    /// the cell model evaluated afresh for every cell.
    fn per_cell_charging_current(
        array: &HarvestingArray,
        lux: Lux,
        v_cap: Volts,
        shading: impl Fn(usize) -> Ratio,
    ) -> Amps {
        let mut raw = Power::ZERO;
        for (i, &role) in array.layout.roles.iter().enumerate() {
            if role == CellRole::Sensing && array.mode == HarvestMode::Sensing {
                continue;
            }
            let s = shading(i).clamp01();
            let mut p = array.layout.cell.mpp_power(lux, s);
            if role == CellRole::EventDetection {
                let isc = array.layout.cell.short_circuit_current(lux, s);
                p = (p - isc * array.blocking_diode.forward_drop).max(Power::ZERO);
            }
            raw += p;
        }
        let out = array.harvester.output(raw);
        Amps::new(out.as_watts() / v_cap.as_volts().max(0.5))
    }

    proptest! {
        #[test]
        fn charging_current_matches_per_cell_oracle_bitwise(
            pattern in proptest::collection::vec(0usize..6, 25),
            distinct in 1usize..7,
            lux in 0.0f64..3000.0,
            v in 0.0f64..6.0,
            sensing in 0u8..2,
        ) {
            // A few values, so repeats, alternations and runs all occur;
            // -0.2 and 1.5 only equal 0.0 and 1.0 once clamped.
            const VALUES: [f64; 6] = [0.0, -0.0, 1.0, 0.35, -0.2, 1.5];
            let shade = |i: usize| Ratio::new(VALUES[pattern[i] % distinct]);
            let mut array = HarvestingArray::new();
            if sensing == 1 {
                array.set_mode(HarvestMode::Sensing);
            }
            let calls = std::cell::Cell::new(0usize);
            let got = array.charging_current(Lux::new(lux), Volts::new(v), |i| {
                calls.set(calls.get() + 1);
                shade(i)
            });
            let want = per_cell_charging_current(&array, Lux::new(lux), Volts::new(v), shade);
            prop_assert_eq!(got.as_amps().to_bits(), want.as_amps().to_bits());
            let live = if sensing == 1 { 25 - 9 } else { 25 };
            prop_assert_eq!(calls.get(), live);
        }

        /// The current is the output power over `max(v, 0.5 V)`, bit for
        /// bit, so a caller holding the power can re-evaluate the current
        /// at a new voltage without re-running the cell model.
        #[test]
        fn charging_current_is_output_power_over_the_floored_voltage(
            lux in 0.0f64..3000.0,
            v in -1.0f64..6.0,
            shade in 0.0f64..1.0,
            sensing in 0u8..2,
        ) {
            let mut array = HarvestingArray::new();
            if sensing == 1 {
                array.set_mode(HarvestMode::Sensing);
            }
            let shading = |i: usize| Ratio::new(if i % 3 == 0 { shade } else { 0.0 });
            let got = array.charging_current(Lux::new(lux), Volts::new(v), shading);
            let power = array.output_power(Lux::new(lux), shading).as_watts();
            let want = power / v.max(0.5);
            prop_assert_eq!(got.as_amps().to_bits(), want.to_bits());
        }

        /// The unshaded path is the shaded one under `|_| Ratio::ZERO`,
        /// bit for bit, in both modes, from darkness to direct sun.
        #[test]
        fn unshaded_output_power_matches_the_shaded_path_bitwise(
            lux in 0.0f64..1e5,
            v in 0.0f64..6.0,
            sensing in 0u8..2,
        ) {
            let mut array = HarvestingArray::new();
            if sensing == 1 {
                array.set_mode(HarvestMode::Sensing);
            }
            let lux = Lux::new(lux);
            let want = array.output_power(lux, no_shade);
            let want_current = array.charging_current(lux, Volts::new(v), no_shade);
            let unshaded = array.unshaded();
            prop_assert_eq!(unshaded.output_power(lux).as_watts().to_bits(), want.as_watts().to_bits());
            prop_assert_eq!(
                unshaded.charging_current(lux, Volts::new(v)).as_amps().to_bits(),
                want_current.as_amps().to_bits()
            );
        }

        #[test]
        fn charging_current_nonnegative_and_monotone_in_lux(
            lux in 1.0f64..2000.0,
            v in 0.5f64..5.0,
        ) {
            let array = HarvestingArray::new();
            let i1 = array.charging_current(Lux::new(lux), Volts::new(v), no_shade);
            let i2 = array.charging_current(Lux::new(lux * 1.2), Volts::new(v), no_shade);
            prop_assert!(i1.as_amps() >= 0.0);
            prop_assert!(i2 >= i1);
        }

        /// The premise of the pinned-supercap stride: at a fixed `v_cap`
        /// the charging current never falls as lux rises — checked for the
        /// whole array in both modes and for the two diode-fed event cells
        /// alone, whose power is floored at zero below the diode drop.
        #[test]
        fn charging_current_is_non_decreasing_in_lux(
            a in 0.0f64..3000.0,
            b in 0.0f64..3000.0,
            v in 0.0f64..6.0,
            sensing in 0u8..2,
        ) {
            let (lo, hi) = (Lux::new(a.min(b)), Lux::new(a.max(b)));
            let mut array = HarvestingArray::new();
            if sensing == 1 {
                array.set_mode(HarvestMode::Sensing);
            }
            let mut event_only = HarvestingArray::new();
            event_only.layout.roles = vec![CellRole::EventDetection; 2];
            for arr in [&array, &event_only] {
                let i_lo = arr.charging_current(lo, Volts::new(v), no_shade);
                let i_hi = arr.charging_current(hi, Volts::new(v), no_shade);
                prop_assert!(i_lo <= i_hi, "{:?} -> {:?} at {} lux", i_lo, i_hi, hi.as_lux());
            }
        }

        #[test]
        fn full_shade_kills_sensing_voltage(lux in 50.0f64..2000.0) {
            let mut array = HarvestingArray::new();
            array.set_mode(HarvestMode::Sensing);
            let vs = array.sensing_voltages(Lux::new(lux), |_| Ratio::ONE);
            for v in vs {
                prop_assert!(v.as_volts() < 1e-6);
            }
        }
    }
}
