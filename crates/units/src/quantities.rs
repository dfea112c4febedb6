//! The quantity newtypes and their physically meaningful arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::display::SiValue;
use crate::error::UnitError;

/// Defines a quantity newtype with the shared boilerplate: constructors,
/// accessors, same-type arithmetic, scalar scaling, ordering helpers.
///
/// The trailing `nonneg` marker declares the quantity physically
/// non-negative: its `try_new` rejects values below zero (a capacitance or
/// an illuminance below zero has no meaning; a signed power or current
/// does — it is just flow in the other direction).
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $base_new:ident, $base_get:ident) => {
        quantity!(@impl $(#[$meta])* $name, $unit, $base_new, $base_get, f64::NEG_INFINITY);
    };
    ($(#[$meta:meta])* $name:ident, $unit:literal, $base_new:ident, $base_get:ident, nonneg) => {
        quantity!(@impl $(#[$meta])* $name, $unit, $base_new, $base_get, 0.0);
    };
    (@impl $(#[$meta:meta])* $name:ident, $unit:literal, $base_new:ident, $base_get:ident, $min:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from a value in base SI units.
            ///
            /// Debug builds reject NaN here — a NaN quantity is always an
            /// upstream bug, and catching it at construction pins the blame
            /// to the right call site instead of a downstream comparison.
            #[inline]
            pub const fn new(value: f64) -> Self {
                debug_assert!(
                    !value.is_nan(),
                    concat!(stringify!($name), "::new called with NaN")
                );
                Self(value)
            }

            /// Checked constructor: rejects NaN always, and negative values
            /// for physically non-negative quantities.
            #[inline]
            pub fn try_new(value: f64) -> Result<Self, UnitError> {
                if value.is_nan() {
                    Err(UnitError::NotFinite {
                        quantity: stringify!($name),
                        value,
                    })
                } else if value < $min {
                    Err(UnitError::Negative {
                        quantity: stringify!($name),
                        value,
                    })
                } else {
                    Ok(Self(value))
                }
            }

            /// Creates the quantity from a value in base SI units.
            #[inline]
            pub const fn $base_new(value: f64) -> Self {
                Self::new(value)
            }

            /// Returns the value in base SI units.
            #[inline]
            pub const fn $base_get(self) -> f64 {
                self.0
            }

            /// Returns the raw value in base SI units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the quantity to `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Mul<Ratio> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Ratio) -> Self {
                Self(self.0 * rhs.get())
            }
        }

        impl Mul<$name> for Ratio {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self.get() * rhs.0)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", SiValue(self.0), $unit)
            }
        }
    };
}

quantity!(
    /// An amount of energy, stored in joules.
    Energy, "J", from_joules, as_joules
);
quantity!(
    /// A power draw or supply, stored in watts.
    Power, "W", from_watts, as_watts
);
quantity!(
    /// A duration or timestamp, stored in seconds.
    Seconds, "s", from_seconds, as_seconds
);
quantity!(
    /// An electric potential, stored in volts.
    Volts, "V", from_volts, as_volts
);
quantity!(
    /// An electric current, stored in amperes.
    Amps, "A", from_amps, as_amps
);
quantity!(
    /// An electric charge, stored in coulombs.
    Charge, "C", from_coulombs, as_coulombs
);
quantity!(
    /// A capacitance, stored in farads. Physically non-negative.
    Capacitance, "F", from_farads, as_farads, nonneg
);
quantity!(
    /// A resistance, stored in ohms. Physically non-negative.
    Resistance, "Ω", from_ohms, as_ohms, nonneg
);
quantity!(
    /// A frequency, stored in hertz. Physically non-negative.
    Frequency, "Hz", from_hertz, as_hertz, nonneg
);
quantity!(
    /// An illuminance, stored in lux. Physically non-negative.
    Lux, "lx", from_lux, as_lux, nonneg
);
quantity!(
    /// A count of MCU clock cycles (may be fractional after scaling).
    /// Physically non-negative.
    Cycles, "cy", from_cycles, as_cycles, nonneg
);
quantity!(
    /// A geographic angle, stored in degrees (latitude: positive north).
    /// Carried as its own quantity so the scenario language can reject a
    /// lux value where a latitude is expected at load time.
    Degrees, "deg", from_degrees, as_degrees
);

/// A dimensionless ratio: shading factors, efficiencies, duty cycles,
/// energy fractions.
///
/// Defined by hand rather than via `quantity!` because its arithmetic is
/// different in kind: a ratio times a ratio is still a ratio, and every
/// quantity may be scaled by one (`Power * Ratio -> Power`, generated in
/// the `quantity!` macro).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Self = Self(0.0);
    /// The unit ratio (no attenuation, 100 % efficiency, …).
    pub const ONE: Self = Self(1.0);

    /// Creates a ratio. Debug builds reject NaN.
    #[inline]
    pub const fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "Ratio::new called with NaN");
        Self(value)
    }

    /// Checked constructor: rejects NaN.
    #[inline]
    pub fn try_new(value: f64) -> Result<Self, UnitError> {
        if value.is_nan() {
            Err(UnitError::NotFinite {
                quantity: "Ratio",
                value,
            })
        } else {
            Ok(Self(value))
        }
    }

    /// Creates a ratio that must lie in `[0, 1]` (a fraction: shading,
    /// duty cycle, survival rate). Debug builds reject values outside.
    #[inline]
    pub fn fraction(value: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&value),
            "Ratio::fraction called with a value outside [0, 1]"
        );
        Self(value)
    }

    /// Checked `[0, 1]` constructor.
    #[inline]
    pub fn try_fraction(value: f64) -> Result<Self, UnitError> {
        if value.is_nan() {
            Err(UnitError::NotFinite {
                quantity: "Ratio",
                value,
            })
        } else if !(0.0..=1.0).contains(&value) {
            Err(UnitError::OutOfRange {
                quantity: "Ratio",
                value,
                lo: 0.0,
                hi: 1.0,
            })
        } else {
            Ok(Self(value))
        }
    }

    /// Returns the raw dimensionless value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the raw dimensionless value (alias of [`Ratio::get`], for
    /// symmetry with the other quantities).
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Clamps into `[0, 1]`.
    #[inline]
    pub fn clamp01(self) -> Self {
        Self(self.0.clamp(0.0, 1.0))
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns `true` if the underlying value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Mul for Ratio {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Mul<Ratio> for f64 {
    type Output = Ratio;
    #[inline]
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self * rhs.0)
    }
}

impl Add for Ratio {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Ratio {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Alias: energy in joules.
pub type Joules = Energy;
/// Alias: power in watts.
pub type Watts = Power;
/// Alias: capacitance in farads.
pub type Farads = Capacitance;
/// Alias: resistance in ohms.
pub type Ohms = Resistance;
/// Alias: frequency in hertz.
pub type Hertz = Frequency;

impl Energy {
    /// Creates an energy from nanojoules (the natural scale for per-MAC
    /// compute costs).
    #[inline]
    pub fn from_nano_joules(nj: f64) -> Self {
        Self::new(nj * 1e-9)
    }

    /// Returns the energy in nanojoules.
    #[inline]
    pub fn as_nano_joules(self) -> f64 {
        self.as_joules() * 1e9
    }

    /// Creates an energy from millijoules.
    #[inline]
    pub fn from_milli_joules(mj: f64) -> Self {
        Self::new(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    #[inline]
    pub fn from_micro_joules(uj: f64) -> Self {
        Self::new(uj * 1e-6)
    }

    /// Returns the energy in millijoules.
    #[inline]
    pub fn as_milli_joules(self) -> f64 {
        self.as_joules() * 1e3
    }

    /// Returns the energy in microjoules.
    #[inline]
    pub fn as_micro_joules(self) -> f64 {
        self.as_joules() * 1e6
    }
}

impl Power {
    /// Creates a power from milliwatts.
    #[inline]
    pub fn from_milli_watts(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    #[inline]
    pub fn from_micro_watts(uw: f64) -> Self {
        Self::new(uw * 1e-6)
    }

    /// Returns the power in milliwatts.
    #[inline]
    pub fn as_milli_watts(self) -> f64 {
        self.as_watts() * 1e3
    }

    /// Returns the power in microwatts.
    #[inline]
    pub fn as_micro_watts(self) -> f64 {
        self.as_watts() * 1e6
    }
}

impl Seconds {
    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration from minutes.
    #[inline]
    pub fn from_minutes(min: f64) -> Self {
        Self::new(min * 60.0)
    }

    /// Returns the duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.as_seconds() * 1e3
    }

    /// Returns the duration in minutes.
    #[inline]
    pub fn as_minutes(self) -> f64 {
        self.as_seconds() / 60.0
    }
}

impl Amps {
    /// Creates a current from milliamps.
    #[inline]
    pub fn from_milli_amps(ma: f64) -> Self {
        Self::new(ma * 1e-3)
    }

    /// Creates a current from microamps.
    #[inline]
    pub fn from_micro_amps(ua: f64) -> Self {
        Self::new(ua * 1e-6)
    }

    /// Returns the current in milliamps.
    #[inline]
    pub fn as_milli_amps(self) -> f64 {
        self.as_amps() * 1e3
    }

    /// Returns the current in microamps.
    #[inline]
    pub fn as_micro_amps(self) -> f64 {
        self.as_amps() * 1e6
    }
}

impl Frequency {
    /// Returns the period `1/f`.
    ///
    /// # Panics
    ///
    /// Does not panic; a zero frequency yields an infinite period.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.as_hertz())
    }
}

impl Capacitance {
    /// Energy stored in a capacitor charged to `v`: `E = ½·C·V²`.
    #[inline]
    pub fn stored_energy(self, v: Volts) -> Energy {
        Energy::new(0.5 * self.as_farads() * v.as_volts() * v.as_volts())
    }

    /// The voltage a charge `q` produces on this capacitance: `V = Q/C`.
    #[inline]
    pub fn voltage_for_charge(self, q: Charge) -> Volts {
        Volts::new(q.as_coulombs() / self.as_farads())
    }
}

// ---------------------------------------------------------------------------
// Cross-quantity arithmetic: only the physically meaningful products.
// ---------------------------------------------------------------------------

impl Mul<Seconds> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::new(self.as_watts() * rhs.as_seconds())
    }
}

impl Mul<Power> for Seconds {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Seconds) -> Power {
        Power::new(self.as_joules() / rhs.as_seconds())
    }
}

impl Div<Power> for Energy {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Power) -> Seconds {
        Seconds::new(self.as_joules() / rhs.as_watts())
    }
}

impl Mul<Amps> for Volts {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Amps) -> Power {
        Power::new(self.as_volts() * rhs.as_amps())
    }
}

impl Mul<Volts> for Amps {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Volts) -> Power {
        rhs * self
    }
}

impl Div<Resistance> for Volts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Resistance) -> Amps {
        Amps::new(self.as_volts() / rhs.as_ohms())
    }
}

impl Mul<Resistance> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Resistance) -> Volts {
        Volts::new(self.as_amps() * rhs.as_ohms())
    }
}

impl Mul<Seconds> for Amps {
    type Output = Charge;
    #[inline]
    fn mul(self, rhs: Seconds) -> Charge {
        Charge::new(self.as_amps() * rhs.as_seconds())
    }
}

impl Mul<Volts> for Capacitance {
    type Output = Charge;
    #[inline]
    fn mul(self, rhs: Volts) -> Charge {
        Charge::new(self.as_farads() * rhs.as_volts())
    }
}

impl Div<Capacitance> for Charge {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Capacitance) -> Volts {
        Volts::new(self.as_coulombs() / rhs.as_farads())
    }
}

impl Div<Volts> for Power {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps::new(self.as_watts() / rhs.as_volts())
    }
}

impl Div<Frequency> for Cycles {
    /// Cycles at a clock rate take `n / f` seconds.
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Frequency) -> Seconds {
        Seconds::new(self.as_cycles() / rhs.as_hertz())
    }
}

impl Mul<Seconds> for Frequency {
    /// A clock running for a duration accumulates `f · t` cycles.
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: Seconds) -> Cycles {
        Cycles::new(self.as_hertz() * rhs.as_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(Power::from_micro_watts(2.0).to_string(), "2.00 µW");
        assert_eq!(Energy::from_milli_joules(12.7).to_string(), "12.7 mJ");
        assert_eq!(Seconds::new(31.0).to_string(), "31.0 s");
        assert_eq!(Volts::new(3.3).to_string(), "3.30 V");
    }

    #[test]
    fn ratio_of_like_quantities_is_dimensionless() {
        let ratio = Energy::new(10.0) / Energy::new(4.0);
        assert!((ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sum_collects() {
        let total: Energy = (1..=4).map(|i| Energy::new(i as f64)).sum();
        assert!((total.as_joules() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn charge_integration() {
        let q = Amps::from_milli_amps(2.0) * Seconds::new(3.0);
        assert!((q.as_coulombs() - 6e-3).abs() < 1e-15);
    }

    #[test]
    fn power_through_voltage_gives_current() {
        let i = Power::from_milli_watts(33.0) / Volts::new(3.3);
        assert!((i.as_milli_amps() - 10.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Energy::new(a);
            let y = Energy::new(b);
            let back = (x + y) - y;
            prop_assert!((back.as_joules() - a).abs() <= 1e-6 * (1.0 + a.abs() + b.abs()));
        }

        #[test]
        fn power_time_energy_consistent(p in 0.0f64..1e3, t in 0.0f64..1e3) {
            let e = Power::new(p) * Seconds::new(t);
            prop_assert!((e.as_joules() - p * t).abs() <= 1e-9 * (1.0 + p * t));
            if t > 1e-9 {
                let p2 = e / Seconds::new(t);
                prop_assert!((p2.as_watts() - p).abs() <= 1e-9 * (1.0 + p));
            }
        }

        #[test]
        fn scalar_scaling_linear(v in -1e3f64..1e3, k in -1e3f64..1e3) {
            let q = Volts::new(v) * k;
            prop_assert!((q.as_volts() - v * k).abs() <= 1e-9 * (1.0 + (v * k).abs()));
        }

        #[test]
        fn capacitor_energy_nonnegative(c in 1e-6f64..10.0, v in -10.0f64..10.0) {
            prop_assert!(Farads::new(c).stored_energy(Volts::new(v)).as_joules() >= 0.0);
        }
    }
}
