//! The typed scenario AST and its canonical rendering.
//!
//! Equality ignores source positions: two ASTs are equal when they would
//! evaluate identically, which is what the `parse(render(ast)) == ast`
//! round-trip property pins. Rendering is canonical — one line, named
//! arguments kept, `, ` separators — and every value renders through
//! Rust's shortest-round-trip float formatting, so the rendered script
//! parses back to bit-identical numbers.

use std::fmt;
use std::fmt::Write as _;

/// A unit suffix attached to a number literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitSuffix {
    /// `deg` — geographic degrees of latitude.
    Deg,
    /// `lux` — illuminance ([`solarml_units::Lux`]).
    Lux,
    /// `s` — seconds ([`solarml_units::Seconds`]).
    Sec,
    /// `min` — minutes, scaled to seconds at load time.
    Min,
    /// `F` — farads ([`solarml_units::Farads`]).
    Farad,
}

impl UnitSuffix {
    /// The suffix as written in scripts.
    pub fn text(self) -> &'static str {
        match self {
            UnitSuffix::Deg => "deg",
            UnitSuffix::Lux => "lux",
            UnitSuffix::Sec => "s",
            UnitSuffix::Min => "min",
            UnitSuffix::Farad => "F",
        }
    }

    /// Parses a suffix identifier, if it is one.
    pub fn from_text(text: &str) -> Option<Self> {
        match text {
            "deg" => Some(UnitSuffix::Deg),
            "lux" => Some(UnitSuffix::Lux),
            "s" => Some(UnitSuffix::Sec),
            "min" => Some(UnitSuffix::Min),
            "F" => Some(UnitSuffix::Farad),
            _ => None,
        }
    }
}

/// A time of day, minute resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeOfDay {
    /// Hour, 0–24 (24:00 names end of day).
    pub hour: u32,
    /// Minute, 0–59.
    pub minute: u32,
}

impl TimeOfDay {
    /// Seconds since midnight.
    pub fn as_seconds(self) -> f64 {
        f64::from(self.hour) * 3600.0 + f64::from(self.minute) * 60.0
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}", self.hour, self.minute)
    }
}

/// An argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A bare number: counts, probabilities, scale factors.
    Num(f64),
    /// A number with a unit suffix: `47.6 deg`, `800 lux`, `600 s`.
    Quantity(f64, UnitSuffix),
    /// A time of day: `08:00`.
    Time(TimeOfDay),
    /// A time span: `12:00..13:00`.
    Span(TimeOfDay, TimeOfDay),
    /// A nested combinator call (the members of `overlay`).
    Call(Call),
}

/// One argument: optionally named, positionally typed otherwise.
#[derive(Debug, Clone)]
pub struct Arg {
    /// Parameter name, when written `name: value`.
    pub name: Option<String>,
    /// The argument value.
    pub value: Value,
    /// 1-based source position of the value, for type errors.
    pub pos: (usize, usize),
}

impl PartialEq for Arg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.value == other.value
    }
}

/// A combinator call: `name(arg, ...)`.
#[derive(Debug, Clone)]
pub struct Call {
    /// The combinator name.
    pub name: String,
    /// Arguments in source order.
    pub args: Vec<Arg>,
    /// 1-based source position of the name, for type errors.
    pub pos: (usize, usize),
}

impl PartialEq for Call {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.args == other.args
    }
}

impl Call {
    /// Builds a call with no source position (for programmatic ASTs).
    pub fn new(name: &str, args: Vec<Arg>) -> Self {
        Self {
            name: name.to_string(),
            args,
            pos: (0, 0),
        }
    }
}

impl Arg {
    /// A named argument with no source position.
    pub fn named(name: &str, value: Value) -> Self {
        Self {
            name: Some(name.to_string()),
            value,
            pos: (0, 0),
        }
    }

    /// A positional argument with no source position.
    pub fn positional(value: Value) -> Self {
        Self {
            name: None,
            value,
            pos: (0, 0),
        }
    }
}

/// Renders `call` in canonical form (single line, `, ` separators,
/// shortest-round-trip numbers).
pub fn render(call: &Call) -> String {
    let mut out = String::new();
    render_call(call, &mut out);
    out
}

fn render_call(call: &Call, out: &mut String) {
    out.push_str(&call.name);
    out.push('(');
    for (i, arg) in call.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if let Some(name) = &arg.name {
            out.push_str(name);
            out.push_str(": ");
        }
        render_value(&arg.value, out);
    }
    out.push(')');
}

fn render_value(value: &Value, out: &mut String) {
    match value {
        Value::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Quantity(n, unit) => {
            let _ = write!(out, "{n} {}", unit.text());
        }
        Value::Time(t) => {
            let _ = write!(out, "{t}");
        }
        Value::Span(from, to) => {
            let _ = write!(out, "{from}..{to}");
        }
        Value::Call(inner) => render_call(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_canonical() {
        let ast = Call::new(
            "overlay",
            vec![
                Arg::positional(Value::Call(Call::new(
                    "clear_sky",
                    vec![Arg::named("lat", Value::Quantity(47.6, UnitSuffix::Deg))],
                ))),
                Arg::positional(Value::Call(Call::new(
                    "outage",
                    vec![Arg::positional(Value::Span(
                        TimeOfDay {
                            hour: 12,
                            minute: 0,
                        },
                        TimeOfDay {
                            hour: 13,
                            minute: 0,
                        },
                    ))],
                ))),
            ],
        );
        assert_eq!(
            render(&ast),
            "overlay(clear_sky(lat: 47.6 deg), outage(12:00..13:00))"
        );
    }

    #[test]
    fn equality_ignores_positions() {
        let mut a = Call::new("office", vec![Arg::named("peak", Value::Num(1.0))]);
        let b = a.clone();
        a.pos = (7, 3);
        a.args[0].pos = (9, 9);
        assert_eq!(a, b);
    }
}
