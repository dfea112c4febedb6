//! Byte-stable, dependency-free JSON rendering for report types.
//!
//! The workspace vendors no JSON crate, so every machine-readable report
//! (`DayFaultReport`, the cloudy-day example document, the fleet campaign
//! report) used to hand-roll the same writer. This module is the one shared
//! implementation; it lives in `solarml-trace` because that is the lowest
//! layer every report producer already depends on (the `solarml` umbrella
//! crate re-exports it as `solarml::JsonObject`).
//!
//! # Stability contract
//!
//! The rendered bytes are pinned by golden fixtures
//! (`tests/golden/day_fault_*.json`) and by the fleet determinism suite, so
//! the format is frozen:
//!
//! * objects open with `{\n`, close with `}` at the parent indent, and
//!   carry **no** trailing newline (callers writing files append their own);
//! * each field renders as `<indent>"key": value` with two-space indent per
//!   nesting level, one field per line, comma-separated;
//! * integers render bare; floats use Rust's shortest round-trip `{}`
//!   `Display` (so `0.0` renders as `0` and re-parses exactly), which makes
//!   identical values produce identical bytes on every platform;
//! * arrays render inline as `[a, b, c]`.
//!
//! Non-finite floats have no JSON representation and render as `null`.

/// A field value: either pre-rendered JSON text or a nested object.
#[derive(Debug, Clone)]
enum JsonValue {
    Raw(String),
    Object(JsonObject),
}

/// An ordered JSON object builder with byte-stable rendering.
///
/// Fields render in insertion order. All `&mut self` builders return
/// `&mut Self` so construction chains.
///
/// # Examples
///
/// ```
/// use solarml_trace::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.count("attempted", 60).number("harvested_j", 1.5);
/// assert_eq!(obj.render(), "{\n  \"attempted\": 60,\n  \"harvested_j\": 1.5\n}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object (renders as `{}`).
    pub fn new() -> Self {
        Self { fields: Vec::new() }
    }

    fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn count(&mut self, key: &str, value: usize) -> &mut Self {
        self.push(key, JsonValue::Raw(value.to_string()))
    }

    /// Adds a float field (shortest round-trip rendering; non-finite values
    /// render as `null`).
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, JsonValue::Raw(float_repr(value)))
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, JsonValue::Raw(value.to_string()))
    }

    /// Adds an escaped string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::with_capacity(value.len() + 2);
        quoted.push('"');
        escape_into(&mut quoted, value);
        quoted.push('"');
        self.push(key, JsonValue::Raw(quoted))
    }

    /// Adds an inline array of unsigned integers (`[a, b, c]`).
    pub fn counts(&mut self, key: &str, values: &[usize]) -> &mut Self {
        let items = values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        self.push(key, JsonValue::Raw(format!("[{items}]")))
    }

    /// Adds an inline array of escaped strings (`["a", "b"]`).
    pub fn strings(&mut self, key: &str, values: &[&str]) -> &mut Self {
        let mut rendered = String::from("[");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                rendered.push_str(", ");
            }
            rendered.push('"');
            escape_into(&mut rendered, v);
            rendered.push('"');
        }
        rendered.push(']');
        self.push(key, JsonValue::Raw(rendered))
    }

    /// Adds a pre-rendered value verbatim. The caller is responsible for it
    /// being valid single-line JSON (use this for integer types the typed
    /// builders do not cover, e.g. `u64`/`u128` via `.to_string()`).
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.push(key, JsonValue::Raw(rendered))
    }

    /// Adds a nested object, rendered one indent level deeper.
    pub fn object(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.push(key, JsonValue::Object(value))
    }

    /// Renders the object at the root indent level. No trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        if self.fields.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        let n = self.fields.len();
        for (i, (key, value)) in self.fields.iter().enumerate() {
            for _ in 0..=indent {
                out.push_str("  ");
            }
            out.push('"');
            escape_into(out, key);
            out.push_str("\": ");
            match value {
                JsonValue::Raw(s) => out.push_str(s),
                JsonValue::Object(o) => o.render_into(out, indent + 1),
            }
            out.push_str(if i + 1 == n { "\n" } else { ",\n" });
        }
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push('}');
    }
}

/// The canonical float rendering: Rust's shortest round-trip `Display` for
/// finite values, `null` for NaN/infinities (which JSON cannot express).
pub fn float_repr(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` per RFC 8259 into `out`.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let code = c as u32;
                for shift in [4u32, 0] {
                    let nibble = (code >> shift) & 0xF;
                    out.push(char::from_digit(nibble, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_renders_braces() {
        assert_eq!(JsonObject::new().render(), "{}");
    }

    #[test]
    fn flat_fields_match_the_golden_format() {
        let mut obj = JsonObject::new();
        obj.count("attempted", 60)
            .counts("rung_completions", &[0])
            .number("mean_accuracy", 0.0)
            .number("harvested_j", 1.5293169379898797);
        assert_eq!(
            obj.render(),
            "{\n  \"attempted\": 60,\n  \"rung_completions\": [0],\n  \
             \"mean_accuracy\": 0,\n  \"harvested_j\": 1.5293169379898797\n}"
        );
    }

    #[test]
    fn nested_objects_indent_two_spaces_per_level() {
        let mut inner = JsonObject::new();
        inner.count("a", 1).count("b", 2);
        let mut outer = JsonObject::new();
        outer.count("seed", 42).object("inner", inner);
        assert_eq!(
            outer.render(),
            "{\n  \"seed\": 42,\n  \"inner\": {\n    \"a\": 1,\n    \"b\": 2\n  }\n}"
        );
    }

    #[test]
    fn float_rendering_is_shortest_round_trip() {
        assert_eq!(float_repr(0.0), "0");
        assert_eq!(float_repr(1.5), "1.5");
        assert_eq!(
            float_repr(5.604017754013919e-13),
            "0.0000000000005604017754013919"
        );
        assert_eq!(float_repr(f64::NAN), "null");
        assert_eq!(float_repr(f64::INFINITY), "null");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let mut obj = JsonObject::new();
        obj.string("path", "a\\b\"c\nd");
        assert_eq!(obj.render(), "{\n  \"path\": \"a\\\\b\\\"c\\nd\"\n}");
        let mut ctl = JsonObject::new();
        ctl.string("ctl", "\u{1}");
        assert_eq!(ctl.render(), "{\n  \"ctl\": \"\\u0001\"\n}");
    }

    #[test]
    fn arrays_and_misc_values_render_inline() {
        let mut obj = JsonObject::new();
        obj.counts("empty", &[])
            .counts("multi", &[1, 2, 3])
            .flag("ok", true)
            .raw("big", u64::MAX.to_string())
            .strings("msgs", &["plain", "needs \"quotes\""]);
        assert_eq!(
            obj.render(),
            "{\n  \"empty\": [],\n  \"multi\": [1, 2, 3],\n  \"ok\": true,\n  \
             \"big\": 18446744073709551615,\n  \
             \"msgs\": [\"plain\", \"needs \\\"quotes\\\"\"]\n}"
        );
    }

    #[test]
    fn identical_content_renders_identical_bytes() {
        let build = || {
            let mut obj = JsonObject::new();
            obj.number("x", 0.1 + 0.2).count("n", 7);
            obj.render()
        };
        assert_eq!(build(), build());
    }
}
