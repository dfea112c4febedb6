//! Shared helpers for the figure/table regenerators.
//!
//! Every `benches/<id>.rs` target regenerates one table or figure of the
//! paper as text output (rows/series), so `cargo bench --workspace` rebuilds
//! the full evaluation. Set `SOLARML_FULL=1` to run the search-based
//! experiments (Fig. 10, end-to-end) at the paper's full scale instead of
//! the quick defaults.

/// Whether full-scale (paper-setting) runs were requested.
pub fn full_scale() -> bool {
    std::env::var("SOLARML_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints a figure/table header.
pub fn header(id: &str, caption: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
    }
}
