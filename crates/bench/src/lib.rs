//! # dehealth-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each printing the same rows/series the paper reports. The
//! `repro` binary dispatches to these modules. The two experiments whose
//! asserts compare wall-clock times (`service`, `snapshot_load`) are
//! tested one at a time in their own test binary, `tests/timing.rs`.
//!
//! Experiments default to laptop-scale populations (hundreds to a few
//! thousand users). Scale is a parameter everywhere, so paper-scale runs
//! are a matter of patience, not code.

pub mod experiments;
pub mod report;

/// Print a two-column table with a caption.
pub fn print_series<X: std::fmt::Display, Y: std::fmt::Display>(
    caption: &str,
    x_label: &str,
    y_label: &str,
    rows: &[(X, Y)],
) {
    println!("\n# {caption}");
    println!("{x_label:>12}  {y_label}");
    for (x, y) in rows {
        println!("{x:>12}  {y}");
    }
}

/// Format a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.873), "87.3%");
    }
}
