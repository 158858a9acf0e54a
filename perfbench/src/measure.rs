//! Timing and memory primitives: order statistics over samples, a
//! wall-clock helper, and the kernel's peak-RSS mark.

use std::time::Instant;

/// Run `f` and return its result with its wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of `samples`, linearly interpolated between order
/// statistics, so it never leaves the observed range.
///
/// # Panics
/// Panics on an empty sample set.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (see [`quantile`]).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current resident set,
/// so a later [`peak_rss_mib`] measures only what ran after this call.
///
/// # Errors
/// The I/O error when `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// This process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
/// The I/O error reading `/proc/self/status`, or `InvalidData` when the
/// field is missing.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inside_the_sample_range() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
