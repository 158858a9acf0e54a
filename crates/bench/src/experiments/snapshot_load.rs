//! Snapshot-load benchmark: owned vs. zero-copy (mmap) reload latency
//! across a corpus-size sweep → `BENCH_snapshot.json`.
//!
//! This is the number the v2 snapshot format exists for. Both modes load
//! the *same* file; the owned path verifies every checksum and decodes
//! every section into heap structures, while the mapped path borrows the
//! attribute-index and refined-context arenas straight out of the
//! mapping (and skips the redundant FNV sweep). The benchmark asserts,
//! at every size of a ≥4× sweep:
//!
//! - **parity** — the mapped-loaded corpus re-serializes to bytes
//!   identical to the owned-loaded one (the cheap proxy for the full
//!   wire-attack parity that `tests/service_parity.rs` pins);
//! - **zero residency** — the mapped corpus keeps 0 arena bytes on the
//!   heap, the owned corpus keeps them all;
//! - **sub-linear relative growth** — going from the smallest to the
//!   largest corpus, the mapped load time grows by strictly less than
//!   the owned load time (the arenas the owned path must checksum +
//!   decode + allocate are exactly the bytes the mapped path never
//!   touches), and at the largest size the mapped load is strictly
//!   faster outright.
//!
//! Timings take the best of [`REPEATS`] runs to shave scheduler noise;
//! the committed JSON records every size × mode cell.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_service::{LoadMode, PreparedCorpus};

/// Timing repetitions per (size, mode) cell; the minimum is reported.
pub const REPEATS: usize = 3;

/// One (corpus size × load mode) measurement.
#[derive(Debug, Clone)]
pub struct LoadCell {
    /// Total generated forum users at this sweep point.
    pub users: usize,
    /// Auxiliary users actually in the snapshot.
    pub aux_users: usize,
    /// Snapshot size on disk, bytes.
    pub snapshot_bytes: u64,
    /// Best-of-[`REPEATS`] owned load, seconds.
    pub owned_seconds: f64,
    /// Best-of-[`REPEATS`] mapped load, seconds.
    pub mapped_seconds: f64,
    /// Arena bytes the owned load keeps resident.
    pub owned_resident_bytes: usize,
    /// Arena bytes the mapped load borrows from the file instead.
    pub mapped_borrowed_bytes: usize,
}

/// Run the benchmark and write `BENCH_snapshot.json` to the working
/// directory. `base_users` is the smallest sweep point; the sweep is
/// `{1, 2, 4} × base_users`.
///
/// # Errors
/// Propagates I/O errors from the snapshot files or the JSON report.
pub fn run(base_users: usize, seed: u64) -> io::Result<PathBuf> {
    let path = PathBuf::from("BENCH_snapshot.json");
    run_to(&path, base_users, seed)?;
    Ok(path)
}

/// Run the benchmark and write the JSON report to `path`.
///
/// # Panics
/// Panics if any property documented in the [module docs](self) fails —
/// the committed numbers must come from a configuration that holds the
/// zero-copy layer's guarantees.
///
/// # Errors
/// Propagates I/O errors.
pub fn run_to(path: &Path, base_users: usize, seed: u64) -> io::Result<Vec<LoadCell>> {
    let sweep: Vec<usize> = [1usize, 2, 4].iter().map(|m| m * base_users).collect();
    println!(
        "\n# Snapshot load: owned vs mapped reload latency, {} → {} users (4× sweep)",
        sweep[0],
        sweep[sweep.len() - 1]
    );
    let mut cells = Vec::new();
    for &users in &sweep {
        let forum = Forum::generate(&ForumConfig::webmd_like(users), seed);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), seed.wrapping_add(1));
        let aux_users = split.auxiliary.n_users;
        let corpus = PreparedCorpus::build(split.auxiliary, Default::default());
        let snap_path = std::env::temp_dir().join(format!("dehealth-snapload-{seed}-{users}.snap"));
        corpus.save(&snap_path).map_err(io::Error::other)?;
        let snapshot_bytes = std::fs::metadata(&snap_path)?.len();

        let timed = |mode: LoadMode| -> Result<(PreparedCorpus, f64), io::Error> {
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let loaded =
                    PreparedCorpus::load_with(&snap_path, mode).map_err(io::Error::other)?;
                best = best.min(t0.elapsed().as_secs_f64());
                last = Some(loaded);
            }
            Ok((last.expect("REPEATS >= 1"), best))
        };
        let (owned, owned_seconds) = timed(LoadMode::Owned)?;
        let (mapped, mapped_seconds) = timed(LoadMode::Mapped)?;

        // Parity: both modes restore the same corpus, bit for bit.
        assert!(!owned.is_mapped() && mapped.is_mapped());
        assert_eq!(
            mapped.to_snapshot_bytes(),
            owned.to_snapshot_bytes(),
            "mapped and owned loads must restore identical corpora"
        );
        let owned_memory = owned.memory_stats();
        let mapped_memory = mapped.memory_stats();
        assert_eq!(mapped_memory.resident_arena_bytes, 0, "mapped arenas must not be resident");
        assert_eq!(owned_memory.borrowed_arena_bytes, 0);
        assert_eq!(owned_memory.resident_arena_bytes, mapped_memory.borrowed_arena_bytes);

        let cell = LoadCell {
            users,
            aux_users,
            snapshot_bytes,
            owned_seconds,
            mapped_seconds,
            owned_resident_bytes: owned_memory.resident_arena_bytes,
            mapped_borrowed_bytes: mapped_memory.borrowed_arena_bytes,
        };
        println!(
            "  {users:>6} users ({aux_users} aux, {snapshot_bytes} bytes): owned \
             {owned_seconds:.4}s, mapped {mapped_seconds:.4}s ({:.0}% of owned; {} arena bytes \
             stay on disk)",
            100.0 * cell.mapped_seconds / cell.owned_seconds.max(1e-12),
            cell.mapped_borrowed_bytes,
        );
        cells.push(cell);
        let _ = std::fs::remove_file(&snap_path);
    }

    // Sub-linear relative growth across the ≥4× sweep: the mapped load's
    // marginal cost must be strictly below the owned load's (it skips
    // the per-byte work on exactly the sections that dominate growth),
    // and at the top of the sweep mapped must win outright.
    let (first, last) = (&cells[0], &cells[cells.len() - 1]);
    let owned_growth = last.owned_seconds - first.owned_seconds;
    let mapped_growth = last.mapped_seconds - first.mapped_seconds;
    assert!(
        mapped_growth < owned_growth,
        "mapped load grew by {mapped_growth:.4}s over the sweep, owned by {owned_growth:.4}s — \
         the zero-copy path must grow sub-linearly vs. the owned path"
    );
    assert!(
        last.mapped_seconds < last.owned_seconds,
        "mapped load ({:.4}s) must beat owned load ({:.4}s) at the largest corpus",
        last.mapped_seconds,
        last.owned_seconds
    );

    write_json(path, seed, &cells)?;
    println!("  wrote {}", path.display());
    Ok(cells)
}

/// Hand-rolled JSON (the workspace carries no serialization dependency).
fn write_json(path: &Path, seed: u64, cells: &[LoadCell]) -> io::Result<()> {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"snapshot-load\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"machine_parallelism\": {parallelism},");
    let _ = writeln!(out, "  \"repeats\": {REPEATS},");
    out.push_str("  \"sweep\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"users\": {}, \"aux_users\": {}, \"snapshot_bytes\": {}, \
             \"owned_seconds\": {:.6}, \"mapped_seconds\": {:.6}, \
             \"owned_resident_bytes\": {}, \"mapped_borrowed_bytes\": {}}}",
            c.users,
            c.aux_users,
            c.snapshot_bytes,
            c.owned_seconds,
            c.mapped_seconds,
            c.owned_resident_bytes,
            c.mapped_borrowed_bytes
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_asserts_parity_residency_and_growth_and_writes_json() {
        let dir = std::env::temp_dir().join("dehealth-snapload-bench-test");
        let path = dir.join("BENCH_snapshot.json");
        let cells = run_to(&path, 60, 13).unwrap();
        assert_eq!(cells.len(), 3);
        assert!(cells.windows(2).all(|w| w[0].snapshot_bytes < w[1].snapshot_bytes));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"snapshot-load\""));
        assert!(text.contains("\"machine_parallelism\""));
        assert!(text.contains("\"mapped_seconds\""));
        assert!(text.contains("\"mapped_borrowed_bytes\""));
        let _ = std::fs::remove_dir_all(dir);
    }
}
