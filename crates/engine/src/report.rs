//! Per-stage wall-clock and throughput accounting.
//!
//! Every engine run produces an [`EngineReport`]: one [`StageStats`] entry
//! per pipeline stage (a stage recorded more than once accumulates into
//! one entry — e.g. `prepare` in `Engine::run`, which prepares the
//! anonymized side and then the auxiliary one). The daemon
//! exports these counters to its metric registry
//! ([`EngineReport::record_into`]), and `repro scale` writes them to
//! `BENCH_scale.json`.

use std::time::Instant;

use dehealth_core::index::PairTally;

/// Wall-clock and volume counters for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (`"prepare"`, `"structure"`, `"topk"`, `"budget"`,
    /// `"filter"`, `"refined"`).
    pub stage: &'static str,
    /// What `items` counts (`"posts"`, `"users"`, `"pairs"`, `"candidates"`).
    pub unit: &'static str,
    /// Accumulated wall-clock seconds.
    pub seconds: f64,
    /// Accumulated processed item count.
    pub items: u64,
    /// Items the stage *considered* but skipped without processing —
    /// e.g. pairs pruned by the indexed scorer's upper bound before their
    /// degree/distance terms were ever computed. `items + skipped` is the
    /// stage's full workload.
    pub skipped: u64,
}

impl StageStats {
    /// Items per second (0 when no time was observed).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Where the Top-K stage's pairs ended. Every pair the stage considered
/// lands in exactly one outcome, so the three sum to the `topk` stage's
/// `items + skipped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopkPairs {
    /// Pruned on an upper bound of the attribute term, before the exact
    /// hot merge.
    pub pruned_before_merge: u64,
    /// Pruned on the exact attribute term, after the merge.
    pub pruned_after_merge: u64,
    /// Fully scored (degree, distance and attribute terms).
    pub scored: u64,
}

/// The engine's execution report: configuration echoes plus per-stage
/// counters, in pipeline order of first appearance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineReport {
    /// Workers each parallel stage ran, the calling thread included: the
    /// resolved thread count, at most one per anonymized user.
    pub n_threads: usize,
    /// Anonymized users per work block, as the stages cut them
    /// ([`crate::pool::block_len`]): at most the configured
    /// [`EngineConfig::block_size`](crate::EngineConfig::block_size), less
    /// for a small batch.
    pub block_size: usize,
    /// Stage counters.
    pub stages: Vec<StageStats>,
    /// Top-K pair outcomes (pruned before or after the merge, scored).
    pub topk_pairs: TopkPairs,
}

impl EngineReport {
    pub(crate) fn new(n_threads: usize, block_size: usize) -> Self {
        Self { n_threads, block_size, ..Self::default() }
    }

    /// Accumulate one Top-K pass's pair counters: scored pairs as the
    /// `topk` stage's items, pruned ones as its skipped items, and the
    /// outcome split.
    pub(crate) fn record_topk(&mut self, tally: &PairTally) {
        self.record("topk", "pairs", tally.scored, 0.0);
        self.record_skipped("topk", "pairs", tally.pruned);
        let after = tally.merged - tally.scored;
        self.topk_pairs.pruned_before_merge += tally.pruned - after;
        self.topk_pairs.pruned_after_merge += after;
        self.topk_pairs.scored += tally.scored;
    }

    /// Accumulate `items` processed in `seconds` into `stage`.
    pub(crate) fn record(
        &mut self,
        stage: &'static str,
        unit: &'static str,
        items: u64,
        seconds: f64,
    ) {
        if let Some(s) = self.stages.iter_mut().find(|s| s.stage == stage) {
            s.items += items;
            s.seconds += seconds;
        } else {
            self.stages.push(StageStats { stage, unit, seconds, items, skipped: 0 });
        }
    }

    /// Accumulate `skipped` items (considered but pruned) into `stage`.
    pub(crate) fn record_skipped(&mut self, stage: &'static str, unit: &'static str, skipped: u64) {
        if let Some(s) = self.stages.iter_mut().find(|s| s.stage == stage) {
            s.skipped += skipped;
        } else {
            self.stages.push(StageStats { stage, unit, seconds: 0.0, items: 0, skipped });
        }
    }

    /// Counters of one stage, if it ran.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Total wall-clock seconds across stages.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Feed this report into a metric registry: one
    /// `engine_stage_seconds{stage=…}` histogram sample plus
    /// `engine_stage_items_total` / `engine_stage_skipped_total` counter
    /// increments per stage. The daemon calls this after every served
    /// attack, turning one-shot reports into per-stage latency
    /// distributions across requests.
    pub fn record_into(&self, registry: &dehealth_telemetry::Registry) {
        for s in &self.stages {
            let labels = [("stage", s.stage)];
            registry.histogram_with("engine_stage_seconds", &labels).record_secs(s.seconds);
            registry.counter_with("engine_stage_items_total", &labels).add(s.items);
            registry.counter_with("engine_stage_skipped_total", &labels).add(s.skipped);
        }
        let t = self.topk_pairs;
        for (outcome, n) in [
            ("pruned_before_merge", t.pruned_before_merge),
            ("pruned_after_merge", t.pruned_after_merge),
            ("scored", t.scored),
        ] {
            registry.counter_with("engine_topk_pairs_total", &[("outcome", outcome)]).add(n);
        }
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "engine report ({} threads, block size {}):", self.n_threads, self.block_size)?;
        for s in &self.stages {
            write!(
                f,
                "  {:<8} {:>10.3}s  {:>12} {:<6} {:>14.0} {}/s",
                s.stage,
                s.seconds,
                s.items,
                s.unit,
                s.throughput(),
                s.unit
            )?;
            if s.skipped > 0 {
                write!(f, "  ({} {} pruned)", s.skipped, s.unit)?;
            }
            writeln!(f)?;
        }
        let t = self.topk_pairs;
        if t != TopkPairs::default() {
            writeln!(
                f,
                "  topk pairs  {} pruned before merge, {} pruned after merge, {} scored",
                t.pruned_before_merge, t.pruned_after_merge, t.scored
            )?;
        }
        write!(f, "  total    {:>10.3}s", self.total_seconds())
    }
}

/// Measure the wall-clock of `f`.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_stage() {
        let mut r = EngineReport::new(4, 64);
        r.record("topk", "pairs", 100, 0.5);
        r.record("topk", "pairs", 50, 0.25);
        r.record("refined", "users", 10, 1.0);
        assert_eq!(r.stages.len(), 2);
        let topk = r.stage("topk").unwrap();
        assert_eq!(topk.items, 150);
        assert!((topk.seconds - 0.75).abs() < 1e-12);
        assert!((topk.throughput() - 200.0).abs() < 1e-9);
        assert!((r.total_seconds() - 1.75).abs() < 1e-12);
        assert!(r.stage("missing").is_none());
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let s = StageStats { stage: "x", unit: "pairs", seconds: 0.0, items: 5, skipped: 0 };
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn skipped_accumulates_and_shows_in_display() {
        let mut r = EngineReport::new(1, 8);
        r.record("topk", "pairs", 10, 0.1);
        r.record_skipped("topk", "pairs", 7);
        r.record_skipped("topk", "pairs", 3);
        let topk = r.stage("topk").unwrap();
        assert_eq!(topk.items, 10);
        assert_eq!(topk.skipped, 10);
        assert!(format!("{r}").contains("10 pairs pruned"));
        // A skipped-only record creates the stage too.
        r.record_skipped("other", "users", 2);
        assert_eq!(r.stage("other").unwrap().skipped, 2);
    }

    #[test]
    fn display_mentions_stages() {
        let mut r = EngineReport::new(2, 32);
        r.record("topk", "pairs", 10, 0.1);
        let text = format!("{r}");
        assert!(text.contains("2 threads"));
        assert!(text.contains("topk"));
    }

    #[test]
    fn record_into_feeds_a_registry() {
        let mut r = EngineReport::new(2, 32);
        r.record("topk", "pairs", 100, 0.5);
        r.record_skipped("topk", "pairs", 7);
        r.record("refined", "users", 10, 0.1);
        let registry = dehealth_telemetry::Registry::new();
        r.record_into(&registry);
        r.record_into(&registry); // accumulates across runs
        let topk = registry.histogram_with("engine_stage_seconds", &[("stage", "topk")]);
        assert_eq!(topk.count(), 2);
        assert!((topk.sum_seconds() - 1.0).abs() < 1e-9);
        let items = registry.counter_with("engine_stage_items_total", &[("stage", "topk")]);
        assert_eq!(items.get(), 200);
        let skipped = registry.counter_with("engine_stage_skipped_total", &[("stage", "topk")]);
        assert_eq!(skipped.get(), 14);
        assert_eq!(
            registry.histogram_with("engine_stage_seconds", &[("stage", "refined")]).count(),
            2
        );
    }

    #[test]
    fn topk_pair_outcomes_split_pruned_around_the_merge() {
        let mut r = EngineReport::new(1, 8);
        assert!(!format!("{r}").contains("topk pairs"));
        // 10 pairs: 4 pruned before the merge, 6 merged, of which 2 were
        // pruned after it and 4 scored.
        r.record_topk(&PairTally { scored: 4, pruned: 6, merged: 6 });
        r.record_topk(&PairTally { scored: 1, pruned: 0, merged: 1 });
        assert_eq!(
            r.topk_pairs,
            TopkPairs { pruned_before_merge: 4, pruned_after_merge: 2, scored: 5 }
        );
        let topk = r.stage("topk").unwrap();
        assert_eq!((topk.items, topk.skipped), (5, 6));
        assert!(format!("{r}").contains("4 pruned before merge, 2 pruned after merge, 5 scored"));
        let registry = dehealth_telemetry::Registry::new();
        r.record_into(&registry);
        for (outcome, want) in
            [("pruned_before_merge", 4), ("pruned_after_merge", 2), ("scored", 5)]
        {
            let c = registry.counter_with("engine_topk_pairs_total", &[("outcome", outcome)]);
            assert_eq!(c.get(), want);
        }
    }

    #[test]
    fn timed_measures_and_returns() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
