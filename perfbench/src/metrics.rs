//! The metric tables `BENCHMARK.json` lists, and the per-layer numbers
//! derived from a traced run's spans.

use std::collections::BTreeMap;

use dehealth_service::Json;

use crate::check::{Ledger, Quality};
use crate::measure::median;
use crate::trace::Summary;
use crate::RunOutput;

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("users_per_s", "1/s"),
    ("attack_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("accuracy", "fraction"),
    ("candidate_hit_rate", "fraction"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("stylometry.features_s", "s"),
    ("stylometry.posts", "count"),
    ("uda.build_s", "s"),
    ("index.build_s", "s"),
    ("refined.aux_context_s", "s"),
    ("similarity.init_s", "s"),
    ("index.scorer_init_s", "s"),
    ("index.score_s", "s"),
    ("index.pairs_scored", "count"),
    ("index.pairs_pruned", "count"),
    ("index.scored_frac", "fraction"),
    ("index.kept_frac", "fraction"),
    ("refined.context_s", "s"),
    ("refined.classify_s", "s"),
    ("refined.candidates", "count"),
    ("refined.mapped", "count"),
    ("engine.unattributed_s", "s"),
    ("trace.attack_s", "s"),
    ("trace.overhead_s", "s"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Per-attack layer metrics from the `engine` spans of a traced run:
/// the median over attacks of each layer's time and count, the pair
/// ratios over all attacks, and the engine's unattributed self time.
#[must_use]
pub fn engine_layers(engine: &[Summary]) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Summary) -> f64| median(&engine.iter().map(f).collect::<Vec<_>>());
    let total = |name: &str| engine.iter().map(|s| s.count(name)).sum::<f64>();
    let (scored, pruned) = (total("index.pairs_scored"), total("index.pairs_pruned"));
    let mut out = BTreeMap::new();
    for (layer, span) in [
        ("stylometry.features_s", "stylometry.features"),
        ("uda.build_s", "uda.build"),
        ("similarity.init_s", "similarity.init"),
        ("index.scorer_init_s", "index.scorer_init"),
        ("index.score_s", "index.score"),
        ("refined.context_s", "refined.context"),
        ("refined.classify_s", "refined.classify"),
    ] {
        out.insert(layer, med(&|s| s.seconds(span)));
    }
    for count in [
        "stylometry.posts",
        "index.pairs_scored",
        "index.pairs_pruned",
        "refined.candidates",
        "refined.mapped",
    ] {
        out.insert(count, med(&|s| s.count(count)));
    }
    out.insert("index.scored_frac", scored / (scored + pruned).max(1.0));
    out.insert("index.kept_frac", total("refined.candidates") / scored.max(1.0));
    out.insert("engine.unattributed_s", med(&|s| s.self_seconds));
    out.insert("trace.attack_s", med(&|s| s.wall));
    out
}

/// The auxiliary-side build layers (`index.build_s`,
/// `refined.aux_context_s`) from the summaries of the spans that ran them.
#[must_use]
pub fn aux_build_layers(builds: &[Summary]) -> BTreeMap<&'static str, f64> {
    let med = |span: &str| median(&builds.iter().map(|s| s.seconds(span)).collect::<Vec<_>>());
    BTreeMap::from([
        ("index.build_s", med("index.build")),
        ("refined.aux_context_s", med("refined.aux_context")),
    ])
}

/// The quality metrics every workload reports.
pub fn insert_quality(values: &mut BTreeMap<&'static str, f64>, quality: &Quality) {
    values.insert("accuracy", quality.accuracy());
    values.insert("candidate_hit_rate", quality.candidate_hit_rate());
}

/// Assemble a run's output: the end-to-end table's values when
/// untraced, the per-layer table's when traced. A traced run still
/// reports its untraced end-to-end values among the extras, so the
/// traced attack time can be read next to the untraced median.
///
/// # Panics
/// Panics when a workload did not produce a metric of the table — a bug
/// in this benchmark, never a property of the measured program.
#[must_use]
pub fn finish(
    ledger: Ledger,
    trace: bool,
    values: &BTreeMap<&'static str, f64>,
    extra: Vec<Metric>,
    details: Vec<(String, Json)>,
) -> RunOutput {
    let pick = |table: &[(&'static str, &'static str)]| -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                let value =
                    *values.get(name).unwrap_or_else(|| panic!("workload did not measure {name}"));
                Metric::new(name, value, unit)
            })
            .collect()
    };
    let (metrics, extra) = if trace {
        (pick(&PER_LAYER), pick(&END_TO_END).into_iter().chain(extra).collect())
    } else {
        (pick(&END_TO_END), extra)
    };
    RunOutput {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        problems: ledger.problems,
        metrics,
        extra,
        details: Json::Obj(details),
    }
}

/// Samples as a JSON array.
#[must_use]
pub fn samples(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}
