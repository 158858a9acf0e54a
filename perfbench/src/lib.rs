//! The De-Health attack system's benchmark: three workloads behind one
//! command, end-to-end metrics from untraced runs and per-layer metrics
//! from traced ones. `README.md` beside this crate documents the
//! workloads, the metrics and how to run it.

pub mod check;
pub mod inputs;
pub mod measure;
pub mod metrics;
pub mod pipeline;
pub mod trace;

mod closed;
mod open;
mod serve;

use std::path::PathBuf;

use dehealth_core::AttackConfig;
use dehealth_engine::EngineConfig;
use dehealth_service::Json;

pub use metrics::{Metric, END_TO_END, PER_LAYER};

/// Engine worker threads in every workload (the reference box has two
/// cores). Fixed rather than read from the machine, so the work is the
/// same wherever the benchmark runs.
pub const ENGINE_THREADS: usize = 2;

/// Seed of every workload's forum population. The population is part of
/// a workload's definition, like its size: post counts are power-law
/// distributed and dominated by a few heavy users, so a population drawn
/// per run would change the amount of work by a fifth from seed to seed.
/// The run's `--seed` draws everything downstream: the split (which
/// posts and users land on each side, the anonymized ids), and so every
/// request's content, and the oracle samples.
pub const FORUM_SEED: u64 = 0x00de_4ea1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// WebMD-like closed world, 10,000 users, prepared-corpus attacks.
    Closed10k,
    /// HealthBoards-like open world, 2,000 users, one-shot attacks.
    OpenHb2k,
    /// WebMD-like closed world, 5,000 users, served over JSON.
    ServeJson5k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Closed10k, Workload::OpenHb2k, Workload::ServeJson5k];

    /// The name the command line takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Closed10k => "closed-10k",
            Workload::OpenHb2k => "open-hb-2k",
            Workload::ServeJson5k => "serve-json-5k",
        }
    }

    /// Look a workload up by [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed scale of a run of `seconds`. The operation counts
    /// are a fixed function of `seconds` — never of measured time — so
    /// two commits given the same arguments do identical work. The
    /// nominal per-operation costs behind them were measured on a
    /// 2-vCPU x86-64 box.
    #[must_use]
    pub fn scale(self, seconds: u64) -> Scale {
        let per =
            |nominal_seconds: f64| ((seconds as f64 / nominal_seconds).ceil() as usize).max(1);
        match self {
            Workload::Closed10k => {
                Scale { users: 10_000, setups: 2, attacks: per(5.0), traced_attacks: per(7.5) }
            }
            Workload::OpenHb2k => {
                Scale { users: 2_000, setups: 1, attacks: per(3.75), traced_attacks: per(5.0) }
            }
            Workload::ServeJson5k => {
                Scale { users: 5_000, setups: 5, attacks: per(0.15), traced_attacks: per(0.5) }
            }
        }
    }
}

/// Sizes and operation counts of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Users of the generated forum.
    pub users: usize,
    /// Set-up repetitions (the median is reported; `open-hb-2k` has a
    /// single cold attack instead).
    pub setups: usize,
    /// Attacks in the measured phase.
    pub attacks: usize,
    /// Attacks in the traced phase.
    pub traced_attacks: usize,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed the split, the requests and the oracle samples are drawn from
    /// (the forum population is fixed, see [`FORUM_SEED`]).
    pub seed: u64,
    /// Sizes and counts.
    pub scale: Scale,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Directory for the run's temporary files (the served snapshot).
    pub work_dir: PathBuf,
    /// Flip one anonymized user's mapping before the checks run — the
    /// self-test's proof that a wrong result is counted as a failure.
    pub corrupt: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations run (set-ups, attacks, ingests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// [`END_TO_END`] metrics (untraced) or [`PER_LAYER`] metrics
    /// (traced), in table order.
    pub metrics: Vec<Metric>,
    /// Metrics specific to this workload, printed beside the table's.
    pub extra: Vec<Metric>,
    /// Raw samples, registry snapshots and spans, for the run's file.
    pub details: Json,
}

/// Run one workload.
///
/// # Errors
/// A description of a failure that stopped the run before it could
/// measure anything (a daemon that would not bind, an unreadable
/// snapshot…). Failed checks are not errors: they are counted in the
/// output.
pub fn run(params: &Params) -> Result<RunOutput, String> {
    match params.workload {
        Workload::Closed10k => closed::run(params),
        Workload::OpenHb2k => open::run(params),
        Workload::ServeJson5k => serve::run(params),
    }
}

/// The engine configuration every workload attacks with.
fn engine_config(attack: AttackConfig) -> EngineConfig {
    EngineConfig { attack, n_threads: ENGINE_THREADS, ..EngineConfig::default() }
}
