//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints its metrics, one per line, then a final
//! JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Raw samples, daemon histograms and (traced) spans go to
//! `out/<workload>-<seed>-trace<0|1>.json` beside this crate. Exits 1
//! when an output check failed, 2 on a usage error or a run that could
//! not measure.

use std::path::PathBuf;
use std::process::ExitCode;

use dehealth_service::Json;
use perfbench::{Params, Workload};

const USAGE: &str = "usage: perfbench --workload <closed-10k|open-hb-2k|serve-json-5k> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 15, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace value {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let params = Params {
        workload: args.workload,
        seed: args.seed,
        scale: args.workload.scale(args.seconds),
        trace: args.trace,
        work_dir: out_dir.clone(),
        corrupt: false,
    };
    println!(
        "{} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = match perfbench::run(&params) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in out.metrics.iter().chain(&out.extra) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for problem in &out.problems {
        println!("FAILED {problem}");
    }
    println!("operations: {} attempted, {} failed", out.attempted, out.failed);
    let file = out_dir.join(format!(
        "{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&file, out.details.emit()))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.emit());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
