//! `svcbench`: runs one benchmark workload and prints its result as the
//! last line of standard output.
//!
//! ```text
//! svcbench --sft <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--out <dir>] [--variant uncapacitated]
//! svcbench --sft <path> --steady <runs> [--workload <name>] [--seed <first>] [--seconds <s>]
//! ```
//!
//! The second form is the steadiness report: each workload (or the one
//! named) runs `<runs>` times on consecutive seeds, and every metric's
//! median and quartiles are printed. `--variant uncapacitated` runs
//! `churn-wax800-qos` on the same links without bandwidth capacities, for
//! the reference figure in the README.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use svcbench::bench::{self, Options};
use svcbench::report::{quantile, result_line};
use svcbench::spec::{Size, Workload, NAMES};

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).map(String::as_str);
    let parse = |name: &str, default: &str| -> Result<f64, String> {
        get(name)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("cannot parse --{name}"))
    };
    let sft = PathBuf::from(get("sft").ok_or("--sft <path to the sft binary> is required")?);
    if !sft.is_file() {
        return Err(format!("no sft binary at {}", sft.display()));
    }
    let seed = parse("seed", "1")? as u64;
    let seconds = parse("seconds", "25")?;
    let out_dir = PathBuf::from(get("out").unwrap_or(".bench_out"));
    let workload = |name: &str| {
        Workload::by_name(name, Size::Full)
            .ok_or_else(|| format!("unknown workload `{name}` (one of {})", NAMES.join(", ")))
    };

    if let Some(runs) = get("steady") {
        let runs: u64 = runs.parse().map_err(|_| "cannot parse --steady")?;
        let names: Vec<&str> = match get("workload") {
            Some(n) => vec![n],
            None => NAMES.to_vec(),
        };
        for name in names {
            let mut values: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
            let mut failed_shares = Vec::new();
            for i in 0..runs {
                let opts = Options {
                    sft: sft.clone(),
                    workload: workload(name)?,
                    seed: seed + i,
                    seconds,
                    trace: false,
                    size: Size::Full,
                    out_dir: out_dir.clone(),
                };
                let out = bench::run(&opts)?;
                println!("{}", out.record);
                if !out.correct {
                    return Err(format!(
                        "{name} seed {}: {}",
                        seed + i,
                        out.errors.join("; ")
                    ));
                }
                failed_shares.push(out.failed as f64 / out.attempted as f64);
                for (metric, value, unit) in out.metrics.entries {
                    values
                        .entry(metric)
                        .or_insert_with(|| (Vec::new(), unit))
                        .0
                        .push(value);
                }
            }
            println!(
                "{name}: {runs} runs, seeds {seed}..{}, failed shares {failed_shares:?}",
                seed + runs - 1
            );
            for (metric, (v, unit)) in values {
                let q = |p| quantile(&v, p).unwrap_or(f64::NAN);
                let (q1, q2, q3) = (q(0.25), q(0.5), q(0.75));
                println!(
                    "  {metric:>16} {unit:>5}: median {q2:.6}  q1 {q1:.6}  q3 {q3:.6}  spread {:.4}",
                    (q3 - q1) / q2
                );
            }
        }
        return Ok(());
    }

    let name = get("workload").ok_or("--workload is required")?;
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let mut chosen = workload(name)?;
    match get("variant") {
        None => {}
        Some("uncapacitated") => {
            chosen = chosen
                .uncapacitated()
                .ok_or("only churn-wax800-qos has an uncapacitated variant")?
        }
        Some(other) => return Err(format!("unknown variant `{other}`")),
    }
    let opts = Options {
        sft,
        workload: chosen,
        seed,
        seconds,
        trace,
        size: Size::Full,
        out_dir,
    };
    let out = bench::run(&opts)?;
    for e in &out.errors {
        eprintln!("svcbench: check failed: {e}");
    }
    println!("{}", out.record);
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    Ok(())
}
