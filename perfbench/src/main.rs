//! `perfbench --workload <ingest|serve|analytics> --seed <n> --seconds <s>
//! --trace <0|1> [--tkc <path>] [--workdir <dir>] [--scale full|small]`
//!
//! Prints one JSON result line last on stdout; progress goes to stderr.
//! `perfbench/run.py` builds the program and this binary first and is the
//! command to use.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{analytics, ingest, prepare, serve, Opts, Scale};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or(format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn scale(args: &[String]) -> Result<Scale, String> {
    flag(args, "--scale").map_or(Ok(Scale::Full), Scale::parse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("prepare") {
        run_prepare(&args).map(|()| true)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_prepare(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?);
    let ops = match flag(args, "--ops-file") {
        Some(path) => Some((parsed::<usize>(args, "--ops")?, PathBuf::from(path))),
        None => None,
    };
    let ops = ops.as_ref().map(|(n, p)| (*n, p.as_path()));
    prepare::prepare(scale(args)?, parsed(args, "--seed")?, &dir, ops)
}

/// Runs one workload and prints its result line; `Ok(false)` when an
/// output check failed.
fn run(args: &[String]) -> Result<bool, String> {
    let opts = Opts {
        workload: flag(args, "--workload")
            .ok_or("missing --workload")?
            .to_string(),
        seed: parsed(args, "--seed")?,
        seconds: parsed(args, "--seconds")?,
        trace: match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        scale: scale(args)?,
        tkc: flag(args, "--tkc").map(PathBuf::from),
        workdir: PathBuf::from(flag(args, "--workdir").unwrap_or("target/perfbench-work")),
    };
    perfbench::util::log(&format!(
        "workload {} seed {} ({} scale, trace {}, {} cpus)",
        opts.workload,
        opts.seed,
        opts.scale.name(),
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let outcome = match opts.workload.as_str() {
        "ingest" => ingest::run(&opts),
        "serve" => serve::run(&opts),
        "analytics" => analytics::run(&opts),
        other => {
            return Err(format!(
                "unknown workload {other:?} (ingest, serve, analytics)"
            ))
        }
    }?;
    for w in &outcome.wrong {
        perfbench::util::log(&format!("CHECK FAILED: {w}"));
    }
    println!("{}", outcome.json());
    Ok(outcome.correct())
}
