//! Command line of the benchmark; run it through `perfbench/run.sh`.
//!
//! ```text
//! perfbench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench diff OLD-TRACE.json NEW-TRACE.json
//! ```

use perfbench::trace::{diff, TraceFile};
use perfbench::world::Workload;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name} N"))?;
    raw.parse().map_err(|_| format!("bad {name}: {raw:?}"))
}

fn read_trace(path: &str) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(i) = args.iter().position(|a| a == "diff") {
        let (old, new) = match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => (read_trace(a)?, read_trace(b)?),
            _ => return Err("usage: diff OLD-TRACE.json NEW-TRACE.json".into()),
        };
        print!("{}", diff(&old, &new));
        return Ok(());
    }
    let name = flag(args, "--workload").ok_or("missing --workload NAME")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?.max(1);
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin = perfbench::http::server_binary(flag(args, "--server-bin"))?;
    let outcome = perfbench::run(workload, seed, seconds, traced, &bin)?;
    eprint!("{}", outcome.report);
    println!("{}", outcome.json_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
