//! See `netpart_benchmark::cli` for the command line.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use netpart_benchmark::schema::ResultFile;
use netpart_benchmark::{cli, compare, json, suite};

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ResultFile::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => load(a).and_then(|a| Ok(compare::compare(&a, &load(b)?))),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => cli::one_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("netpart-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
