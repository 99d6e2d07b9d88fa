//! `flowbench` — the end-to-end + per-layer benchmark of the FlowBender
//! reproduction suite. See `benchmark/README.md`.
//!
//! ```text
//! flowbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! flowbench compare A.json B.json
//! flowbench manifest
//! ```
//!
//! With `--workload` it measures that workload in this process and ends
//! its standard output with one JSON line (the driver's contract).
//! Without, it runs every workload, each in a child process of its own so
//! that `peak_rss_mib` is per workload, and writes one combined result
//! file.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod json;
mod measure;
mod metrics;
mod probes;
mod report;
mod run;
mod statx;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use stats::Json;

use measure::Config;
use workload::WORKLOADS;

/// Where span files and default result files go, relative to the
/// directory the benchmark is run from (the repository root).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  flowbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  flowbench compare A.json B.json
  flowbench manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: expected a non-negative number")?
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value("a file name")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measure one workload in this process. `Ok(false)` = a correctness
/// check failed (already reported).
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = workload::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; workloads: {}", names.join(", "))
    })?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    let (report, tracer) = measure::measure(w, &cfg);
    report.print();
    if args.traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
        write_file(&path, &tracer.to_json().to_string_pretty())?;
        println!("spans: {} -> {}", tracer.spans().len(), path.display());
    }
    if let Some(out) = &args.out {
        write_file(out, &report.to_json().to_string_pretty())?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.final_line()?);
    Ok(report.correct)
}

/// Run every workload, each in its own child process, and combine their
/// result files into one.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let set = if args.traced { "traced" } else { "untraced" };
    let combined = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("result-{set}.json")));
    let mut all_ok = true;
    let mut parts = Vec::new();
    for w in &WORKLOADS {
        let part = Path::new(OUT_DIR).join(format!("result-{set}-{}.json", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // Inherits stdout/stderr; `status` waits for the child to end.
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", w.name))?;
        if !status.success() {
            eprintln!("flowbench: workload {} failed ({status})", w.name);
            all_ok = false;
        }
        match std::fs::read_to_string(&part) {
            Ok(text) => parts.push((w.name, text)),
            Err(e) => {
                eprintln!("flowbench: no result from {}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    // Splice the children's JSON texts verbatim: no value is re-rendered.
    let body: Vec<String> = parts
        .iter()
        .map(|(name, text)| format!("{}: {}", Json::str(*name).to_string(), text.trim_end()))
        .collect();
    write_file(
        &combined,
        &format!("{{\"workloads\": {{\n{}\n}}}}\n", body.join(",\n")),
    )?;
    println!("results: {}", combined.display());
    Ok(all_ok)
}

/// `BENCHMARK.json`, rendered from the registry (a unit test holds the
/// committed file to this output's content).
fn manifest() -> String {
    let mut root = Json::obj();
    let mut command = Json::arr();
    for word in [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        command.push(Json::str(word));
    }
    root.set("command", command);
    let mut paths = Json::arr();
    paths.push(Json::str("benchmark"));
    root.set("paths", paths);
    root.set("run_seconds", Json::U64(RUN_SECONDS));
    let mut ws = Json::arr();
    for w in &WORKLOADS {
        let mut o = Json::obj();
        o.set("name", Json::str(w.name));
        o.set("why", Json::str(w.why));
        ws.push(o);
    }
    root.set("workloads", ws);
    let (mut e2e, mut layers) = (Json::arr(), Json::arr());
    for d in metrics::DEFS {
        let mut o = Json::obj();
        o.set("name", Json::str(d.name));
        o.set("unit", Json::str(d.unit));
        o.set("better", Json::str(d.better.as_str()));
        if d.is_end_to_end() {
            o.set(
                "bound",
                Json::Num(d.bound().expect("end-to-end metrics are bounded")),
            );
            e2e.push(o);
        } else {
            layers.push(o);
        }
    }
    root.set("end_to_end", e2e);
    root.set("per_layer", layers);
    root.to_string_pretty()
}

/// Seconds one run measures for (the driver passes it back as `--seconds`).
const RUN_SECONDS: u64 = 30;

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare needs exactly two result files".into()),
        },
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let args = parse_args(&argv)?;
            match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_all(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
