//! CLI for the FlowBender reproduction harness.
//!
//! ```text
//! experiments <command> [--scale F] [--seed N] [--scheme A,B] [--workload W]
//!                       [--out DIR] [--json DIR] [--trace flow=ID[,ID..]|slowest=K]
//!                       [--topo k=K] [--smoke]
//! ```
//!
//! The command list and descriptions come from the experiment registry
//! ([`experiments::registry`]); run with no arguments to see it. The
//! `schemes` subcommand prints the scheme registry, and `--scheme a,b`
//! narrows an experiment to a named selection; the `workloads` subcommand
//! prints the traffic-pattern registry, and `--workload <slug>` swaps the
//! generator of experiments that honor it. Besides the rendered
//! tables (`--out`), `--json DIR` writes one deterministic
//! machine-readable JSON file per instrumented run plus a
//! `BENCH_run.json` wall-clock record for the whole invocation.

use std::process::ExitCode;

use experiments::{registry, report::Cli, Experiment};
use stats::Json;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <command> [--scale F] [--seed N] [--scheme A,B] [--workload W] [--out DIR] [--json DIR] [--trace SEL] [--topo k=K] [--smoke]"
    );
    eprintln!();
    eprintln!("commands:");
    for e in experiments::registry() {
        eprintln!("  {:<13} {}", e.name, e.describe);
    }
    eprintln!("  {:<13} everything above", "all");
    eprintln!(
        "  {:<13} list the registered load-balancing schemes",
        "schemes"
    );
    eprintln!(
        "  {:<13} list the registered traffic workloads",
        "workloads"
    );
    eprintln!();
    eprintln!("options:");
    eprintln!("  --scale F    duration/size multiplier (default 1.0; ~10 approaches");
    eprintln!("               the paper's full scale)");
    eprintln!("  --seed N     master seed (default 1)");
    eprintln!("  --scheme A,B comma-separated scheme selection (see `schemes`);");
    eprintln!("               default: each experiment's own set");
    eprintln!("  --workload W traffic workload slug (see `workloads`); parameterized");
    eprintln!("               forms like incast:1000 or hotspot:1.5 work too;");
    eprintln!("               default: each experiment's own generator");
    eprintln!("  --out DIR    also write .txt/.csv reports there (default: results/)");
    eprintln!("  --json DIR   write per-run JSON summaries and BENCH_run.json there");
    eprintln!("  --trace SEL  flight recorder: flow=<id>[,<id>...] traces those flows,");
    eprintln!("               slowest=<k> traces the k slowest TCP flows (found by an");
    eprintln!("               untraced probe run); one timeline JSON per flow under --json");
    eprintln!("  --topo k=K   k-ary fat-tree arity for fabric-building experiments");
    eprintln!("               (hosts = k^3/4: k=8 -> 128, k=16 -> 1024, k=32 -> 8192)");
    eprintln!("  --smoke      CI-sized run: smaller fabric and shorter windows");
    std::process::exit(2);
}

/// Print the scheme registry: one row per scheme with both halves of the
/// design (what the switches do, what the host stack does).
fn print_schemes() {
    let mut table = stats::Table::new(vec!["scheme", "switch side", "host side", "summary"]);
    for s in experiments::schemes::registry() {
        table.row(vec![
            s.name().to_string(),
            s.fabric_desc().to_string(),
            s.host_desc().to_string(),
            s.brief_desc().to_string(),
        ]);
    }
    println!("registered schemes (select with --scheme, names or slugs):\n");
    print!("{}", table.render());
}

/// Print the workload registry: one row per traffic pattern, with its
/// selection slug, parameter form, and whether it can stream.
fn print_workloads() {
    let mut table = stats::Table::new(vec!["workload", "slug", "streams", "summary"]);
    for w in workloads::registry() {
        table.row(vec![
            w.name(),
            w.slug(),
            if w.stream_dist().is_some() {
                "yes".to_string()
            } else {
                "no".to_string()
            },
            w.brief(),
        ]);
    }
    println!("registered workloads (select with --workload, slugs or parameterized");
    println!("forms like incast:1000, hotspot:1.5, onoff:8):\n");
    print!("{}", table.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    if command == "schemes" {
        print_schemes();
        return ExitCode::SUCCESS;
    }
    if command == "workloads" {
        print_workloads();
        return ExitCode::SUCCESS;
    }
    let Cli {
        opts,
        out_dir,
        json_dir,
    } = match Cli::parse(&args[1..]) {
        Ok(cli) => cli,
        Err(None) => usage(),
        Err(Some(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rows: Vec<&Experiment> = if command == "all" {
        experiments::registry().iter().collect()
    } else if let Some(exp) = experiments::find(&command) {
        vec![exp]
    } else {
        eprintln!("error: unknown experiment '{command}'");
        let names: Vec<&str> = experiments::registry().iter().map(|e| e.name).collect();
        eprintln!("available: {} (or 'all')", names.join(", "));
        return ExitCode::from(2);
    };
    if let Err(e) = opts
        .check()
        .and_then(|()| registry::check_workload(&rows, &opts))
    {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    let started = std::time::Instant::now();
    let reports = registry::run(&rows, &opts);

    if !opts.trace.is_off() && reports.iter().all(|r| r.traces.is_empty()) {
        eprintln!(
            "warning: --trace requested but `{command}` attached no timelines \
             (the flight recorder is wired into: gray-failure, reordering)"
        );
    }
    for report in &reports {
        println!("{}", report.render());
        if let Err(e) = report.write_files(&out_dir) {
            eprintln!("warning: could not write {} files: {e}", report.name);
        }
    }
    if let Some(dir) = &json_dir {
        let mut written = 0usize;
        for report in &reports {
            match report.write_json(dir) {
                Ok(files) => written += files.len(),
                Err(e) => eprintln!("warning: could not write {} JSON: {e}", report.name),
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let total_events: u64 = reports
            .iter()
            .flat_map(|r| r.runs.iter())
            .map(|s| s.events)
            .sum();
        let mut bench = Json::obj();
        bench.set("command", Json::str(&command));
        bench.set("scale", Json::Num(opts.scale));
        bench.set("seed", Json::U64(opts.seed));
        bench.set("wall_s", Json::Num(wall_s));
        bench.set("total_events", Json::U64(total_events));
        bench.set(
            "events_per_sec",
            Json::Num(if wall_s > 0.0 {
                total_events as f64 / wall_s
            } else {
                0.0
            }),
        );
        bench.set("runs_written", Json::U64(written as u64));
        if let Err(e) = std::fs::write(dir.join("BENCH_run.json"), bench.to_string_pretty()) {
            eprintln!("warning: could not write BENCH_run.json: {e}");
        }
        eprintln!(
            "[{} run summaries + BENCH_run.json under {}]",
            written,
            dir.display()
        );
    }
    eprintln!(
        "[{} report(s) in {:.1}s; scale={}, seed={}; files under {}]",
        reports.len(),
        started.elapsed().as_secs_f64(),
        opts.scale,
        opts.seed,
        out_dir.display()
    );
    ExitCode::SUCCESS
}
