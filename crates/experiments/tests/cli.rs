//! The CLI contract: whatever the command line holds, the binary answers
//! with a report, the usage text, or an `error:` line and exit 2 — never a
//! panic backtrace.

use std::path::PathBuf;
use std::process::{Command, Output};

use experiments::report::Cli;
use experiments::{registry, Experiment};
use netsim::DetRng;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

/// A scratch directory of this test's own (tests run in parallel).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fbcli_{tag}_{}", std::process::id()))
}

/// There is one engine and no knob to pick another: `--shards` is an
/// unknown option like any other.
#[test]
fn shards_is_an_unknown_option() {
    let out = experiments(&["reordering", "--smoke", "--shards", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: experiments"), "{stderr}");
    assert!(!stderr.contains("--shards"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// An incast needs more hosts than senders. These used to pass the option
/// check and die in the generator's `assert!` inside a sweep worker —
/// `incast_32_1` is a *registered* slug and every `--smoke` fabric has 16
/// hosts.
#[test]
fn an_incast_wider_than_the_fabric_is_rejected_with_exit_2() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["reordering", "--smoke", "--workload", "incast_32_1"],
            "`reordering --smoke` builds 16",
        ),
        (
            &["reordering", "--smoke", "--workload", "incast:16"],
            "`reordering --smoke` builds 16",
        ),
        (
            &["fig3", "--scale", "0.02", "--workload", "incast:128"],
            "`fig3` builds 128",
        ),
    ];
    for (args, builds) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --workload"),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("needs more than") && stderr.contains(builds),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Fifteen senders and an aggregator are exactly the 16 smoke hosts; and a
/// parameter no generator can use is refused with the bounds spelled out,
/// not turned into a 300-character file name.
#[test]
fn workload_parameters_are_bounded_and_the_largest_fitting_incast_runs() {
    let dir = scratch("incast15");
    let out = experiments(&[
        "reordering",
        "--smoke",
        "--scheme",
        "ecmp",
        "--workload",
        "incast:15",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Incast(15:1)"));
    std::fs::remove_dir_all(&dir).unwrap();

    for bad in ["hotspot:1e308", "onoff:1e30", "incast:70000"] {
        let out = experiments(&["reordering", "--smoke", "--workload", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(
            stderr.starts_with("error: unknown workload") && stderr.contains("0.001..=10"),
            "{bad}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bad}: {stderr}");
    }
}

/// `--trace` works on the sweep experiments unconditionally.
#[test]
fn trace_writes_a_timeline_on_reordering() {
    let dir = scratch("trace");
    let out = experiments(&[
        "reordering",
        "--smoke",
        "--scheme",
        "flowcut-sw",
        "--workload",
        "incast:8",
        "--trace",
        "slowest=1",
        "--out",
        dir.to_str().unwrap(),
        "--json",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let timelines = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.starts_with("reordering_incast_8_1_flowcut_sw_100us_seed1_trace_f"))
        .count();
    assert_eq!(timelines, 1, "one timeline file for slowest=1: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seeded fuzz of everything between `argv` and the first simulated event:
/// option values built from the grammar's own heads, digits, separators,
/// empty and huge numbers — half of them head + number, half free
/// concatenations — go through `Cli::parse` → `Opts::check` →
/// `registry::check_workload` over all 20 rows. Each comes back accepted or
/// as an error value — no panic — and an accepted workload has a slug that
/// is still a usable file name.
#[test]
fn option_parsers_never_panic() {
    #[rustfmt::skip]
    const HEADS: [(&str, &[&str]); 5] = [
        ("--topo", &["k=", "k", ""]),
        ("--workload", &[
            "incast:", "hotspot:", "onoff:", "incast(", "on_off:", "websearch", "datamining",
            "all_to_all", "incast_32_1", "Hotspot(z=1)", "incast", "",
        ]),
        ("--scheme", &[
            "ecmp", "flowbender", "rps", "detail", "flowlet_100us", "Flowlet(100us)",
            "flowcut_sw", "ecmp,rps,", "nosuch", "",
        ]),
        ("--trace", &["flow=", "slowest=", "flow=1,", "slowest", ""]),
        ("--scale", &[""]),
    ];
    #[rustfmt::skip]
    const TAILS: &[&str] = &[
        "", "0", "1", "4", "7", "8", "15", "16", "32", "64", "127", "128", "1000", "65535",
        "65536", "4294967296", "18446744073709551616", "99999999999999999999999999999999999999",
        "1e308", "1e-308", "1e30", "0.001", "0.0001", "0.05", "1.5", "10", "100", "nan", "inf",
        "-inf", "-0", "-1", ":", "=", ",", ".", "-", "e", "(", ")", "_", " ", "\u{e9}",
    ];
    let rows: Vec<&Experiment> = registry().iter().collect();
    let mut rng = DetRng::new(0xF022, 5);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for _ in 0..12_000 {
        let mut args: Vec<String> = Vec::new();
        for _ in 0..1 + rng.gen_index(2) {
            let (flag, heads) = HEADS[rng.gen_index(HEADS.len())];
            let mut value = heads[rng.gen_index(heads.len())].to_string();
            for _ in 0..[1, 1, 0, 2, 4][rng.gen_index(5)] {
                value.push_str(TAILS[rng.gen_index(TAILS.len())]);
            }
            args.extend([flag.to_string(), value]);
        }
        if rng.gen_index(4) == 0 {
            args.push("--smoke".to_string());
        }
        let verdict = std::panic::catch_unwind(|| -> Result<(), String> {
            let cli = Cli::parse(&args).map_err(|e| e.unwrap_or_else(|| "usage".into()))?;
            cli.opts.check()?;
            if let Some(w) = &cli.opts.workload {
                let slug = workloads::find(w).expect("checked").slug();
                assert!(slug.len() <= 64, "{w:?} is accepted with slug {slug}");
            }
            registry::check_workload(&rows, &cli.opts)
        });
        match verdict {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(msg)) => {
                assert!(!msg.is_empty(), "{args:?}: empty error");
                refused += 1;
            }
            Err(_) => panic!("{args:?} panicked"),
        }
    }
    assert!(
        accepted > 500 && refused > 500,
        "{accepted} accepted, {refused} refused"
    );
}
