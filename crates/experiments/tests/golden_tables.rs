//! Golden-file test for the rendered report tables.
//!
//! Four cheap reports — three web-search all-to-all / testbed sweeps and
//! the k-ary reordering sweep at smoke size — are rendered at a fixed
//! seed and compared byte-for-byte against committed goldens. The
//! run-summary JSON has had a golden since `golden_json`; this pins the
//! *tables* (titles, column sets, normalization, number formatting), so a
//! refactor of the sweep → digest → table path cannot move a byte
//! unnoticed. The stdout of `experiments schemes` is pinned the same way,
//! so a rewrite of either half of a scheme cannot silently change the
//! registry it prints. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p experiments --test golden_tables`.

use std::path::PathBuf;
use std::process::Command;

use experiments::{Opts, Report};

fn check(file: &str, report: Report) {
    check_text(file, report.render());
}

fn check_text(file: &str, text: String) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text,
        golden,
        "rendered text drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn scaled(scale: f64, seed: u64) -> Opts {
    Opts {
        scale,
        seed,
        ..Opts::default()
    }
}

fn smoke(seed: u64) -> Opts {
    Opts {
        seed,
        smoke: true,
        ..Opts::default()
    }
}

#[test]
fn buffers_table_matches_the_golden() {
    check("buffers.txt", experiments::buffers::run(&scaled(0.05, 2)));
}

#[test]
fn flowlet_tables_match_the_golden() {
    check("flowlet.txt", experiments::flowlet::run(&scaled(0.05, 3)));
}

#[test]
fn fig8_table_matches_the_golden() {
    check("fig8.txt", experiments::fig8::run(&scaled(0.05, 1)));
}

#[test]
fn reordering_smoke_tables_match_the_golden() {
    check(
        "reordering_smoke.txt",
        experiments::reordering::run(&smoke(1)),
    );
}

#[test]
fn scheme_registry_table_matches_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("schemes")
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success());
    check_text("schemes.txt", String::from_utf8(out.stdout).unwrap());
}
