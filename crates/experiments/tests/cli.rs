//! CLI-level rejections: option combinations no engine can serve must
//! exit 2 with an `error:` line, never a panic backtrace.

use std::process::Command;

#[test]
fn trace_with_multiple_shards_is_rejected_with_exit_2() {
    for experiment in ["gray-failure", "feedback"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                experiment,
                "--trace",
                "slowest=1",
                "--shards",
                "2",
                "--smoke",
            ])
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{experiment}: {stderr}");
        assert!(
            stderr.starts_with("error: --trace"),
            "{experiment}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{experiment}: {stderr}");
    }
}

/// `--shards` is checked against the fabric the chosen experiment
/// actually builds (k=8 for feedback, k=4 for reordering under `--smoke`,
/// the 4-pod paper fabric for link-failure) — these used to pass a check
/// against a guessed k=16/k=8 fabric and die with a backtrace.
#[test]
fn shard_counts_the_experiments_fabric_cannot_host_are_rejected_with_exit_2() {
    let cases: [(&[&str], &str); 3] = [
        (&["feedback", "--shards", "16"], "8 pods"),
        (&["reordering", "--smoke", "--shards", "8"], "4 pods"),
        (&["link-failure", "--shards", "8"], "4 pods"),
    ];
    for (args, pods) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --shards"), "{args:?}: {stderr}");
        assert!(stderr.contains(pods), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// An experiment with no sharded path says so instead of silently
/// ignoring `--shards`, and the usage text lists the ones that have one.
#[test]
fn ignored_shards_warn_and_usage_lists_the_sharded_experiments() {
    let dir = std::env::temp_dir().join(format!("fbcli_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig6", "--scale", "0.01", "--shards", "2", "--out"])
        .arg(&dir)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("warning: --shards 2 ignored") && stderr.contains("reordering"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let usage = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&usage.stderr);
    assert_eq!(usage.status.code(), Some(2));
    assert!(
        stderr.contains("link-failure, gray-failure, fabric-scale, chaos, feedback, reordering"),
        "{stderr}"
    );
}
