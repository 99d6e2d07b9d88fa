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
