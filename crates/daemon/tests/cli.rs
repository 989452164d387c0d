//! The `slin-daemon` binary's argument parsing, driven as a process.

use std::process::Command;

#[test]
fn removed_metrics_value_is_rejected_with_exit_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_slin-daemon"))
        .args(["--metrics", "v1"])
        .output()
        .expect("spawn slin-daemon");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad value for --metrics: v1"), "{stderr}");
}
