//! `run_all`'s timing gate fails closed: a `--baseline` it cannot read is
//! a usage error, not a disabled gate.

use std::process::Command;

#[test]
fn missing_baseline_exits_2_before_any_harness_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--fast", "--baseline", "/no/such/file"])
        .output()
        .expect("run_all launches");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("################"), "a harness ran: {stdout}");
}
