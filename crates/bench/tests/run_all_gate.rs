//! Every harness binary fails closed on arguments it cannot use: an
//! unknown flag, an unparsable value or an unreadable `run_all` timing
//! baseline exits 2 before any harness runs, and prints nothing to stdout.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_any_harness_runs() {
    let rows: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_run_all"), &["--fast", "--baseline", "/no/such/file"]),
        (env!("CARGO_BIN_EXE_fig11"), &["--scale", "banana"]),
        (env!("CARGO_BIN_EXE_fig12"), &["--rpes", "2"]),
        (env!("CARGO_BIN_EXE_fig7"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig6"), &["--omit-misisng"]),
    ];
    for (bin, args) in rows {
        let out = Command::new(bin).args(args).output().expect("binary launches");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{bin} {args:?} printed: {stdout}");
    }
}
