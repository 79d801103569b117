//! The in-process suite is the binaries: running harnesses concurrently
//! through their library functions gives the same text as running them
//! one by one, and the same bytes each binary prints.

use perfcloud_bench::cli;
use perfcloud_bench::figs::harness;
use perfcloud_bench::sweep;
use std::process::Command;

const SEED: u64 = 42;

/// The cheap harnesses (milliseconds each in release) with their binaries.
const CHEAP: [(&str, &str); 4] = [
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("ablation_controller", env!("CARGO_BIN_EXE_ablation_controller")),
    ("ablation_threshold", env!("CARGO_BIN_EXE_ablation_threshold")),
];

fn run(name: &str) -> String {
    let h = harness(name);
    (h.run)(SEED, &cli::parse(h.flags, &[] as &[&str]).expect("no flags parse"))
}

#[test]
fn concurrent_harnesses_match_a_sequential_loop() {
    let sequential: Vec<String> = CHEAP.iter().map(|&(name, _)| run(name)).collect();
    let concurrent = sweep::run_with_threads(CHEAP.len(), 4, |i| run(CHEAP[i].0));
    assert_eq!(sequential, concurrent);
}

#[test]
fn library_text_equals_binary_stdout() {
    for (name, bin) in CHEAP {
        let out = Command::new(bin)
            .env("PERFCLOUD_SEED", SEED.to_string())
            .output()
            .expect("binary launches");
        assert!(out.status.success(), "{name} failed");
        assert_eq!(String::from_utf8_lossy(&out.stdout), run(name), "{name}");
    }
}
