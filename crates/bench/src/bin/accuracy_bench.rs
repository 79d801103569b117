//! Ground-truth accuracy scoreboard runner with a CI regression gate.
//!
//! `cargo run --release -p perfcloud-bench --bin accuracy_bench [-- --check]`
//!
//! Runs every (detector × identifier) pipeline over the accuracy scenario
//! matrix ([`perfcloud_bench::accuracy`]), prints the scoreboard table, and
//! writes `BENCH_accuracy.json` (to `$BENCH_JSON_DIR`, or the current
//! directory). With `--check` the rendered scoreboard is additionally
//! byte-compared against `tests/golden/accuracy_scoreboard.trace`
//! (`BLESS=1` regenerates it) and the semantic gates of
//! [`perfcloud_bench::accuracy::gate`] are enforced; any mismatch or
//! violated gate exits non-zero.

use perfcloud_bench::accuracy::{self, gate, run_matrix, scoreboard_json, scoreboard_table};
use perfcloud_bench::benchjson::json_path;
use perfcloud_bench::cli::{self, Flag, Kind};
use perfcloud_bench::golden::GoldenStatus;

const FLAGS: &[Flag] = &[Flag("--check", Kind::Switch)];

fn main() {
    let check = cli::from_env("accuracy_bench", FLAGS).switch("--check");

    let rows = run_matrix();
    let table = scoreboard_table(&rows);
    print!("{table}");

    let json = scoreboard_json(&rows);
    let path = json_path("accuracy");
    // The record is a by-product: failing to write it must not skip the
    // gate below.
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    if !check {
        return;
    }

    let mut failed = false;
    // The committed scoreboard is the regression surface: any accuracy
    // movement — better or worse — must show up in the diff and be
    // re-blessed consciously.
    let artifact = format!("{json}{table}");
    match perfcloud_bench::golden::check("accuracy_scoreboard", &artifact, &[]) {
        GoldenStatus::Match => {
            println!("scoreboard matches tests/golden/accuracy_scoreboard.trace")
        }
        GoldenStatus::Regenerated => println!("scoreboard golden regenerated (BLESS=1)"),
        GoldenStatus::Mismatch { diff } => {
            eprintln!("{diff}");
            failed = true;
        }
    }

    let violations = gate(&rows);
    if violations.is_empty() {
        println!(
            "all gates hold: paper clean F1 ≥ {}, alternatives beat paper on ≥ 2 \
             adversarial families, low-signal failure/success pair pinned",
            accuracy::PAPER_CLEAN_F1_FLOOR
        );
    } else {
        for v in &violations {
            eprintln!("gate violated: {v}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
