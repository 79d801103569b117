//! Shadow-mode scoreboard runner: record, replay, re-score.
//!
//! `cargo run --release -p perfcloud-bench --bin shadow_bench [-- --check]`
//!
//! Runs every (detector × identifier) cell of the accuracy matrix in
//! shadow mode ([`perfcloud_bench::shadow`]): a live run tees its counter
//! stream into a binary recording, a second build of the same cell replays
//! the recording, and both runs are scored against the injected ground
//! truth. Every cell must replay to the *exact* live score — any
//! divergence exits non-zero. With `--check` the replayed scoreboard is
//! additionally byte-compared against the committed
//! `tests/golden/accuracy_scoreboard.trace` and the semantic gates of
//! [`perfcloud_bench::accuracy::gate`] are enforced, proving the replay
//! path reproduces the live scoreboard cell-for-cell.

use perfcloud_bench::accuracy::{gate, scoreboard_json, scoreboard_table};
use perfcloud_bench::cli::{self, Flag, Kind};
use perfcloud_bench::golden::GoldenStatus;
use perfcloud_bench::shadow::run_shadow_matrix;
use perfcloud_bench::Table;

const FLAGS: &[Flag] = &[Flag("--check", Kind::Switch)];

fn main() {
    let check = cli::from_env("shadow_bench", FLAGS).switch("--check");

    let cells = run_shadow_matrix();
    let mut t = Table::new(vec!["pipeline", "scenario", "samples", "bytes", "shadow"]);
    let mut mismatched = 0usize;
    for c in &cells {
        t.row(vec![
            c.live.pipeline.clone(),
            c.live.scenario.clone(),
            format!("{}", c.samples),
            format!("{}", c.bytes),
            if c.matches() { "match".into() } else { "DIVERGED".into() },
        ]);
        if !c.matches() {
            mismatched += 1;
            eprintln!(
                "shadow divergence in {}/{}: live {:?} vs replayed {:?}",
                c.live.pipeline, c.live.scenario, c.live, c.replayed
            );
        }
    }
    print!("{}", t.render());
    let mut failed = mismatched > 0;
    if failed {
        eprintln!("{mismatched} of {} cells diverged under replay", cells.len());
    } else {
        println!("all {} cells replayed to their exact live score", cells.len());
    }

    if check {
        // The replayed scoreboard must equal the committed live golden:
        // the strongest form of "shadow mode reproduces the scoreboard".
        let rows: Vec<_> = cells.iter().map(|c| c.replayed.clone()).collect();
        let artifact = format!("{}{}", scoreboard_json(&rows), scoreboard_table(&rows));
        match perfcloud_bench::golden::check("accuracy_scoreboard", &artifact, &[]) {
            GoldenStatus::Match => {
                println!("replayed scoreboard matches tests/golden/accuracy_scoreboard.trace")
            }
            GoldenStatus::Regenerated => println!("scoreboard golden regenerated (BLESS=1)"),
            GoldenStatus::Mismatch { diff } => {
                eprintln!("{diff}");
                failed = true;
            }
        }
        let violations = gate(&rows);
        for v in &violations {
            eprintln!("gate violated under replay: {v}");
        }
        failed |= !violations.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
