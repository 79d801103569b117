//! Control-plane message-path benchmark with a CI regression gate.
//!
//! `cargo run --release -p perfcloud-bench --bin ctrl_bench -- \
//!     [--baseline BENCH_ctrl.json] [--max-drop 0.15]`
//!
//! Runs the control-plane probe ([`perfcloud_bench::ctrlbench`]), writes a
//! fresh `BENCH_ctrl.json` record, and — when `--baseline` names a
//! previously committed record — exits non-zero if the fresh
//! `msgs_per_sec` fell more than `--max-drop` (fraction, default 0.15)
//! below the baseline's. The baseline is read *before* the fresh record is
//! written, so gating against the committed file in the repo root works
//! even when `BENCH_JSON_DIR` is unset.

use perfcloud_bench::benchjson::BenchRecord;
use perfcloud_bench::ctrlbench;

fn main() {
    let mut baseline: Option<String> = None;
    let mut max_drop = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--max-drop" => {
                max_drop = args
                    .next()
                    .expect("--max-drop needs a fraction")
                    .parse()
                    .expect("--max-drop must be a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: ctrl_bench [--baseline FILE] [--max-drop FRAC]");
                std::process::exit(2);
            }
        }
    }

    let baseline_mps = baseline.as_deref().and_then(|p| BenchRecord::read_field(p, "msgs_per_sec"));
    if let Some(path) = &baseline {
        match baseline_mps {
            Some(mps) => {
                println!("baseline {path}: {mps:.0} msgs/sec (gate: -{:.0}%)", max_drop * 100.0)
            }
            None => eprintln!("warning: no msgs_per_sec in baseline {path}; gate disabled"),
        }
    }

    let record = ctrlbench::probe();
    let mps = extra(&record, "msgs_per_sec");
    println!(
        "ctrl probe: {:.0} messages delivered in {:.3}s ({:.0} msgs/sec)",
        extra(&record, "messages_delivered").unwrap_or(0.0),
        record.wall_seconds,
        mps.unwrap_or(0.0),
    );
    match record.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_ctrl.json: {e}");
            std::process::exit(1);
        }
    }

    if let (Some(base), Some(fresh)) = (baseline_mps, mps) {
        let floor = base * (1.0 - max_drop);
        if fresh < floor {
            eprintln!(
                "REGRESSION: msgs_per_sec {fresh:.0} is below the gate floor {floor:.0} \
                 (baseline {base:.0}, max drop {:.0}%)",
                max_drop * 100.0
            );
            std::process::exit(1);
        }
        println!("ctrl gate passed: {fresh:.0} >= {floor:.0}");
    }
}

fn extra(record: &BenchRecord, key: &str) -> Option<f64> {
    record.extras.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}
