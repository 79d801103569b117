//! The figure suite as library functions.
//!
//! Each module regenerates one figure or ablation of the paper's
//! evaluation and returns, as a `String`, the exact text its binary
//! prints. [`SUITE`] lists every harness with the flags it accepts; the
//! thin binaries under `src/bin/` and `run_all` both call through it, so
//! the suite runs in one process and a binary never prints stale output.

use crate::cli::{self, Flag, Flags, Kind};
use crate::report::{f3, Table};
use perfcloud_stats::TimeSeries;
use std::fmt;

pub mod ablation_controller;
pub mod ablation_monitor;
pub mod ablation_threshold;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod future_work;

/// One harness: its binary name, the flags it accepts, and its entry
/// point, which takes the master seed and the parsed flags.
#[derive(Debug)]
pub struct Harness {
    /// The binary's name.
    pub name: &'static str,
    /// The flags it accepts.
    pub flags: &'static [Flag],
    /// Runs it and returns what it prints.
    pub run: fn(u64, &Flags) -> String,
}

/// Every harness, in `run_all`'s print order. The last two are the heavy
/// sweeps, which `run_all` runs alone after the rest.
pub static SUITE: [Harness; 15] = [
    Harness { name: "fig1", flags: &[], run: |seed, _| fig1::run(seed) },
    Harness { name: "fig2", flags: &[], run: |seed, _| fig2::run(seed) },
    Harness { name: "fig3", flags: &[], run: |seed, _| fig3::run(seed) },
    Harness { name: "fig4", flags: &[], run: |seed, _| fig4::run(seed) },
    Harness { name: "fig5", flags: &[], run: |seed, _| fig5::run(seed) },
    Harness {
        name: "fig6",
        flags: &[Flag("--omit-missing", Kind::Switch)],
        run: |seed, f| fig6::run(seed, f.switch("--omit-missing")),
    },
    Harness { name: "fig7", flags: &[], run: |_, _| fig7::run() },
    Harness { name: "fig9", flags: &[], run: |seed, _| fig9::run(seed) },
    Harness { name: "fig10", flags: &[], run: |seed, _| fig10::run(seed) },
    Harness { name: "future_work", flags: &[], run: |seed, _| future_work::run(seed) },
    Harness { name: "ablation_controller", flags: &[], run: |_, _| ablation_controller::run() },
    Harness {
        name: "ablation_threshold",
        flags: &[],
        run: |seed, _| ablation_threshold::run(seed),
    },
    Harness { name: "ablation_monitor", flags: &[], run: |seed, _| ablation_monitor::run(seed) },
    Harness {
        name: "fig11",
        flags: &[Flag("--scale", Kind::Float), Flag("--heterogeneous", Kind::Switch)],
        run: |seed, f| {
            fig11::run(seed, f.value("--scale").unwrap_or(0.25), f.switch("--heterogeneous"))
        },
    },
    Harness {
        name: "fig12",
        flags: &[Flag("--reps", Kind::Count), Flag("--scale-servers", Kind::Count)],
        run: |seed, f| {
            fig12::run(
                seed,
                f.value("--reps").unwrap_or(30),
                f.value("--scale-servers").unwrap_or(15),
            )
        },
    },
];

/// The harness named `name`.
///
/// # Panics
///
/// If there is none.
pub fn harness(name: &str) -> &'static Harness {
    SUITE.iter().find(|h| h.name == name).unwrap_or_else(|| panic!("no harness named {name}"))
}

/// The `main` of harness binary `name`: parses its flags (exiting 2 on a
/// bad one), reads the master seed and prints the harness's text.
pub fn main(name: &str) {
    let harness = harness(name);
    let flags = cli::from_env(harness.name, harness.flags);
    print!("{}", (harness.run)(crate::scenarios::base_seed(), &flags));
}

/// A table with one row per sample of `victim`: the time in seconds, the
/// victim's value, and each series' value at that instant (`-` where a
/// series or its value is missing).
fn series_table(headers: Vec<&str>, victim: &TimeSeries, series: &[Option<TimeSeries>]) -> Table {
    let cell = |v: Option<f64>| v.map(f3).unwrap_or_else(|| "-".into());
    let mut t = Table::new(headers);
    for (&ts, &v) in victim.times().iter().zip(victim.values()) {
        let mut row = vec![format!("{:.0}", ts.as_secs_f64()), cell(v)];
        for s in series {
            let at = |s: &TimeSeries| {
                s.times().iter().position(|&u| u == ts).and_then(|k| s.values()[k])
            };
            row.push(cell(s.as_ref().and_then(at)));
        }
        t.row(row);
    }
    t
}

/// Runs `body` on an empty buffer and returns what it wrote.
fn report(body: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    body(&mut out).expect("writing to a String cannot fail");
    out
}
