//! Ablation — why CUBIC? (DESIGN.md §5)
//!
//! Compares the paper's CUBIC cap dynamics against two simpler controllers
//! on the same feedback task: keep a victim's contention signal below the
//! threshold while granting the antagonist as much of its demand as
//! possible.
//!
//! The plant is a deliberately simple closed loop: contention occurs while
//! the antagonist's cap exceeds the spare capacity left by the victim, whose
//! demand shifts occasionally (a step pattern). Controllers only observe the
//! binary contended/uncontended signal — exactly what Eq. 1 consumes.
//!
//! * **cubic** — Eq. 1 (β = 0.8, γ = 0.05 scaled for the fast plant);
//! * **aimd**  — additive increase (+0.05/interval), ×0.2 decrease;
//! * **onoff** — the paper's "ad-hoc" strawman: cap 0.2 while contended,
//!   uncapped otherwise.
//!
//! Metrics over the horizon: fraction of intervals in contention (victim
//! pain), mean granted cap (antagonist utility), and cap oscillation
//! (stddev of interval-to-interval cap changes — the paper's "oscillatory
//! and unstable system behavior" concern).

use crate::report::{f3, shape_check, Table};
use crate::sweep;
use perfcloud_core::cubic::{CubicController, CubicState};
use perfcloud_stats::population_stddev;
use std::fmt::Write;

/// Spare capacity for the antagonist over time: the victim's demand steps
/// between phases (e.g. I/O-heavy vs compute-heavy stages).
fn spare_capacity(t: usize) -> f64 {
    match (t / 60) % 3 {
        0 => 0.55,
        1 => 0.25,
        _ => 0.80,
    }
}

trait Controller {
    fn step(&mut self, contended: bool) -> f64;
}

struct Cubic {
    c: CubicController,
    s: CubicState,
}
impl Controller for Cubic {
    fn step(&mut self, contended: bool) -> f64 {
        self.c.step(&mut self.s, contended).min(1.0)
    }
}

struct Aimd {
    cap: f64,
}
impl Controller for Aimd {
    fn step(&mut self, contended: bool) -> f64 {
        if contended {
            self.cap *= 0.2;
        } else {
            self.cap = (self.cap + 0.05).min(1.0);
        }
        self.cap
    }
}

struct OnOff {
    cap: f64,
}
impl Controller for OnOff {
    fn step(&mut self, contended: bool) -> f64 {
        self.cap = if contended { 0.2 } else { 1.0 };
        self.cap
    }
}

fn evaluate(name: &str, ctrl: &mut dyn Controller, horizon: usize) -> (String, f64, f64, f64) {
    let mut cap = 1.0f64;
    let mut contended_intervals = 0usize;
    let mut caps = Vec::with_capacity(horizon);
    for t in 0..horizon {
        // Contention materializes when the cap lets the antagonist push
        // beyond the current spare capacity.
        let contended = cap > spare_capacity(t);
        if contended {
            contended_intervals += 1;
        }
        cap = ctrl.step(contended);
        caps.push(cap);
    }
    let mean_cap = caps.iter().sum::<f64>() / caps.len() as f64;
    let deltas: Vec<f64> = caps.windows(2).map(|w| w[1] - w[0]).collect();
    let oscillation = population_stddev(&deltas).unwrap_or(0.0);
    (name.to_string(), contended_intervals as f64 / horizon as f64, mean_cap, oscillation)
}

/// Runs the three controllers' closed loops and returns the text.
pub fn run() -> String {
    super::report(|out| {
        writeln!(out, "=== Ablation: CUBIC vs AIMD vs ad-hoc on/off capping ===\n")?;
        let horizon = 600;
        // γ is rescaled because the synthetic plant's spare capacity is O(1);
        // β matches the paper. Each controller's closed loop is independent.
        let rows = sweep::run(3, |i| {
            let mut ctrl: Box<dyn Controller> = match i {
                0 => Box::new(Cubic { c: CubicController::new(0.8, 0.05), s: CubicState::new() }),
                1 => Box::new(Aimd { cap: 1.0 }),
                _ => Box::new(OnOff { cap: 1.0 }),
            };
            evaluate(["cubic", "aimd", "onoff"][i], ctrl.as_mut(), horizon)
        });

        let mut t = Table::new(vec![
            "controller",
            "contended fraction",
            "mean granted cap",
            "cap oscillation",
        ]);
        for (name, pain, cap, osc) in &rows {
            t.row(vec![name.clone(), f3(*pain), f3(*cap), f3(*osc)]);
        }
        out.push_str(&t.render());

        let cubic = &rows[0];
        let onoff = &rows[2];
        writeln!(out)?;
        shape_check(out, "cubic oscillates less than on/off", cubic.3 < onoff.3)?;
        shape_check(out, "cubic causes less contention than on/off", cubic.1 < onoff.1)?;
        Ok(())
    })
}
