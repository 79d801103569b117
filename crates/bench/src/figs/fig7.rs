//! Figure 7 — the CUBIC cap-growth function and its three regions.
//!
//! Replays Eq. 1 analytically: one multiplicative decrease (β = 0.8), then
//! cubic growth with γ = 0.005, printing the cap and its region (initial
//! growth / plateau / probing) per 5-second control interval.

use crate::report::{f3, shape_check, Table};
use perfcloud_core::cubic::{CubicController, CubicState, GrowthRegion};
use std::fmt::Write;

fn region_name(r: GrowthRegion) -> &'static str {
    match r {
        GrowthRegion::InitialGrowth => "initial-growth",
        GrowthRegion::Plateau => "plateau",
        GrowthRegion::Probing => "probing",
    }
}

/// Replays Figure 7's growth function and returns its text.
pub fn run() -> String {
    super::report(|out| {
        writeln!(out, "=== Figure 7: CUBIC growth function (beta = 0.8, gamma = 0.005) ===\n")?;
        let c = CubicController::paper();
        let mut s = CubicState::new();
        // Contention at t = 0 drops the cap from the observed usage (1.0).
        c.step(&mut s, true);

        let mut t = Table::new(vec!["interval", "t (s)", "cap (normalized)", "region"]);
        t.row(vec!["0".to_string(), "0".to_string(), f3(s.cap), "decrease (x0.2)".to_string()]);
        let mut transitions = Vec::new();
        let mut last = s.region();
        for k in 1..=16u64 {
            c.step(&mut s, false);
            let r = s.region();
            if r != last {
                transitions.push(region_name(r));
                last = r;
            }
            t.row(vec![k.to_string(), (k * 5).to_string(), f3(s.cap), region_name(r).to_string()]);
        }
        out.push_str(&t.render());

        writeln!(
            out,
            "\nregion transitions observed: initial-growth -> {}",
            transitions.join(" -> ")
        )?;
        let ok = transitions == ["plateau", "probing"];
        shape_check(out, "steep growth, then plateau around C_max, then probing", ok)?;
        Ok(())
    })
}
