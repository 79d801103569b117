//! Shared last-level cache and memory-bandwidth contention model.
//!
//! The model produces the two `perf_event` observables the paper's pipeline
//! consumes: per-VM **LLC miss rate** and **CPI**.
//!
//! * **LLC**: each active VM's hot working set competes for cache capacity.
//!   With total footprint `W` and cache size `L`, a VM retains the fraction
//!   `a = min(1, L / W)` of the residency it needs, so its hit rate is
//!   `cache_reuse × a` and its miss rate `1 − cache_reuse × a`. A streaming
//!   antagonist (huge `working_set`, `cache_reuse ≈ 0`) both misses
//!   constantly itself *and* evicts everyone else — the paper's STREAM
//!   behaviour.
//! * **Bandwidth**: missing references consume DRAM bandwidth (64-byte lines
//!   plus writeback traffic). Offered utilization ρ inflates the per-miss
//!   stall through a capped `1/(1−ρ)` queueing factor.
//! * **CPI**: `base_cpi + refs_per_instr × miss_rate × penalty × queue ×
//!   luck`. The luck factor (per-VM AR(1), amplitude grows with ρ) creates
//!   the across-VM CPI deviation that PerfCloud detects.

use crate::config::MemoryConfig;

/// Bytes moved per LLC miss (line fill + average writeback share).
pub const BYTES_PER_MISS: f64 = 96.0;

/// One VM's memory behaviour this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRequest {
    /// Instructions the VM wants to execute this tick (pre-allocation,
    /// already clamped by CPU caps).
    pub instr_demand: f64,
    /// Activity level in [0, 1]: the fraction of the VM's full-speed
    /// instruction rate this demand represents. A CPU-capped streamer
    /// sweeps its array proportionally slower, so its *effective* cache
    /// footprint shrinks with activity.
    pub activity: f64,
    /// LLC references per instruction.
    pub refs_per_instr: f64,
    /// Hot working set in bytes.
    pub working_set: f64,
    /// Fraction of references that would hit given unlimited cache.
    pub cache_reuse: f64,
    /// Base CPI of the instruction mix with a warm, private cache.
    pub base_cpi: f64,
    /// The VM's current luck multiplier.
    pub luck: f64,
}

/// Derived memory outcome for one VM this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOutcome {
    /// Effective cycles per instruction under current contention.
    pub cpi: f64,
    /// LLC miss rate (misses / references).
    pub miss_rate: f64,
}

/// Evaluates the memory model for one tick of `dt` seconds. Writes one
/// outcome per request into `outcomes` (index-aligned with `requests`) and
/// returns the offered DRAM bandwidth utilization (may exceed 1 under
/// overload).
pub fn model(
    requests: &[MemRequest],
    cfg: &MemoryConfig,
    dt: f64,
    outcomes: &mut Vec<MemOutcome>,
) -> f64 {
    assert!(dt > 0.0, "tick length must be positive");
    // Cache squeeze: total active footprint vs. LLC capacity. A VM's
    // eviction pressure is bounded by the bytes it can actually touch within
    // a cache-residency window — a CPU-capped streamer sweeps its huge array
    // slowly and evicts correspondingly less.
    const EVICTION_WINDOW_SECS: f64 = 0.01;
    let total_ws: f64 = requests
        .iter()
        .filter(|r| r.instr_demand > 0.0)
        .map(|r| {
            let touched = (r.instr_demand / dt) * r.refs_per_instr * 64.0 * EVICTION_WINDOW_SECS;
            (r.working_set * r.activity.clamp(0.0, 1.0)).min(touched)
        })
        .sum();
    let adequacy = if total_ws > 0.0 { (cfg.llc_bytes / total_ws).min(1.0) } else { 1.0 };

    // Miss rates first; the CPI needs the bandwidth queue they imply.
    outcomes.clear();
    outcomes.extend(requests.iter().map(|r| MemOutcome {
        cpi: r.base_cpi,
        miss_rate: (1.0 - r.cache_reuse.clamp(0.0, 1.0) * adequacy).clamp(0.0, 1.0),
    }));

    // Offered DRAM bandwidth demand.
    let demand_bytes: f64 = requests
        .iter()
        .zip(outcomes.iter())
        .map(|(r, o)| r.instr_demand.max(0.0) * r.refs_per_instr * o.miss_rate * BYTES_PER_MISS)
        .sum();
    let offered = demand_bytes / (cfg.bandwidth_bps * dt);

    let rho = offered.min(0.999);
    let queue = (1.0 / (1.0 - rho)).min(cfg.max_queue_factor);
    // For a finite `queue` with a clear sign bit, `queue^s` is finite and
    // non-negative for every non-NaN `s` in [0, 1]; the shortcut below
    // relies on it.
    let queue_is_plain = queue.is_finite() && queue.is_sign_positive();

    for (r, o) in requests.iter().zip(outcomes.iter_mut()) {
        // Latency sensitivity scales with reuse: demand (pointer-chasing,
        // reuse-heavy) loads stall for the full queueing delay, while
        // streaming access (reuse ≈ 0) is prefetch-covered and
        // bandwidth-bound, feeling queueing only weakly.
        let sensitivity = r.cache_reuse.clamp(0.0, 1.0);
        let scaled_misses = r.refs_per_instr * o.miss_rate * cfg.miss_penalty_cycles;
        // A ±0 prefix times any finite non-negative factor is that same
        // ±0, so where no miss can stall (idle VMs) `powf` is skipped.
        let effective_queue = if scaled_misses == 0.0 && queue_is_plain && !sensitivity.is_nan() {
            1.0
        } else {
            queue.powf(sensitivity)
        };
        let stall = scaled_misses * effective_queue * r.luck.max(0.0);
        o.cpi = r.base_cpi + stall;
    }
    offered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemoryConfig {
        MemoryConfig::default()
    }

    struct Tick {
        outcomes: Vec<MemOutcome>,
        offered_utilization: f64,
    }

    fn model(requests: &[MemRequest], cfg: &MemoryConfig, dt: f64) -> Tick {
        let mut outcomes = Vec::new();
        let offered_utilization = super::model(requests, cfg, dt, &mut outcomes);
        Tick { outcomes, offered_utilization }
    }

    fn victim(instr: f64) -> MemRequest {
        MemRequest {
            instr_demand: instr,
            activity: 1.0,
            refs_per_instr: 0.02,
            working_set: 4.0e6,
            cache_reuse: 0.9,
            base_cpi: 1.0,
            luck: 1.0,
        }
    }

    fn stream(instr: f64) -> MemRequest {
        MemRequest {
            instr_demand: instr,
            activity: 1.0,
            refs_per_instr: 0.25,
            working_set: 2.0e9,
            cache_reuse: 0.0,
            base_cpi: 1.0,
            luck: 1.0,
        }
    }

    #[test]
    fn empty_tick_is_idle() {
        let t = model(&[], &cfg(), 0.1);
        assert!(t.outcomes.is_empty());
        assert_eq!(t.offered_utilization, 0.0);
    }

    #[test]
    fn lone_small_footprint_has_low_miss_and_base_cpi() {
        let t = model(&[victim(1e8)], &cfg(), 0.1);
        let o = t.outcomes[0];
        // Footprint (4 MB) fits in the 60 MB LLC: miss rate = 1 - reuse.
        assert!((o.miss_rate - 0.1).abs() < 1e-9, "miss {:.3}", o.miss_rate);
        assert!(o.cpi < 1.1, "cpi {:.3}", o.cpi);
        assert!(t.offered_utilization < 0.01);
    }

    #[test]
    fn streaming_antagonist_always_misses() {
        let t = model(&[stream(1e9)], &cfg(), 0.1);
        assert!((t.outcomes[0].miss_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn colocated_stream_raises_victim_miss_rate_and_cpi() {
        let alone = model(&[victim(1e8)], &cfg(), 0.1);
        let shared = model(&[victim(1e8), stream(2e9), stream(2e9)], &cfg(), 0.1);
        let v_alone = alone.outcomes[0];
        let v_shared = shared.outcomes[0];
        assert!(v_shared.miss_rate > 5.0 * v_alone.miss_rate);
        assert!(v_shared.cpi > 1.5 * v_alone.cpi, "{} !> {}", v_shared.cpi, v_alone.cpi);
        assert!(shared.offered_utilization > alone.offered_utilization);
    }

    #[test]
    fn idle_vm_does_not_squeeze_cache() {
        // A VM with zero instruction demand contributes no footprint.
        let idle_stream = MemRequest { instr_demand: 0.0, ..stream(0.0) };
        let t = model(&[victim(1e8), idle_stream], &cfg(), 0.1);
        assert!((t.outcomes[0].miss_rate - 0.1).abs() < 1e-9);
    }

    #[test]
    fn queue_factor_is_capped_under_overload() {
        let heavy = [stream(1e12), stream(1e12), victim(1e8)];
        let t = model(&heavy, &cfg(), 0.1);
        let v = t.outcomes[2];
        let max_stall = 0.02 * 1.0 * cfg().miss_penalty_cycles * cfg().max_queue_factor;
        assert!(v.cpi <= 1.0 + max_stall + 1e-9);
        assert!(t.offered_utilization > 1.0);
    }

    #[test]
    fn luck_scales_only_the_stall_component() {
        let mut lucky = victim(1e8);
        lucky.luck = 0.0;
        let t = model(&[lucky, stream(2e9)], &cfg(), 0.1);
        assert!((t.outcomes[0].cpi - 1.0).abs() < 1e-12, "zero luck => base CPI");
    }

    #[test]
    fn miss_rate_bounded_in_unit_interval() {
        for reuse in [0.0, 0.5, 1.0] {
            for ws in [0.0, 1e6, 1e12] {
                let r = MemRequest {
                    instr_demand: 1e8,
                    activity: 1.0,
                    refs_per_instr: 0.1,
                    working_set: ws,
                    cache_reuse: reuse,
                    base_cpi: 1.0,
                    luck: 1.0,
                };
                let t = model(&[r], &cfg(), 0.1);
                let m = t.outcomes[0].miss_rate;
                assert!((0.0..=1.0).contains(&m), "miss {m}");
            }
        }
    }

    /// Runs the model and checks every CPI bit-for-bit against the stall
    /// evaluated through `powf`, returning the bandwidth queue factor.
    fn assert_matches_unskipped(requests: &[MemRequest]) -> f64 {
        let cfg = cfg();
        let t = model(requests, &cfg, 0.1);
        let queue = (1.0 / (1.0 - t.offered_utilization.min(0.999))).min(cfg.max_queue_factor);
        for (o, r) in t.outcomes.iter().zip(requests) {
            let effective_queue = queue.powf(r.cache_reuse.clamp(0.0, 1.0));
            let stall = r.refs_per_instr
                * o.miss_rate
                * cfg.miss_penalty_cycles
                * effective_queue
                * r.luck.max(0.0);
            assert_eq!(o.cpi.to_bits(), (r.base_cpi + stall).to_bits(), "{r:?}");
        }
        queue
    }

    #[test]
    fn skipped_powf_is_bit_exact() {
        let subnormal = f64::MIN_POSITIVE / 8.0;
        let lucks = [1.0, 0.0, -0.0, -2.0, subnormal, 1e300, f64::INFINITY, f64::NAN];
        // Two saturating streamers keep the bandwidth queue well above 1,
        // so `queue^s` differs from 1 wherever it is really evaluated.
        let mut requests = vec![stream(2e9), stream(2e9)];
        for refs in [0.0, -0.0, 0.02] {
            for reuse in [0.0, -0.0, 0.5, 1.0, f64::NAN] {
                for luck in lucks {
                    for base_cpi in [1.0, -0.0] {
                        requests.push(MemRequest {
                            refs_per_instr: refs,
                            cache_reuse: reuse,
                            luck,
                            base_cpi,
                            ..victim(1e8)
                        });
                    }
                }
            }
        }
        // A NaN reuse poisons the offered bandwidth, which pins the queue at
        // its cap; without those rows the queue comes from real traffic.
        assert!(assert_matches_unskipped(&requests) > 1.0);
        requests.retain(|r| !r.cache_reuse.is_nan());
        assert!(assert_matches_unskipped(&requests) > 1.0);
    }

    #[test]
    fn perfect_reuse_fitting_cache_never_misses() {
        let r = MemRequest {
            instr_demand: 1e8,
            activity: 1.0,
            refs_per_instr: 0.1,
            working_set: 1e6,
            cache_reuse: 1.0,
            base_cpi: 0.8,
            luck: 1.0,
        };
        let t = model(&[r], &cfg(), 0.1);
        assert!(t.outcomes[0].miss_rate.abs() < 1e-9);
        assert!((t.outcomes[0].cpi - 0.8).abs() < 1e-9);
    }
}
