//! The STREAM memory-bandwidth antagonist.
//!
//! Models McCalpin's STREAM triad: `threads` worker threads sweeping arrays
//! far larger than the LLC. Zero temporal reuse (every reference misses once
//! the prefetcher's window is past), so the workload both saturates DRAM
//! bandwidth and evicts colocated tenants' cache lines. The paper runs it
//! with 8 threads and a 2-billion-element array per VM, noting that one
//! 8-thread instance alone is mild but a 16-thread group causes significant
//! interference — the model reproduces that superlinearity through the
//! bandwidth queueing factor.

use crate::modulation::RateModulation;
use crate::RunWindow;
use perfcloud_host::{Achieved, IoPattern, Process, ResourceDemand};
use perfcloud_sim::SimDuration;

/// Streaming memory-bandwidth hog.
#[derive(Debug, Clone)]
pub struct Stream {
    label: String,
    threads: u32,
    array_bytes: f64,
    intensity: f64,
    window: RunWindow,
    modulation: RateModulation,
}

impl Stream {
    /// The paper's configuration: 8 threads over a 2-billion-element
    /// (≈16 GB) array.
    pub fn new(duration: Option<SimDuration>) -> Self {
        Self::with_threads(8, 16.0e9, duration)
    }

    /// Custom thread count and array size.
    pub fn with_threads(threads: u32, array_bytes: f64, duration: Option<SimDuration>) -> Self {
        assert!(threads > 0 && array_bytes > 0.0);
        Stream {
            label: "stream".to_string(),
            threads,
            array_bytes,
            intensity: 0.15,
            window: RunWindow::new(duration),
            modulation: RateModulation::none(),
        }
    }

    /// Sets the per-instruction LLC-reference intensity. The default (0.15)
    /// makes a single instance saturating, as in the motivation experiments
    /// (Fig. 2); the paper's antagonist-group case study (Fig. 6) sizes
    /// STREAM so instances are individually mild (~0.05) but jointly
    /// saturating.
    pub fn with_intensity(mut self, refs_per_instr: f64) -> Self {
        assert!(refs_per_instr > 0.0);
        self.intensity = refs_per_instr;
        self
    }

    /// Enables natural intensity variability (alternating triad kernels),
    /// seeded per instance; required for steady-state identification via
    /// LLC-miss-rate correlation.
    pub fn with_modulation(mut self, seed: u64) -> Self {
        self.modulation = RateModulation::new(seed, 0.6, 12.0);
        self
    }

    /// Worker thread count.
    pub fn threads(&self) -> u32 {
        self.threads
    }
}

impl Process for Stream {
    fn demand(&self, dt: SimDuration) -> ResourceDemand {
        let dt_s = dt.as_secs_f64();
        let par = self.threads as f64;
        ResourceDemand {
            cpu_parallelism: par,
            // Wants to run flat out on all threads at ~1 IPC nominal.
            cpu_instructions: par * 2.3e9 * dt_s,
            io_ops: 0.0,
            io_bytes: 0.0,
            io_pattern: IoPattern::Sequential,
            io_queue_depth: 32.0,
            // Memory-intensive streaming. The modulation varies the kernel
            // mix, which perf counters see as a varying LLC-miss rate.
            mem_refs_per_instr: self.intensity * self.modulation.factor(),
            working_set: self.array_bytes,
            cache_reuse: 0.0,
            base_cpi: 1.0,
        }
    }

    fn advance(&mut self, _achieved: &Achieved, dt: SimDuration) {
        self.modulation.step(dt);
        self.window.advance(dt);
    }

    fn is_done(&self) -> bool {
        self.window.is_done()
    }

    fn progress(&self) -> f64 {
        self.window.progress()
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_micros(100_000);

    #[test]
    fn paper_default_configuration() {
        let s = Stream::new(None);
        assert_eq!(s.threads(), 8);
        let d = s.demand(DT);
        assert_eq!(d.cpu_parallelism, 8.0);
        assert_eq!(d.cache_reuse, 0.0);
        assert!(d.working_set > 1e9);
        assert_eq!(d.io_ops, 0.0);
    }

    #[test]
    fn demand_scales_with_threads() {
        let s2 = Stream::with_threads(2, 1e9, None);
        let s8 = Stream::with_threads(8, 1e9, None);
        let d2 = s2.demand(DT);
        let d8 = s8.demand(DT);
        assert!((d8.cpu_instructions / d2.cpu_instructions - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_run_completes() {
        let mut s = Stream::with_threads(8, 1e9, Some(SimDuration::from_secs(0.2)));
        s.advance(&Achieved::default(), DT);
        assert!(!s.is_done());
        s.advance(&Achieved::default(), DT);
        assert!(s.is_done());
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = Stream::with_threads(0, 1e9, None);
    }
}
