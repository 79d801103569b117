//! The fio random-read antagonist.
//!
//! Models `fio --rw=randread --direct=1` with a fixed queue depth: the
//! process keeps `iodepth` small-block random reads outstanding, so its
//! submission rate is bounded by `iodepth / service_time` but it will happily
//! consume the whole device if allowed. The paper's VMs ran with caching
//! `none`, so every op reaches the (virtual) device — as here.

use crate::modulation::RateModulation;
use crate::RunWindow;
use perfcloud_host::{Achieved, IoPattern, Process, ResourceDemand};
use perfcloud_sim::SimDuration;

/// Closed-loop random-read I/O generator.
#[derive(Debug, Clone)]
pub struct FioRandRead {
    label: String,
    /// Max ops the workload can have in flight per second of tick.
    submission_rate: f64,
    block_size: f64,
    window: RunWindow,
    modulation: RateModulation,
}

impl FioRandRead {
    /// Default deep-queue generator: submits up to 12 500 random 4 KiB reads
    /// per second — ~60% of the Chameleon preset device's capability, so its
    /// natural rate swings push the shared device in and out of saturation
    /// (as a real fio instance's bursts do) and its achieved throughput
    /// visibly tracks those swings.
    pub fn new(duration: Option<SimDuration>) -> Self {
        Self::with_rate(12_500.0, 4096.0, duration)
    }

    /// Generator with an explicit submission rate (ops/s) and block size.
    pub fn with_rate(submission_rate: f64, block_size: f64, duration: Option<SimDuration>) -> Self {
        assert!(submission_rate > 0.0 && block_size > 0.0);
        FioRandRead {
            label: "fio-randread".to_string(),
            submission_rate,
            block_size,
            window: RunWindow::new(duration),
            modulation: RateModulation::none(),
        }
    }

    /// Enables natural rate variability (±~50% swings over ~15 s), seeded
    /// per instance. Needed for steady-state antagonist identification.
    pub fn with_modulation(mut self, seed: u64) -> Self {
        self.modulation = RateModulation::new(seed, 0.5, 15.0);
        self
    }
}

impl Process for FioRandRead {
    fn demand(&self, dt: SimDuration) -> ResourceDemand {
        let dt_s = dt.as_secs_f64();
        let ops = self.submission_rate * self.modulation.factor() * dt_s;
        ResourceDemand {
            // fio burns a little CPU issuing and reaping ops.
            cpu_parallelism: 1.0,
            cpu_instructions: ops * 20_000.0,
            io_ops: ops,
            io_bytes: ops * self.block_size,
            io_pattern: IoPattern::Random,
            // Deep asynchronous queue: fio barely feels queueing latency.
            io_queue_depth: 256.0,
            // Small buffers, direct I/O: fio barely touches the LLC — it is
            // a pure disk antagonist.
            mem_refs_per_instr: 0.002,
            working_set: 8.0e6,
            cache_reuse: 0.1,
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
    fn demand_scales_with_tick_length() {
        let f = FioRandRead::new(None);
        let d1 = f.demand(DT);
        let d2 = f.demand(SimDuration::from_micros(200_000));
        assert!((d2.io_ops - 2.0 * d1.io_ops).abs() < 1e-9);
        assert_eq!(d1.io_pattern, IoPattern::Random);
        assert!((d1.io_bytes - d1.io_ops * 4096.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_run_completes() {
        let mut f = FioRandRead::new(Some(SimDuration::from_secs(1.0)));
        for _ in 0..10 {
            assert!(!f.is_done());
            f.advance(&Achieved::default(), DT);
        }
        assert!(f.is_done());
        assert_eq!(f.progress(), 1.0);
    }

    #[test]
    fn custom_rate_respected() {
        let f = FioRandRead::with_rate(100.0, 8192.0, None);
        let d = f.demand(DT);
        assert!((d.io_ops - 10.0).abs() < 1e-9);
        assert!((d.io_bytes - 10.0 * 8192.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = FioRandRead::with_rate(0.0, 4096.0, None);
    }
}
