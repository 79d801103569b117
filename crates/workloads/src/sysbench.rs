//! The sysbench decoys.
//!
//! In the paper's antagonist-identification case studies (Figs. 5–6),
//! sysbench OLTP and sysbench CPU are colocated alongside the real
//! antagonists. Neither stresses the contended resource enough to hurt the
//! victims, so PerfCloud must *not* correlate them with the victim's
//! deviation series. Their resource signatures:
//!
//! * **OLTP** (read-only, 8 threads, 10M-row table, 120 s): moderate random
//!   point reads against a mostly-cached table plus query-processing CPU.
//! * **CPU** (4 threads, primes up to 12M): pure integer computation with a
//!   tiny working set — essentially invisible to disk and memory bandwidth.

use crate::modulation::RateModulation;
use crate::RunWindow;
use perfcloud_host::{Achieved, IoPattern, Process, ResourceDemand};
use perfcloud_sim::SimDuration;

/// sysbench OLTP read-only workload.
#[derive(Debug, Clone)]
pub struct SysbenchOltp {
    label: String,
    threads: u32,
    window: RunWindow,
    modulation: RateModulation,
}

impl SysbenchOltp {
    /// The paper's configuration: 8 threads for 120 seconds.
    pub fn new() -> Self {
        Self::with_config(8, Some(SimDuration::from_secs(120.0)))
    }

    /// Custom thread count and duration.
    pub fn with_config(threads: u32, duration: Option<SimDuration>) -> Self {
        assert!(threads > 0);
        SysbenchOltp {
            label: "sysbench-oltp".to_string(),
            threads,
            window: RunWindow::new(duration),
            modulation: RateModulation::none(),
        }
    }

    /// Enables natural transaction-rate variability, seeded per instance.
    /// OLTP fluctuates like every real workload — the identifier must still
    /// not flag it, because its fluctuations do not move the victim.
    pub fn with_modulation(mut self, seed: u64) -> Self {
        self.modulation = RateModulation::new(seed, 0.5, 6.0);
        self
    }
}

impl Default for SysbenchOltp {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for SysbenchOltp {
    fn demand(&self, dt: SimDuration) -> ResourceDemand {
        let dt_s = dt.as_secs_f64();
        let par = self.threads as f64;
        // Each thread issues ~40 point reads/s; most hit the buffer pool, a
        // fraction reach the device.
        let device_reads = par * 40.0 * 0.25 * self.modulation.factor() * dt_s;
        ResourceDemand {
            cpu_parallelism: par,
            // Query processing tracks the transaction rate, so the CPU and
            // cache activity fluctuate with the same pattern as the I/O.
            cpu_instructions: par * 0.12e9 * self.modulation.factor() * dt_s,
            io_ops: device_reads,
            io_bytes: device_reads * 16.0 * 1024.0,
            io_pattern: IoPattern::Random,
            // Synchronous point reads: one outstanding request per thread.
            io_queue_depth: 8.0,
            mem_refs_per_instr: 0.01,
            working_set: 256.0e6,
            cache_reuse: 0.7,
            base_cpi: 1.1,
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

/// sysbench CPU (prime computation) workload.
#[derive(Debug, Clone)]
pub struct SysbenchCpu {
    label: String,
    threads: u32,
    instructions_left: f64,
    total_instructions: f64,
}

impl SysbenchCpu {
    /// The paper's configuration: 4 threads computing primes up to 12M.
    pub fn new() -> Self {
        Self::with_config(4, 12_000_000)
    }

    /// Custom thread count and prime bound. The instruction budget scales
    /// roughly with `n√n`, anchored so the default runs a few minutes.
    pub fn with_config(threads: u32, max_prime: u64) -> Self {
        assert!(threads > 0 && max_prime > 1);
        let n = max_prime as f64;
        let budget = n * n.sqrt() * 12.0;
        SysbenchCpu {
            label: "sysbench-cpu".to_string(),
            threads,
            instructions_left: budget,
            total_instructions: budget,
        }
    }
}

impl Default for SysbenchCpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for SysbenchCpu {
    fn demand(&self, dt: SimDuration) -> ResourceDemand {
        let dt_s = dt.as_secs_f64();
        let par = self.threads as f64;
        ResourceDemand {
            cpu_parallelism: par,
            cpu_instructions: (par * 2.3e9 * dt_s).min(self.instructions_left),
            io_ops: 0.0,
            io_bytes: 0.0,
            io_pattern: IoPattern::Random,
            io_queue_depth: 32.0,
            // Prime sieving runs out of registers and L1; it effectively
            // never touches the LLC — the perfect innocent bystander.
            mem_refs_per_instr: 0.0,
            working_set: 1.0e6,
            cache_reuse: 1.0,
            base_cpi: 0.8,
        }
    }

    fn advance(&mut self, achieved: &Achieved, _dt: SimDuration) {
        self.instructions_left = (self.instructions_left - achieved.instructions).max(0.0);
    }

    fn is_done(&self) -> bool {
        self.instructions_left <= 0.0
    }

    fn progress(&self) -> f64 {
        1.0 - self.instructions_left / self.total_instructions
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
    fn oltp_defaults_match_paper() {
        let o = SysbenchOltp::new();
        assert_eq!(o.threads, 8);
        let d = o.demand(DT);
        assert!(d.io_ops > 0.0, "OLTP must touch the disk");
        assert!(d.cpu_instructions > 0.0);
        assert_eq!(d.io_pattern, IoPattern::Random);
    }

    #[test]
    fn oltp_io_is_mild_compared_to_fio() {
        let o = SysbenchOltp::new();
        let f = crate::FioRandRead::new(None);
        let od = o.demand(DT);
        let fd = f.demand(DT);
        assert!(
            od.io_ops * 10.0 < fd.io_ops,
            "OLTP ({}) must demand far fewer ops than fio ({})",
            od.io_ops,
            fd.io_ops
        );
    }

    #[test]
    fn oltp_finishes_after_120s() {
        let mut o = SysbenchOltp::new();
        for _ in 0..1199 {
            o.advance(&Achieved::default(), DT);
        }
        assert!(!o.is_done());
        o.advance(&Achieved::default(), DT);
        assert!(o.is_done());
    }

    #[test]
    fn cpu_is_disk_and_memory_innocent() {
        let c = SysbenchCpu::new();
        let d = c.demand(DT);
        assert_eq!(d.io_ops, 0.0);
        assert!(d.mem_refs_per_instr < 0.01);
        assert!(d.working_set < 10.0e6);
        assert_eq!(d.cache_reuse, 1.0);
    }

    #[test]
    fn cpu_progresses_by_instructions() {
        let mut c = SysbenchCpu::with_config(4, 1_000_000);
        let total = c.total_instructions;
        c.advance(&Achieved { instructions: total / 2.0, ..Default::default() }, DT);
        assert!((c.progress() - 0.5).abs() < 1e-9);
        c.advance(&Achieved { instructions: total, ..Default::default() }, DT);
        assert!(c.is_done());
        assert_eq!(c.progress(), 1.0);
    }

    #[test]
    fn cpu_demand_caps_at_remaining_work() {
        let mut c = SysbenchCpu::with_config(4, 1_000_000);
        c.instructions_left = 5.0;
        let d = c.demand(DT);
        assert_eq!(d.cpu_instructions, 5.0);
    }
}
