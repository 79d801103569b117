//! Declarative antagonist placements.
//!
//! Experiments describe antagonists as data — which workload, which server,
//! when it starts, how long it runs — so repetitions and random placements
//! (Figs. 11–12) are reproducible from a seed.

use perfcloud_host::Process;
use perfcloud_sim::{SimDuration, SimTime};
use perfcloud_workloads::{FioRandRead, Stream, SysbenchCpu, SysbenchOltp};

/// Which antagonist workload to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AntagonistKind {
    /// fio random read with the default saturating rate.
    Fio,
    /// fio random read with an explicit submission rate (ops/s).
    FioRate(f64),
    /// STREAM with the paper's 8 threads / 16 GB array.
    Stream,
    /// STREAM with an explicit thread count.
    StreamThreads(u32),
    /// The Fig. 6 variant: individually mild, jointly saturating.
    StreamMild,
    /// sysbench OLTP read-only (8 threads, 120 s).
    SysbenchOltp,
    /// sysbench CPU (4 threads, primes up to 12 M).
    SysbenchCpu,
}

impl AntagonistKind {
    /// Instantiates the workload process with natural rate variability
    /// seeded by `seed` (so placements are reproducible yet distinct).
    pub fn spawn(&self, duration: Option<SimDuration>, seed: u64) -> Box<dyn Process> {
        match *self {
            AntagonistKind::Fio => Box::new(FioRandRead::new(duration).with_modulation(seed)),
            AntagonistKind::FioRate(rate) => {
                Box::new(FioRandRead::with_rate(rate, 4096.0, duration).with_modulation(seed))
            }
            AntagonistKind::Stream => Box::new(Stream::new(duration).with_modulation(seed)),
            AntagonistKind::StreamThreads(t) => {
                Box::new(Stream::with_threads(t, 16.0e9, duration).with_modulation(seed))
            }
            AntagonistKind::StreamMild => {
                Box::new(Stream::new(duration).with_intensity(0.04).with_modulation(seed))
            }
            AntagonistKind::SysbenchOltp => Box::new(SysbenchOltp::new().with_modulation(seed)),
            AntagonistKind::SysbenchCpu => Box::new(SysbenchCpu::new()),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            AntagonistKind::Fio | AntagonistKind::FioRate(_) => "fio-randread",
            AntagonistKind::Stream
            | AntagonistKind::StreamThreads(_)
            | AntagonistKind::StreamMild => "stream",
            AntagonistKind::SysbenchOltp => "sysbench-oltp",
            AntagonistKind::SysbenchCpu => "sysbench-cpu",
        }
    }
}

/// A placed antagonist: workload + server + lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntagonistPlacement {
    /// Workload kind.
    pub kind: AntagonistKind,
    /// Server index to place the VM on.
    pub server_idx: usize,
    /// When the workload starts.
    pub start: SimTime,
    /// Optional run length; `None` = runs for the whole experiment.
    pub duration: Option<SimDuration>,
    /// Placements sharing a seed group get identical modulation patterns —
    /// instances of the same benchmark started together exhibit similar
    /// phase behaviour (the paper's two STREAM VMs in Fig. 6).
    pub seed_group: Option<u64>,
}

impl AntagonistPlacement {
    /// A placement starting at time zero and running forever.
    pub fn pinned(kind: AntagonistKind, server_idx: usize) -> Self {
        AntagonistPlacement {
            kind,
            server_idx,
            start: SimTime::ZERO,
            duration: None,
            seed_group: None,
        }
    }

    /// Same placement, sharing a modulation seed group with others.
    pub fn in_seed_group(mut self, group: u64) -> Self {
        self.seed_group = Some(group);
        self
    }

    /// Same placement with a delayed start.
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Same placement with the start deferred past any horizon: the VM is
    /// booted but its workload never spawns. Fork-point sweeps build the
    /// parent this way and let each fork pick the onset with
    /// [`crate::Experiment::start_antagonist`].
    pub fn deferred(mut self) -> Self {
        self.start = SimTime::MAX;
        self
    }

    /// Same placement with a bounded run length.
    pub fn lasting(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_spawn_their_workloads() {
        assert_eq!(AntagonistKind::Fio.spawn(None, 1).label(), "fio-randread");
        assert_eq!(AntagonistKind::Stream.spawn(None, 2).label(), "stream");
        assert_eq!(AntagonistKind::SysbenchOltp.spawn(None, 3).label(), "sysbench-oltp");
        assert_eq!(AntagonistKind::SysbenchCpu.spawn(None, 4).label(), "sysbench-cpu");
    }

    #[test]
    fn placement_builders() {
        let p = AntagonistPlacement::pinned(AntagonistKind::Fio, 3)
            .starting_at(SimTime::from_secs(15))
            .lasting(SimDuration::from_secs(60.0));
        assert_eq!(p.server_idx, 3);
        assert_eq!(p.start, SimTime::from_secs(15));
        assert_eq!(p.duration, Some(SimDuration::from_secs(60.0)));
    }
}
