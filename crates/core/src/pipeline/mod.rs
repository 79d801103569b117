//! Pluggable detection/identification pipelines.
//!
//! The paper hard-wires one detector (across-VM stddev vs. threshold ℋ,
//! §III-A) and one identifier (lagged Pearson ≥ 0.8, §III-B). These traits
//! lift both behind seams so the node manager can run alternatives over the
//! *same* monitor, controller, and actuators — and the accuracy harness in
//! `perfcloud-bench` can score every (detector × identifier) combination
//! against injected ground truth. The paper's own pipeline implements the
//! traits directly — [`PaperDetector`] calls [`crate::detector::detect`] and
//! [`AntagonistIdentifier`] is its own [`Identifier`] — and reproduces the
//! inlined originals byte-for-byte (the golden-trace suite pins this);
//! [`panda`] and [`alioth`] are deterministic pure-Rust reconstructions of
//! the noise-resilient alternatives from the related work.

pub mod alioth;
pub mod panda;

use crate::antagonist::{AntagonistIdentifier, Resource};
use crate::config::PerfCloudConfig;
use crate::detector::{ContentionSignal, PaperDetector};
use crate::monitor::PerformanceMonitor;
use perfcloud_host::VmId;
use perfcloud_sim::SimTime;
use perfcloud_stats::TimeSeries;

/// The `CloneBox` bound on [`Detector`]: pipelines must be duplicable so a
/// node manager (and therefore a whole experiment) can be forked mid-run.
/// Blanket-implemented for any `Clone` detector.
pub trait CloneDetector {
    /// Boxes a deep copy of `self`.
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl<T: Detector + Clone + 'static> CloneDetector for T {
    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The `CloneBox` bound on [`Identifier`]; see [`CloneDetector`].
pub trait CloneIdentifier {
    /// Boxes a deep copy of `self`.
    fn clone_box(&self) -> Box<dyn Identifier>;
}

impl<T: Identifier + Clone + 'static> CloneIdentifier for T {
    fn clone_box(&self) -> Box<dyn Identifier> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Identifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Contention detection: turns the monitor's smoothed per-VM series into a
/// per-interval [`ContentionSignal`] for one application's VM group.
///
/// Implementations must be deterministic functions of their own state and
/// the monitor's contents — no ambient randomness, time, or allocation
/// dependence — so runs replay byte-identically at any thread count.
/// `Send` because node managers live inside experiment forks, which
/// `bench::forked` hands to sweep worker threads.
pub trait Detector: Send + CloneDetector {
    /// Evaluates the signal for one application's VMs at the current
    /// sampling instant. Every implementation must fill `io_deviation` /
    /// `cpi_deviation` with the paper's across-VM standard deviations (the
    /// decision traces and figure harnesses read them); only the
    /// `*_contended` verdicts may differ.
    fn detect(&mut self, monitor: &PerformanceMonitor, app_vms: &[VmId]) -> ContentionSignal;

    /// Drops all internal state — the crash-restart path, where the agent
    /// process loses its memory and rebuilds from empty windows.
    fn reset(&mut self);

    /// Short display name (`paper`, `alioth`) for scoreboards.
    fn name(&self) -> &'static str;
}

/// Antagonist identification: decides which low-priority suspects are
/// causing the victim's deviations, per resource dimension.
///
/// Same determinism and `Send` contract as [`Detector`].
pub trait Identifier: Send + CloneIdentifier {
    /// Appends the victim's deviations observed at `now` and advances any
    /// incremental per-suspect state. Called once per sampling interval,
    /// right after detection, with the current suspect set.
    fn observe(
        &mut self,
        now: SimTime,
        io_dev: Option<f64>,
        cpi_dev: Option<f64>,
        monitor: &PerformanceMonitor,
        suspects: &[VmId],
    );

    /// Clears `out`, then appends the suspects judged antagonists for
    /// `resource`, in suspect order.
    fn identify_into(
        &mut self,
        suspects: &[VmId],
        resource: Resource,
        monitor: &PerformanceMonitor,
        out: &mut Vec<VmId>,
    );

    /// The identification score for one suspect — the statistic
    /// [`identify_into`](Self::identify_into) thresholds (Pearson for the
    /// paper pipeline, Spearman for PANDA). `None` before enough evidence
    /// has accumulated.
    fn correlation(&self, suspect: VmId, resource: Resource) -> Option<f64>;

    /// The victim deviation series for `resource` — every identifier keeps
    /// it; the figure harnesses plot it.
    fn deviation_series(&self, resource: Resource) -> &TimeSeries;

    /// Drops all internal state (crash-restart).
    fn reset(&mut self);

    /// Short display name (`paper`, `panda`) for scoreboards.
    fn name(&self) -> &'static str;
}

/// Which detector implementation a pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// The paper's across-VM stddev vs. fixed threshold ℋ (§III-A).
    #[default]
    Paper,
    /// Alioth-style learned monitor: a fixed-point logistic over robust
    /// (MAD-based) deviation features, weights checked in as constants.
    Alioth,
}

/// Which identifier implementation a pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdentifierKind {
    /// The paper's rolling lagged Pearson ≥ 0.8 (§III-B).
    #[default]
    Paper,
    /// PANDA-style noise-resilient identification: Spearman rank
    /// correlation with sign-agreement filtering and a usage-share gate.
    Panda,
}

/// A (detector, identifier) selection. The default is the paper pipeline,
/// which reproduces the pre-seam behaviour byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineSpec {
    /// Detector selection.
    pub detector: DetectorKind,
    /// Identifier selection.
    pub identifier: IdentifierKind,
}

impl PipelineSpec {
    /// The paper's own pipeline (the default).
    pub fn paper() -> Self {
        PipelineSpec::default()
    }

    /// `<detector>/<identifier>` display name, e.g. `paper/panda`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.detector_name(), self.identifier_name())
    }

    /// The detector's display name.
    pub fn detector_name(&self) -> &'static str {
        match self.detector {
            DetectorKind::Paper => "paper",
            DetectorKind::Alioth => "alioth",
        }
    }

    /// The identifier's display name.
    pub fn identifier_name(&self) -> &'static str {
        match self.identifier {
            IdentifierKind::Paper => "paper",
            IdentifierKind::Panda => "panda",
        }
    }

    /// Instantiates the detector with the pipeline configuration.
    pub fn build_detector(&self, config: &PerfCloudConfig) -> Box<dyn Detector> {
        match self.detector {
            DetectorKind::Paper => Box::new(PaperDetector::new(config)),
            DetectorKind::Alioth => Box::new(alioth::AliothDetector::new(config)),
        }
    }

    /// Instantiates the identifier with the pipeline configuration.
    pub fn build_identifier(&self, config: &PerfCloudConfig) -> Box<dyn Identifier> {
        match self.identifier {
            IdentifierKind::Paper => Box::new(AntagonistIdentifier::new(config)),
            IdentifierKind::Panda => Box::new(panda::PandaIdentifier::new(config)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_pipeline() {
        let spec = PipelineSpec::default();
        assert_eq!(spec, PipelineSpec::paper());
        assert_eq!(spec.name(), "paper/paper");
        let cfg = PerfCloudConfig::default();
        assert_eq!(spec.build_detector(&cfg).name(), "paper");
        assert_eq!(spec.build_identifier(&cfg).name(), "paper");
    }

    #[test]
    fn alternatives_report_their_names() {
        let spec =
            PipelineSpec { detector: DetectorKind::Alioth, identifier: IdentifierKind::Panda };
        assert_eq!(spec.name(), "alioth/panda");
        let cfg = PerfCloudConfig::default();
        assert_eq!(spec.build_detector(&cfg).name(), "alioth");
        assert_eq!(spec.build_identifier(&cfg).name(), "panda");
    }
}
