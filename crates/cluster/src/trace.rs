//! Canonical decision traces.
//!
//! A [`DecisionTrace`] records, per node-manager step, everything the agent
//! observed and did: the deviation signal, contention flags, identified
//! antagonists, applied caps, and fault flags. Between the steps it records
//! the control plane's decisions as the typed [`FlightEvent`]s the plane
//! emits. It stores typed rows; the text is only a rendering of them.
//!
//! The canonical encoding ([`DecisionTrace::canonical`]) is one line per
//! entry in a fixed field order, with `f64` values printed via Rust's `{}`
//! Display — the shortest string that round-trips to the same bits — so two
//! traces are byte-identical exactly when the decision sequences are
//! bit-identical. The golden-trace suite diffs these against checked-in
//! references and prints the first diverging decision; the accuracy
//! scoreboard reads the typed rows directly ([`DecisionTrace::steps`]).

use perfcloud_core::{ContentionSignal, Resource, StepReport};
use perfcloud_host::VmId;
use perfcloud_obs::FlightEvent;
use perfcloud_sim::rng::{fnv1a64_extend, FNV1A64_OFFSET};
use perfcloud_sim::SimTime;
use std::fmt::{self, Write};

/// One trace entry. Each renders as exactly one canonical line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEntry {
    /// A node-manager step (read it through [`DecisionTrace::steps`]).
    Step(StepRow),
    /// A control-plane decision at the simulated time it happened.
    Ctrl(SimTime, FlightEvent),
}

/// A stored node-manager step: the [`StepReport`]'s scalar fields plus the
/// position of its VM and cap lists in the owning trace's flat columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRow {
    now: SimTime,
    server: u32,
    signal: Option<ContentionSignal>,
    /// `[start, io_end, cpu_end]` of the row's antagonists in the trace's
    /// `vms` column: the I/O list, then the CPU list.
    vms: [u32; 3],
    /// `[start, io_end, cpu_end]` of the row's caps in the `caps` column.
    caps: [u32; 3],
    stalled: bool,
    restarted: bool,
    placement_stale: bool,
}

/// A recorded node-manager step, borrowed from its trace: the
/// [`StepReport`] it was recorded from, with slices in place of `Vec`s.
/// The report's enrolled and released lists are not stored; only the flight
/// recorder renders them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepView<'a> {
    /// Simulated time of the step.
    pub now: SimTime,
    /// Server index the report came from.
    pub server: usize,
    /// The contention signal, `None` when the manager made no decision
    /// (idle, stalled, and placement-refused steps).
    pub signal: Option<ContentionSignal>,
    /// VMs identified as I/O antagonists.
    pub io_antagonists: &'a [VmId],
    /// VMs identified as processor antagonists.
    pub cpu_antagonists: &'a [VmId],
    /// Applied I/O caps (VM, normalized cap).
    pub io_caps: &'a [(VmId, f64)],
    /// Applied CPU caps (VM, normalized cap).
    pub cpu_caps: &'a [(VmId, f64)],
    /// The manager was stalled and skipped the interval.
    pub stalled: bool,
    /// The manager crash-restarted this interval.
    pub restarted: bool,
    /// Decisions ran on a cached (or no) placement view.
    pub placement_stale: bool,
}

impl<'a> StepView<'a> {
    /// Simulated time of the step, seconds.
    pub fn t(&self) -> f64 {
        self.now.as_secs_f64()
    }

    /// Whether the manager made a decision this step.
    pub fn decided(&self) -> bool {
        self.signal.is_some()
    }

    /// The detector verdict for `resource` (`false` when undecided).
    pub fn contended(&self, resource: Resource) -> bool {
        self.signal.is_some_and(|s| match resource {
            Resource::Io => s.io_contended,
            Resource::Cpu => s.cpu_contended,
        })
    }

    /// The identification list for `resource`.
    pub fn antagonists(&self, resource: Resource) -> &'a [VmId] {
        match resource {
            Resource::Io => self.io_antagonists,
            Resource::Cpu => self.cpu_antagonists,
        }
    }

    /// The applied caps for `resource`.
    pub fn caps(&self, resource: Resource) -> &'a [(VmId, f64)] {
        match resource {
            Resource::Io => self.io_caps,
            Resource::Cpu => self.cpu_caps,
        }
    }
}

/// An optional value: `-` when absent.
struct Opt(Option<f64>);

impl fmt::Display for Opt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(x) => write!(f, "{x}"),
            None => f.write_str("-"),
        }
    }
}

/// Writes ` key=` and `items` comma-separated, or `-` when empty.
fn write_list<T>(
    f: &mut fmt::Formatter<'_>,
    key: &str,
    items: &[T],
    item: impl Fn(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    write!(f, " {key}=")?;
    if items.is_empty() {
        return f.write_str("-");
    }
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        item(f, x)?;
    }
    Ok(())
}

/// The canonical step line, without its newline.
impl fmt::Display for StepView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} s={}", self.t(), self.server)?;
        match &self.signal {
            Some(sig) => write!(
                f,
                " dio={} dcpi={} io={} cpu={}",
                Opt(sig.io_deviation),
                Opt(sig.cpi_deviation),
                u8::from(sig.io_contended),
                u8::from(sig.cpu_contended),
            )?,
            None => f.write_str(" dio=- dcpi=- io=- cpu=-")?,
        }
        let vm = |f: &mut fmt::Formatter<'_>, vm: &VmId| write!(f, "{}", vm.0);
        let cap = |f: &mut fmt::Formatter<'_>, (vm, cap): &(VmId, f64)| write!(f, "{}:{cap}", vm.0);
        write_list(f, "aio", self.io_antagonists, vm)?;
        write_list(f, "acpu", self.cpu_antagonists, vm)?;
        write_list(f, "cio", self.io_caps, cap)?;
        write_list(f, "ccpu", self.cpu_caps, cap)?;
        let flags = [(self.stalled, 'S'), (self.restarted, 'R'), (self.placement_stale, 'P')];
        f.write_str(" f=")?;
        if flags.iter().all(|&(set, _)| !set) {
            return f.write_str("-");
        }
        flags.iter().filter(|&&(set, _)| set).try_for_each(|&(_, flag)| f.write_char(flag))
    }
}

/// Converts a column length to a row offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("decision-trace column exceeds u32 offsets")
}

/// Appends a row's I/O then CPU list to `column`, returning the
/// `[start, io_end, cpu_end]` offsets.
fn append<T: Copy>(column: &mut Vec<T>, io: &[T], cpu: &[T]) -> [u32; 3] {
    let start = offset(column.len());
    column.extend_from_slice(io);
    let io_end = offset(column.len());
    column.extend_from_slice(cpu);
    [start, io_end, offset(column.len())]
}

/// An append-only record of node-manager steps and control-plane decisions,
/// rendered to its canonical text on demand.
///
/// Recording does no per-entry heap allocation: step rows keep their VM and
/// cap lists in two trace-level flat columns, so the only allocations are
/// the amortized growth of three `Vec`s.
#[derive(Debug, Default, Clone)]
pub struct DecisionTrace {
    entries: Vec<TraceEntry>,
    /// Every step's identified VMs, row after row.
    vms: Vec<VmId>,
    /// Every step's applied caps, row after row.
    caps: Vec<(VmId, f64)>,
}

impl DecisionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one node-manager step. `server` is the server index the
    /// report came from.
    pub fn record(&mut self, now: SimTime, server: usize, report: &StepReport) {
        let vms = append(&mut self.vms, &report.io_antagonists, &report.cpu_antagonists);
        let caps = append(&mut self.caps, &report.io_caps, &report.cpu_caps);
        self.entries.push(TraceEntry::Step(StepRow {
            now,
            server: offset(server),
            signal: report.signal,
            vms,
            caps,
            stalled: report.stalled,
            restarted: report.restarted,
            placement_stale: report.placement_stale,
        }));
    }

    /// Appends one control-plane decision (election, publish summary,
    /// epoch reject, replica outage, reconciliation, migration phase) at
    /// the simulated time it happened.
    pub fn record_ctrl(&mut self, at: SimTime, event: &FlightEvent) {
        self.entries.push(TraceEntry::Ctrl(at, *event));
    }

    /// The recorded entries in order, one per canonical line.
    pub fn lines(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Borrows a stored step row with its VM and cap lists.
    fn view(&self, row: &StepRow) -> StepView<'_> {
        let ([start, io, cpu], [cap_start, cap_io, cap_cpu]) =
            (row.vms.map(|o| o as usize), row.caps.map(|o| o as usize));
        StepView {
            now: row.now,
            server: row.server as usize,
            signal: row.signal,
            io_antagonists: &self.vms[start..io],
            cpu_antagonists: &self.vms[io..cpu],
            io_caps: &self.caps[cap_start..cap_io],
            cpu_caps: &self.caps[cap_io..cap_cpu],
            stalled: row.stalled,
            restarted: row.restarted,
            placement_stale: row.placement_stale,
        }
    }

    /// The node-manager steps in order, skipping control-plane entries.
    pub fn steps(&self) -> impl Iterator<Item = StepView<'_>> {
        self.entries.iter().filter_map(|e| match e {
            TraceEntry::Step(row) => Some(self.view(row)),
            TraceEntry::Ctrl(..) => None,
        })
    }

    /// Appends `entry`'s canonical line, newline included, to `out`.
    fn render_line(&self, entry: &TraceEntry, out: &mut String) {
        let _ = match entry {
            TraceEntry::Step(row) => writeln!(out, "{}", self.view(row)),
            TraceEntry::Ctrl(at, event) => writeln!(out, "t={} ctrl {event}", at.as_secs_f64()),
        };
    }

    /// The whole trace as one newline-terminated string.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            self.render_line(entry, &mut out);
        }
        out
    }

    /// A stable 64-bit digest of the canonical encoding: FNV-1a of
    /// [`Self::canonical`]'s bytes, folded line by line through one reused
    /// buffer instead of building the whole string.
    pub fn digest(&self) -> u64 {
        let mut line = String::new();
        let mut h = FNV1A64_OFFSET;
        for entry in &self.entries {
            line.clear();
            self.render_line(entry, &mut line);
            h = fnv1a64_extend(h, line.as_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_sim::rng::fnv1a64;

    fn busy_report() -> StepReport {
        StepReport {
            signal: Some(ContentionSignal {
                io_deviation: Some(12.5),
                cpi_deviation: None,
                io_contended: true,
                cpu_contended: false,
            }),
            io_antagonists: vec![VmId(10)],
            io_caps: vec![(VmId(10), 0.2), (VmId(11), 0.5)],
            restarted: true,
            ..StepReport::default()
        }
    }

    #[test]
    fn canonical_line_shape() {
        let mut trace = DecisionTrace::new();
        trace.record(SimTime::from_secs(5), 0, &StepReport::default());
        trace.record(SimTime::from_secs(10), 3, &busy_report());
        let stale = StepReport { stalled: true, placement_stale: true, ..StepReport::default() };
        trace.record(SimTime::from_secs(15), 1, &stale);
        assert_eq!(trace.lines().len(), 3);
        assert_eq!(
            trace.canonical(),
            "t=5 s=0 dio=- dcpi=- io=- cpu=- aio=- acpu=- cio=- ccpu=- f=-\n\
             t=10 s=3 dio=12.5 dcpi=- io=1 cpu=0 aio=10 acpu=- cio=10:0.2,11:0.5 ccpu=- f=R\n\
             t=15 s=1 dio=- dcpi=- io=- cpu=- aio=- acpu=- cio=- ccpu=- f=SP\n"
        );
    }

    #[test]
    fn ctrl_entries_render_as_lines_and_are_not_steps() {
        let mut trace = DecisionTrace::new();
        trace.record(SimTime::from_secs(5), 0, &StepReport::default());
        let elect = FlightEvent::Election { replica: 1, round: 2 };
        trace.record_ctrl(SimTime::from_micros(14_700_000), &elect);
        trace.record(SimTime::from_secs(20), 3, &busy_report());
        assert_eq!(trace.lines().len(), 3);
        assert_eq!(trace.lines()[1], TraceEntry::Ctrl(SimTime::from_micros(14_700_000), elect));
        assert_eq!(trace.canonical().lines().nth(1), Some("t=14.7 ctrl elect m1 r=2"));
        let steps: Vec<StepView<'_>> = trace.steps().collect();
        assert_eq!(steps.len(), 2);
        assert_eq!((steps[0].t(), steps[0].server, steps[0].decided()), (5.0, 0, false));
        let busy = steps[1];
        assert_eq!((busy.t(), busy.server, busy.decided()), (20.0, 3, true));
        assert!(busy.contended(Resource::Io) && !busy.contended(Resource::Cpu));
        assert_eq!(busy.antagonists(Resource::Io), [VmId(10)]);
        assert!(busy.antagonists(Resource::Cpu).is_empty());
        assert_eq!(busy.caps(Resource::Io), [(VmId(10), 0.2), (VmId(11), 0.5)]);
        assert!(busy.restarted && !busy.stalled && !busy.placement_stale);
    }

    #[test]
    fn digest_is_the_hash_of_the_canonical_bytes() {
        let mut a = DecisionTrace::new();
        let mut b = DecisionTrace::new();
        a.record(SimTime::from_secs(5), 0, &StepReport::default());
        b.record(SimTime::from_secs(5), 0, &StepReport::default());
        assert_eq!(a.digest(), b.digest());
        b.record(SimTime::from_secs(10), 0, &StepReport::default());
        assert_ne!(a.digest(), b.digest());
        assert_eq!(DecisionTrace::new().digest(), fnv1a64(b""));
        for t in 0..50u64 {
            let report = if t % 3 == 0 { busy_report() } else { StepReport::default() };
            b.record(SimTime::from_secs(t), (t % 4) as usize, &report);
            if t % 7 == 0 {
                let reject = FlightEvent::EpochRejected {
                    server: 0,
                    term: 1 << 32,
                    seq: t,
                    have_term: (2 << 32) | 1,
                    have_seq: t + 3,
                };
                b.record_ctrl(SimTime::from_secs(t), &reject);
            }
        }
        assert_eq!(b.digest(), fnv1a64(b.canonical().as_bytes()));
    }

    #[test]
    fn float_encoding_round_trips() {
        // Display for f64 is shortest-roundtrip: parsing the encoded value
        // back must recover the exact bits.
        let vals = [0.1 + 0.2, 1.0 / 3.0, 12.5, f64::MIN_POSITIVE];
        for v in vals {
            let s = Opt(Some(v)).to_string();
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }
}
