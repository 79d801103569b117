//! Canonical decision traces.
//!
//! A [`DecisionTrace`] records, per node-manager step, everything the agent
//! observed and did: the deviation signal, contention flags, identified
//! antagonists, applied caps, enrolled and released VMs, fault flags, and
//! the step's other events: it is the only store of what the node managers
//! did. Between the steps it records the control plane's decisions as the
//! typed [`FlightEvent`]s the plane emits. It stores typed rows; the text
//! and each server's flight track ([`DecisionTrace::flight_tracks`]) are
//! renderings of them.
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
use perfcloud_obs::flight::{FaultClass, RejectReason};
use perfcloud_obs::{FlightEvent, Record};
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
/// position of its lists in the owning trace's flat columns. Each column
/// holds a row's lists back to back from one start offset, so the row
/// stores that start and a `u16` length per list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRow {
    now: SimTime,
    server: u32,
    signal: Option<ContentionSignal>,
    /// Start of the row's lists in the `vms`, `caps` and `events` columns.
    starts: [u32; 3],
    /// Lengths of the row's `vms` lists: antagonists, enrolled and
    /// released, each I/O then CPU.
    vm_lens: [u16; 6],
    /// Lengths of the row's I/O then CPU caps.
    cap_lens: [u16; 2],
    event_len: u16,
    stalled: bool,
    restarted: bool,
    placement_stale: bool,
}

/// A recorded node-manager step, borrowed from its trace: the
/// [`StepReport`] it was recorded from, with slices in place of `Vec`s and
/// each I/O and CPU pair of lists held in [`Resource`] declaration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepView<'a> {
    /// Simulated time of the step.
    pub now: SimTime,
    /// Server index the report came from.
    pub server: usize,
    /// The contention signal, `None` when the manager made no decision
    /// (idle, stalled, and placement-refused steps).
    pub signal: Option<ContentionSignal>,
    /// Identified antagonists, I/O then CPU.
    antagonists: [&'a [VmId]; 2],
    /// Applied caps (VM, normalized cap), I/O then CPU.
    caps: [&'a [(VmId, f64)]; 2],
    /// Newly enrolled VMs, I/O then CPU.
    enrolled: [&'a [VmId]; 2],
    /// VMs whose cap came off, I/O then CPU.
    released: [&'a [VmId]; 2],
    /// The step's other events (collector, chaos, placement staleness), in
    /// order; empty unless the manager was observed.
    events: &'a [StoredEvent],
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
        self.antagonists[resource as usize]
    }

    /// The applied caps for `resource`.
    pub fn caps(&self, resource: Resource) -> &'a [(VmId, f64)] {
        self.caps[resource as usize]
    }

    /// The VMs newly enrolled for `resource` control.
    pub fn enrolled(&self, resource: Resource) -> &'a [VmId] {
        self.enrolled[resource as usize]
    }

    /// The VMs whose `resource` cap came off.
    pub fn released(&self, resource: Resource) -> &'a [VmId] {
        self.released[resource as usize]
    }

    /// Emits the step's flight events: the stored events; `ManagerRestart`;
    /// `DetectOnset` / `DetectClear` against `contended`, the verdict of the
    /// previous deciding step since the last restart (updated here);
    /// `AntagonistIdentified` for each antagonist missing from the caps or
    /// enrolled now; then per resource, I/O first, `Release`, `Throttle`
    /// and `CapUpdate` for the released, enrolled and capped VMs.
    fn render_flight(&self, contended: &mut bool, mut emit: impl FnMut(FlightEvent)) {
        let (server, id) = (offset(self.server), |vm: VmId| u64::from(vm.0));
        self.events.iter().for_each(|stored| emit(stored.event(server)));
        if self.restarted {
            *contended = false;
            emit(FlightEvent::ManagerRestart { server });
        }
        let resources = [Resource::Io, Resource::Cpu];
        if let Some(signal) = self.signal {
            let (io, cpu) = (signal.io_contended, signal.cpu_contended);
            if (io || cpu) && !*contended {
                emit(FlightEvent::DetectOnset { server, io, cpu });
            } else if !(io || cpu) && *contended {
                emit(FlightEvent::DetectClear { server });
            }
            *contended = io || cpu;
            for resource in resources {
                let (caps, enrolled) = (self.caps(resource), self.enrolled(resource));
                for &vm in self.antagonists(resource) {
                    if enrolled.contains(&vm) || !caps.iter().any(|&(c, _)| c == vm) {
                        emit(FlightEvent::AntagonistIdentified { server, vm: id(vm), resource });
                    }
                }
            }
        }
        for resource in resources {
            for &vm in self.released(resource) {
                emit(FlightEvent::Release { server, vm: id(vm) });
            }
            for &vm in self.enrolled(resource) {
                emit(FlightEvent::Throttle { server, vm: id(vm), resource });
            }
            for &(vm, level) in self.caps(resource) {
                emit(FlightEvent::CapUpdate { server, vm: id(vm), resource, level });
            }
        }
    }
}

/// A node manager's non-decision event as the trace stores it: 8 bytes in
/// place of a [`FlightEvent`]'s 40, since the row holds the server and the
/// VM ids and counts fit in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoredEvent {
    Flush(u32),
    Sample(u32),
    Fault(FaultClass, u32),
    Rejected(RejectReason, u32),
    Stale(u32),
}

impl StoredEvent {
    fn new(event: &FlightEvent) -> Self {
        let narrow = |x: u64| u32::try_from(x).expect("event payload exceeds u32");
        match *event {
            FlightEvent::FlushBatch { count, .. } => Self::Flush(narrow(count)),
            FlightEvent::SampleIngested { vm, .. } => Self::Sample(narrow(vm)),
            FlightEvent::Fault { class, vm, .. } => Self::Fault(class, narrow(vm)),
            FlightEvent::IngestRejected { vm, reason, .. } => Self::Rejected(reason, narrow(vm)),
            FlightEvent::PlacementStale { staleness, .. } => Self::Stale(staleness),
            ref other => panic!("a step report cannot carry `{other}`"),
        }
    }

    fn event(self, server: u32) -> FlightEvent {
        match self {
            Self::Flush(count) => FlightEvent::FlushBatch { server, count: count.into() },
            Self::Sample(vm) => FlightEvent::SampleIngested { server, vm: vm.into() },
            Self::Fault(class, vm) => FlightEvent::Fault { class, server, vm: vm.into() },
            Self::Rejected(reason, vm) => {
                FlightEvent::IngestRejected { server, vm: vm.into(), reason }
            }
            Self::Stale(staleness) => FlightEvent::PlacementStale { server, staleness },
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
        let ([aio, acpu], [cio, ccpu]) = (self.antagonists, self.caps);
        write_list(f, "aio", aio, vm)?;
        write_list(f, "acpu", acpu, vm)?;
        write_list(f, "cio", cio, cap)?;
        write_list(f, "ccpu", ccpu, cap)?;
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

/// Appends `lists` to `column` back to back, returning their lengths.
fn append<T: Copy, const N: usize>(column: &mut Vec<T>, lists: [&[T]; N]) -> [u16; N] {
    lists.map(|list| {
        column.extend_from_slice(list);
        u16::try_from(list.len()).expect("decision-trace list exceeds u16 entries")
    })
}

/// Splits `lens.len()` consecutive lists of the given lengths off `column`
/// from `start`: the inverse of [`append`].
fn split<T, const N: usize>(column: &[T], start: u32, lens: [u16; N]) -> [&[T]; N] {
    let mut at = start as usize;
    lens.map(|len| {
        let list = &column[at..at + usize::from(len)];
        at += usize::from(len);
        list
    })
}

/// An append-only record of node-manager steps and control-plane decisions,
/// rendered to its canonical text on demand.
///
/// Recording does no per-entry heap allocation: step rows keep their lists
/// in three trace-level flat columns, so the only allocations are the
/// amortized growth of four `Vec`s.
#[derive(Debug, Default, Clone)]
pub struct DecisionTrace {
    entries: Vec<TraceEntry>,
    /// The flat columns, row after row: every step's identified, newly
    /// enrolled and released VMs; its applied caps; its other events.
    vms: Vec<VmId>,
    caps: Vec<(VmId, f64)>,
    events: Vec<StoredEvent>,
}

impl DecisionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one node-manager step. `server` is the server index the
    /// report came from.
    pub fn record(&mut self, now: SimTime, server: usize, report: &StepReport) {
        let starts = [self.vms.len(), self.caps.len(), self.events.len()].map(offset);
        let vm_lens = append(
            &mut self.vms,
            [
                &report.io_antagonists,
                &report.cpu_antagonists,
                &report.io_enrolled,
                &report.cpu_enrolled,
                &report.io_released,
                &report.cpu_released,
            ],
        );
        let cap_lens = append(&mut self.caps, [&report.io_caps, &report.cpu_caps]);
        self.events.extend(report.events.iter().map(StoredEvent::new));
        let event_len =
            u16::try_from(report.events.len()).expect("decision-trace list exceeds u16 entries");
        self.entries.push(TraceEntry::Step(StepRow {
            now,
            server: offset(server),
            signal: report.signal,
            starts,
            vm_lens,
            cap_lens,
            event_len,
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

    /// Borrows a stored step row with its lists.
    fn view(&self, row: &StepRow) -> StepView<'_> {
        let [vms, caps, events] = row.starts;
        let [io_a, cpu_a, io_e, cpu_e, io_r, cpu_r] = split(&self.vms, vms, row.vm_lens);
        let [events] = split(&self.events, events, [row.event_len]);
        StepView {
            now: row.now,
            server: row.server as usize,
            signal: row.signal,
            antagonists: [io_a, cpu_a],
            caps: split(&self.caps, caps, row.cap_lens),
            enrolled: [io_e, cpu_e],
            released: [io_r, cpu_r],
            events,
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

    /// Renders the flight track of each of `servers` servers from its step
    /// rows: the events [`StepView`]'s renderer derives, numbered from 0 in
    /// order per server, of which the last `capacity` are kept — what a
    /// per-server ring of that capacity would hold.
    pub fn flight_tracks(&self, servers: usize, capacity: usize) -> Vec<Vec<Record>> {
        let mut tracks = vec![Vec::new(); servers];
        let mut contended = vec![false; servers];
        for step in self.steps() {
            let (t, track) = (step.now.as_micros(), &mut tracks[step.server]);
            step.render_flight(&mut contended[step.server], |event| {
                track.push(Record { t, seq: track.len() as u64, event });
            });
        }
        for track in &mut tracks {
            track.drain(..track.len().saturating_sub(capacity));
        }
        tracks
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

    fn contended(io: bool) -> Option<ContentionSignal> {
        let dev = Some(if io { 12.5 } else { 1.5 });
        Some(ContentionSignal {
            io_deviation: dev,
            cpi_deviation: None,
            io_contended: io,
            cpu_contended: false,
        })
    }

    /// Server 0's rendered track, one `t=<secs> <event>` line per record.
    fn track(trace: &DecisionTrace, capacity: usize) -> Vec<String> {
        trace.flight_tracks(1, capacity).remove(0).iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn renders_onset_identify_throttle_cap_then_clear() {
        let mut trace = DecisionTrace::new();
        let at = SimTime::from_secs;
        trace.record(at(15), 0, &StepReport { signal: contended(false), ..StepReport::default() });
        let onset = StepReport {
            signal: contended(true),
            io_antagonists: vec![VmId(10)],
            io_enrolled: vec![VmId(10)],
            io_caps: vec![(VmId(10), 0.2)],
            ..StepReport::default()
        };
        trace.record(at(20), 0, &onset);
        // Still identified but already capped: only the cap moves.
        let held = StepReport { io_caps: vec![(VmId(10), 0.35)], ..onset.clone() };
        trace.record(at(25), 0, &StepReport { io_enrolled: Vec::new(), ..held });
        let clear = StepReport {
            signal: contended(false),
            io_caps: vec![(VmId(10), 0.5)],
            ..StepReport::default()
        };
        trace.record(at(30), 0, &clear);
        assert_eq!(
            track(&trace, 64),
            [
                "t=20 detect-onset s0 io=1 cpu=0",
                "t=20 identify s0 vm10 io",
                "t=20 throttle s0 vm10 io",
                "t=20 cap s0 vm10 io=0.2",
                "t=25 cap s0 vm10 io=0.35",
                "t=30 detect-clear s0",
                "t=30 cap s0 vm10 io=0.5",
            ]
        );
    }

    #[test]
    fn renders_a_release_when_the_antagonist_leaves() {
        let mut trace = DecisionTrace::new();
        let capped = StepReport {
            signal: contended(true),
            io_caps: vec![(VmId(10), 0.2)],
            cpu_caps: vec![(VmId(11), 0.3)],
            ..StepReport::default()
        };
        trace.record(SimTime::from_secs(5), 0, &capped);
        let left = StepReport {
            signal: contended(false),
            io_released: vec![VmId(10)],
            cpu_caps: vec![(VmId(11), 0.4)],
            ..StepReport::default()
        };
        trace.record(SimTime::from_secs(10), 0, &left);
        assert_eq!(
            track(&trace, 64)[3..],
            ["t=10 detect-clear s0", "t=10 release s0 vm10", "t=10 cap s0 vm11 cpu=0.4"]
        );
    }

    #[test]
    fn a_restart_renders_alone_and_resets_the_onset() {
        let mut trace = DecisionTrace::new();
        let busy = StepReport { signal: contended(true), ..StepReport::default() };
        trace.record(SimTime::from_secs(5), 0, &busy);
        let restart = StepReport { restarted: true, ..StepReport::default() };
        trace.record(SimTime::from_secs(10), 0, &restart);
        // Contended before and after the crash: the restarted manager sees
        // a fresh onset.
        trace.record(SimTime::from_secs(15), 0, &busy);
        assert_eq!(
            track(&trace, 64),
            [
                "t=5 detect-onset s0 io=1 cpu=0",
                "t=10 manager-restart s0",
                "t=15 detect-onset s0 io=1 cpu=0",
            ]
        );
    }

    #[test]
    fn a_stale_row_renders_its_stored_events_first() {
        use perfcloud_obs::flight::{FaultClass, RejectReason};
        let mut trace = DecisionTrace::new();
        let stale = StepReport {
            signal: contended(true),
            io_caps: vec![(VmId(10), 0.2)],
            placement_stale: true,
            events: vec![
                FlightEvent::FlushBatch { server: 0, count: 6 },
                FlightEvent::SampleIngested { server: 0, vm: 3 },
                FlightEvent::Fault { class: FaultClass::DropSample, server: 0, vm: 4 },
                FlightEvent::IngestRejected { server: 0, vm: 5, reason: RejectReason::Stale },
                FlightEvent::PlacementStale { server: 0, staleness: 2 },
            ],
            ..StepReport::default()
        };
        trace.record(SimTime::from_secs(5), 0, &stale);
        assert_eq!(
            track(&trace, 64),
            [
                "t=5 flush s0 n=6",
                "t=5 sample-ingest s0 vm3",
                "t=5 fault drop-sample s0 vm4",
                "t=5 ingest-reject s0 vm5 stale",
                "t=5 placement-stale s0 n=2",
                "t=5 detect-onset s0 io=1 cpu=0",
                "t=5 cap s0 vm10 io=0.2",
            ]
        );
    }

    #[test]
    fn releases_render_on_a_row_without_a_signal() {
        // Nothing left to protect: every cap comes off with no decision.
        let mut trace = DecisionTrace::new();
        let released = StepReport {
            io_released: vec![VmId(10)],
            cpu_released: vec![VmId(10)],
            ..StepReport::default()
        };
        trace.record(SimTime::from_secs(5), 0, &released);
        assert_eq!(track(&trace, 64), ["t=5 release s0 vm10", "t=5 release s0 vm10"]);
    }

    #[test]
    fn a_track_keeps_its_last_events_with_their_sequence_numbers() {
        let mut trace = DecisionTrace::new();
        let restart = StepReport { restarted: true, ..StepReport::default() };
        for t in 1..=5 {
            trace.record(SimTime::from_secs(t), (t % 2) as usize, &restart);
        }
        let tracks = trace.flight_tracks(3, 2);
        // Server 1 restarted at 1, 3 and 5 s; server 0 at 2 and 4 s; server
        // 2 never reported but still has its (empty) track.
        let seqs = |k: usize| tracks[k].iter().map(|r| (r.t, r.seq)).collect::<Vec<_>>();
        assert_eq!(seqs(1), [(3_000_000, 1), (5_000_000, 2)]);
        assert_eq!(seqs(0), [(2_000_000, 0), (4_000_000, 1)]);
        assert!(tracks[2].is_empty());
        assert!(tracks[1].iter().all(|r| r.event == FlightEvent::ManagerRestart { server: 1 }));
    }

    #[test]
    fn step_views_carry_the_enrolled_released_and_event_lists() {
        let mut trace = DecisionTrace::new();
        let report = StepReport {
            io_enrolled: vec![VmId(10)],
            cpu_enrolled: vec![VmId(11)],
            io_released: vec![VmId(12)],
            cpu_released: vec![VmId(13), VmId(14)],
            events: vec![FlightEvent::FlushBatch { server: 2, count: 3 }],
            ..busy_report()
        };
        trace.record(SimTime::from_secs(5), 2, &StepReport::default());
        trace.record(SimTime::from_secs(10), 2, &report);
        let step = trace.steps().nth(1).expect("two steps");
        assert_eq!(step.enrolled(Resource::Io), [VmId(10)]);
        assert_eq!(step.enrolled(Resource::Cpu), [VmId(11)]);
        assert_eq!(step.released(Resource::Io), [VmId(12)]);
        assert_eq!(step.released(Resource::Cpu), [VmId(13), VmId(14)]);
        let server = offset(step.server);
        assert!(step.events.iter().map(|e| e.event(server)).eq(report.events.iter().copied()));
        // Stored events are a fifth of a flight event's size, and a row
        // keeps one start per column and a `u16` length per list.
        assert_eq!(std::mem::size_of::<StoredEvent>(), 8);
        assert_eq!(std::mem::size_of::<StepRow>(), 88);
        assert_eq!(std::mem::size_of::<TraceEntry>(), 88);
        // None of it reaches the canonical line.
        assert_eq!(
            trace.canonical().lines().nth(1),
            Some("t=10 s=2 dio=12.5 dcpi=- io=1 cpu=0 aio=10 acpu=- cio=10:0.2,11:0.5 ccpu=- f=R")
        );
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
