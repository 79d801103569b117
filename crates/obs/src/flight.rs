//! Typed-event ring-buffer flight recorder.
//!
//! A [`FlightRecorder`] holds the last `capacity` [`Record`]s — plain
//! `Copy` events stamped with sim time (raw microseconds) and a
//! per-recorder sequence number. The buffer is allocated once at
//! construction; recording overwrites the oldest entry and never
//! allocates, so recorders can live inside allocation-free hot paths.
//! Because events carry only sim time and the per-recorder `seq`, the
//! recorded stream is a pure function of the simulated run: identical
//! seeds produce identical event logs regardless of wall clock or thread
//! scheduling.

use std::fmt;

/// One in this many collected samples emits a [`FlightEvent::SampleIngested`]
/// event. Collection is steady-state (every VM, every interval), so
/// undecimated sample events would evict every interesting record from a
/// bounded track within a few intervals.
pub const SAMPLE_EVENT_DECIMATION: u64 = 64;

/// A contended resource dimension: what the node manager detects,
/// identifies and caps along, and what its events refer to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Disk I/O: block-iowait deviation, suspect I/O throughput, IOPS and
    /// bandwidth caps.
    Io,
    /// Shared processor resources: CPI deviation, suspect LLC misses, core
    /// caps.
    Cpu,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Io => "io",
            Resource::Cpu => "cpu",
        })
    }
}

/// Why the monitor refused an ingested sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Same timestamp delivered twice.
    Duplicate,
    /// Timestamp behind the last accepted sample.
    Stale,
    /// Monotonic hardware counters ran backwards (e.g. after a reset).
    CounterRegression,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::Duplicate => "dup",
            RejectReason::Stale => "stale",
            RejectReason::CounterRegression => "regress",
        })
    }
}

/// Which per-sample chaos fault fired (the sample faults of
/// `perfcloud_sim::FaultKind`, without the dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A metric sample was dropped.
    DropSample,
    /// A metric sample was delayed for later delivery.
    DelaySample,
    /// A metric sample was delivered twice.
    DuplicateSample,
    /// A metric value was corrupted (NaN / spike / stuck-at).
    CorruptSample,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::DropSample => "drop-sample",
            FaultClass::DelaySample => "delay-sample",
            FaultClass::DuplicateSample => "dup-sample",
            FaultClass::CorruptSample => "corrupt-sample",
        })
    }
}

/// One flight-recorder event. `Copy`, fixed size, covering the four
/// instrumented domains: node manager, telemetry collector, control plane,
/// chaos.
///
/// The control-plane variants are also the control plane's only decision
/// vocabulary: the decision trace stores them as they are and renders each
/// as `t=<secs> ctrl <Display>`, so their `Display` is golden-trace text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightEvent {
    // --- node manager ---
    /// Detection crossed a threshold: a contention episode began.
    DetectOnset {
        /// Server index.
        server: u32,
        /// I/O deviation exceeded its threshold.
        io: bool,
        /// CPI deviation exceeded its threshold.
        cpu: bool,
    },
    /// Detection fell back below both thresholds: episode over.
    DetectClear {
        /// Server index.
        server: u32,
    },
    /// Correlation fingered a low-priority VM as an antagonist.
    AntagonistIdentified {
        /// Server index.
        server: u32,
        /// Suspect VM id.
        vm: u64,
        /// Resource dimension of the correlation.
        resource: Resource,
    },
    /// A VM was newly enrolled for CUBIC throttling.
    Throttle {
        /// Server index.
        server: u32,
        /// Throttled VM id.
        vm: u64,
        /// Resource dimension being capped.
        resource: Resource,
    },
    /// A throttled VM departed and its caps were released.
    Release {
        /// Server index.
        server: u32,
        /// Released VM id.
        vm: u64,
    },
    /// The CUBIC controller moved a VM's cap.
    CapUpdate {
        /// Server index.
        server: u32,
        /// Capped VM id.
        vm: u64,
        /// Resource dimension.
        resource: Resource,
        /// New cap level in [0, 1].
        level: f64,
    },
    /// The node manager crashed and restarted, releasing all caps.
    ManagerRestart {
        /// Server index.
        server: u32,
    },
    /// The manager rode a stale placement cache (message path).
    PlacementStale {
        /// Server index.
        server: u32,
        /// Consecutive stale intervals.
        staleness: u32,
    },
    /// The monitor rejected an ingested sample.
    IngestRejected {
        /// Server index.
        server: u32,
        /// VM the sample belonged to.
        vm: u64,
        /// Rejection reason.
        reason: RejectReason,
    },

    // --- telemetry collector ---
    /// A counter sample reached the monitor. Emitted decimated (one in
    /// every [`SAMPLE_EVENT_DECIMATION`] collected samples) so steady-state
    /// collection doesn't flood the ring.
    SampleIngested {
        /// Server index.
        server: u32,
        /// Sampled VM id.
        vm: u64,
    },
    /// A collector flushed a batch of samples at the sampling interval.
    FlushBatch {
        /// Server index.
        server: u32,
        /// Samples in the batch.
        count: u64,
    },

    // --- control plane ---
    /// A replica started an election round.
    Election {
        /// Replica index.
        replica: u32,
        /// Election round.
        round: u64,
    },
    /// A replica won and became coordinator.
    Coordinator {
        /// Replica index.
        replica: u32,
        /// Its term, packed as `round << 32 | owner`.
        term: u64,
    },
    /// A coordinator observed a higher term and stepped down.
    Stepdown {
        /// Replica index.
        replica: u32,
        /// The superseding term, packed as `round << 32 | owner`.
        term: u64,
    },
    /// A node manager rejected a placement epoch as stale.
    EpochRejected {
        /// Server index.
        server: u32,
        /// Rejected epoch term (packed).
        term: u64,
        /// Rejected epoch sequence.
        seq: u64,
        /// Term (packed) of the newer epoch the endpoint had applied.
        have_term: u64,
        /// Sequence of the newer epoch the endpoint had applied.
        have_seq: u64,
    },
    /// A coordinator published a placement epoch.
    EpochPublished {
        /// Publishing replica index.
        replica: u32,
        /// Epoch term (packed).
        term: u64,
        /// Epoch sequence.
        seq: u64,
        /// Servers the update was queued for.
        ok: u32,
        /// Servers the update could not reach (placement link down or
        /// dropped on send).
        cut: u32,
    },
    /// An ack fast-forwarded a healed coordinator's volatile publish
    /// counter to the sequence its endpoints had already applied.
    Reconcile {
        /// Coordinator replica index.
        replica: u32,
        /// The adopted publish sequence.
        seq: u64,
    },
    /// A live migration entered its pre-copy phase.
    MigrationStart {
        /// Migrating VM id.
        vm: u64,
        /// Source server index.
        from: u32,
        /// Destination server index.
        to: u32,
    },
    /// A live migration froze its VM for the stop-and-copy phase.
    MigrationStopCopy {
        /// Migrating VM id.
        vm: u64,
        /// Source server index.
        from: u32,
        /// Destination server index.
        to: u32,
    },
    /// A live migration completed and the VM resumed on the destination.
    MigrationComplete {
        /// Migrated VM id.
        vm: u64,
        /// Source server index.
        from: u32,
        /// Destination server index.
        to: u32,
    },
    /// A replica process went down (fault window opened).
    ReplicaDown {
        /// Replica index.
        replica: u32,
    },
    /// A replica process came back up.
    ReplicaUp {
        /// Replica index.
        replica: u32,
    },
    /// A message was accepted onto the simulated link.
    MsgSend {
        /// Sender endpoint id.
        from: u32,
        /// Destination endpoint id.
        to: u32,
        /// Delivered copies (>1 means fault-duplicated).
        copies: u32,
    },
    /// A message was dropped (partition or injected fault).
    MsgDrop {
        /// Sender endpoint id.
        from: u32,
        /// Destination endpoint id.
        to: u32,
        /// True if a partition severed the link, false for an injected
        /// drop fault.
        partitioned: bool,
    },
    /// A message was delayed by an injected fault.
    MsgDelay {
        /// Sender endpoint id.
        from: u32,
        /// Destination endpoint id.
        to: u32,
        /// Extra latency in microseconds.
        micros: u64,
    },

    // --- chaos ---
    /// A fault-injection rule fired.
    Fault {
        /// Fault class.
        class: FaultClass,
        /// Server index the fault applied to.
        server: u32,
        /// VM the faulted sample belonged to.
        vm: u64,
    },
}

/// A packed election term (`round << 32 | owner`), displayed unpacked as
/// `round/owner` like the control plane's own `Term`.
struct Term(u64);

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.0 >> 32, self.0 & 0xffff_ffff)
    }
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FlightEvent::*;
        match *self {
            DetectOnset { server, io, cpu } => {
                write!(f, "detect-onset s{server} io={} cpu={}", io as u8, cpu as u8)
            }
            DetectClear { server } => write!(f, "detect-clear s{server}"),
            AntagonistIdentified { server, vm, resource } => {
                write!(f, "identify s{server} vm{vm} {resource}")
            }
            Throttle { server, vm, resource } => write!(f, "throttle s{server} vm{vm} {resource}"),
            Release { server, vm } => write!(f, "release s{server} vm{vm}"),
            CapUpdate { server, vm, resource, level } => {
                write!(f, "cap s{server} vm{vm} {resource}={level}")
            }
            ManagerRestart { server } => write!(f, "manager-restart s{server}"),
            PlacementStale { server, staleness } => {
                write!(f, "placement-stale s{server} n={staleness}")
            }
            IngestRejected { server, vm, reason } => {
                write!(f, "ingest-reject s{server} vm{vm} {reason}")
            }
            SampleIngested { server, vm } => write!(f, "sample-ingest s{server} vm{vm}"),
            FlushBatch { server, count } => write!(f, "flush s{server} n={count}"),
            Election { replica, round } => write!(f, "elect m{replica} r={round}"),
            Coordinator { replica, term } => write!(f, "coord m{replica} t={}", Term(term)),
            Stepdown { replica, term } => write!(f, "stepdown m{replica} t={}", Term(term)),
            EpochRejected { server, term, seq, have_term, have_seq } => write!(
                f,
                "reject s{server} e={}.{seq} have={}.{have_seq}",
                Term(term),
                Term(have_term)
            ),
            EpochPublished { replica, term, seq, ok, cut } => {
                write!(f, "pub m{replica} e={}:{seq} ok={ok} cut={cut}", Term(term))
            }
            Reconcile { replica, seq } => write!(f, "reconcile m{replica} seq={seq}"),
            MigrationStart { vm, from, to } => {
                write!(f, "migrate-start vm{vm} s{from}->s{to}")
            }
            MigrationStopCopy { vm, from, to } => {
                write!(f, "migrate-stopcopy vm{vm} s{from}->s{to}")
            }
            MigrationComplete { vm, from, to } => {
                write!(f, "migrate-done vm{vm} s{from}->s{to}")
            }
            ReplicaDown { replica } => write!(f, "down m{replica}"),
            ReplicaUp { replica } => write!(f, "up m{replica}"),
            MsgSend { from, to, copies } => write!(f, "msg-send {from}->{to} copies={copies}"),
            MsgDrop { from, to, partitioned } => {
                write!(
                    f,
                    "msg-drop {from}->{to} {}",
                    if partitioned { "partition" } else { "fault" }
                )
            }
            MsgDelay { from, to, micros } => write!(f, "msg-delay {from}->{to} +{micros}us"),
            Fault { class, server, vm } => write!(f, "fault {class} s{server} vm{vm}"),
        }
    }
}

/// One recorded event: sim time (microseconds), per-recorder sequence
/// number, and the typed event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Sim time of the event in raw microseconds.
    pub t: u64,
    /// Per-recorder monotonic sequence number (total events ever
    /// recorded when this one was written, starting at 0).
    pub seq: u64,
    /// The event itself.
    pub event: FlightEvent,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decode micros to seconds with the same shortest-round-trip f64
        // Display the decision trace uses.
        write!(f, "t={} {}", self.t as f64 / 1e6, self.event)
    }
}

/// Bounded ring buffer of [`Record`]s. Allocates its full capacity at
/// construction; recording never allocates and overwrites the oldest
/// entry once full.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<Record>,
    capacity: usize,
    /// Index the next record will be written at once the buffer is full.
    head: usize,
    /// Total events ever recorded (also the next sequence number).
    seq: u64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events. The backing buffer
    /// is fully reserved here.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder { buf: Vec::with_capacity(capacity), capacity, head: 0, seq: 0 }
    }

    /// Records an event at sim time `t` (microseconds). Never allocates.
    #[inline]
    pub fn record(&mut self, t: u64, event: FlightEvent) {
        let rec = Record { t, seq: self.seq, event };
        self.seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(i * 10, FlightEvent::DetectClear { server: i as u32 });
        }
        assert_eq!(fr.iter().count(), 3);
        assert_eq!(fr.total_recorded(), 5, "two overwritten");
        let times: Vec<u64> = fr.iter().map(|r| r.t).collect();
        assert_eq!(times, [20, 30, 40]);
        let seqs: Vec<u64> = fr.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn record_does_not_allocate_after_construction() {
        let mut fr = FlightRecorder::with_capacity(4);
        let ptr_before = fr.buf.as_ptr();
        for i in 0..100u64 {
            fr.record(i, FlightEvent::ManagerRestart { server: 0 });
        }
        assert_eq!(fr.buf.as_ptr(), ptr_before, "ring buffer must never reallocate");
        assert_eq!(fr.buf.capacity(), 4);
    }

    #[test]
    fn events_stay_small() {
        // Every flight ring holds `capacity` records of this size, and the
        // decision trace stores node-manager and control-plane events
        // inline.
        assert!(std::mem::size_of::<FlightEvent>() <= 40);
        assert!(std::mem::size_of::<Record>() <= 56);
    }

    #[test]
    fn decoded_text_is_compact() {
        let mut fr = FlightRecorder::with_capacity(4);
        fr.record(
            5_000_000,
            FlightEvent::AntagonistIdentified { server: 0, vm: 10, resource: Resource::Io },
        );
        fr.record(
            5_500_000,
            FlightEvent::CapUpdate { server: 0, vm: 10, resource: Resource::Io, level: 0.5 },
        );
        let text: Vec<String> = fr.iter().map(Record::to_string).collect();
        assert_eq!(text, ["t=5 identify s0 vm10 io", "t=5.5 cap s0 vm10 io=0.5"]);
    }
}
