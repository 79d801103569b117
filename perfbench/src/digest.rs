//! Result digests: FNV-1a over every bit of an experiment's outcome.
//!
//! Two runs agree on a digest exactly when their job outcomes, simulated
//! duration, antagonist counters and monitor ingest tallies are
//! bit-identical — and, for observed runs, their decision traces too.

use perfcloud_cluster::ExperimentResult;
use perfcloud_sim::rng::fnv1a64;

/// Digest of an experiment result.
pub fn result(r: &ExperimentResult) -> u64 {
    let mut bytes = Vec::with_capacity(64 * (r.outcomes.len() + r.antagonists.len() + 1));
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    for o in &r.outcomes {
        put(fnv1a64(o.name.as_bytes()));
        put(o.submitted.as_micros());
        put(o.jct.to_bits());
        put(o.successful_task_secs.to_bits());
        put(o.total_task_secs.to_bits());
        put(o.task_count as u64);
        put(o.clones as u64);
    }
    put(r.duration.as_micros());
    for a in &r.antagonists {
        put(u64::from(a.vm.0));
        put(a.io_ops.to_bits());
        put(a.io_bytes.to_bits());
        put(a.instructions.to_bits());
        put(a.cpu_time.to_bits());
    }
    let i = &r.ingest;
    for v in [i.baselines, i.recorded, i.stale, i.duplicates, i.regressions] {
        put(v);
    }
    fnv1a64(&bytes)
}

/// Digest of one experiment: its result digest, folded with its decision
/// trace's digest when the trace was recorded.
pub fn cell(result: u64, trace: Option<u64>) -> u64 {
    match trace {
        Some(t) => combine([result, t]),
        None => result,
    }
}

/// Order-sensitive digest of a sequence of digests.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}
