//! The antagonist-aware migration rule.
//!
//! [`best_move`] picks at most one VM to move per sampling instant: a VM
//! whose decayed penalty marks it as a fresh antagonist of a protected
//! application goes to the highest-affinity other server, if that actually
//! improves its score. It is a pure function of its inputs with
//! deterministic tie-breaking, so identical runs make identical decisions.

use crate::score::{affinity, InterferenceHistory, ServerLoad, UsageVector};
use perfcloud_host::{ServerId, VmId};
use std::cmp::Reverse;

/// Ledger penalty below which a VM is left alone. The lagged
/// cross-correlation identifier is onset-correlated and hence transient —
/// it may render its verdict exactly once per contention episode — so 0.9
/// fires on any *fresh* verdict (penalty 1.0) while ignoring stale decayed
/// ones (at most 0.8 one interval later). Flap protection is structural
/// rather than threshold-based: the runtime's per-VM cooldown, the ledger
/// reset on migration completion, and the rule that only interference with
/// a protected application motivates a move (a freshly migrated antagonist
/// lands on an unprotected server and is never proposed again).
const MIN_PENALTY: f64 = 0.9;

/// A hosted VM the rule may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCandidate {
    /// The VM.
    pub vm: VmId,
    /// Its current host.
    pub from: ServerId,
    /// Its demand profile.
    pub usage: UsageVector,
}

/// One proposed move, with the score improvement that motivates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationProposal {
    /// The VM to move.
    pub vm: VmId,
    /// Source server.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// Affinity gain (destination score minus source score); always > 0.
    pub gain: f64,
}

/// Placement has no settable values: the rule is [`best_move`] and the
/// runtime's migration model, cooldown and concurrency bound are
/// constants. The type remains as the payload of the placement mitigation
/// arms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlacementConfig;

/// The best move among `candidates` over `servers` (index position ==
/// `ServerId`), or `None` if no candidate should move.
///
/// A candidate qualifies when its `history` penalty is at least 0.9 (a
/// fresh verdict) and its source hosts a protected application; a
/// penalized VM on an open server stays put, and so does one whose `from`
/// lies outside `servers`. Its destination is the highest-affinity other
/// server (the lowest index wins ties), and it proposes a move only if
/// that beats staying. The largest gain wins; equal gains go to the lowest
/// VM id, so the decision is independent of candidate order.
pub fn best_move(
    candidates: &[MigrationCandidate],
    servers: &[ServerLoad],
    history: &InterferenceHistory,
) -> Option<MigrationProposal> {
    let mut best: Option<MigrationProposal> = None;
    for cand in candidates {
        let penalty = history.penalty(cand.vm);
        if penalty < MIN_PENALTY {
            continue;
        }
        let from_idx = cand.from.0 as usize;
        let Some(source) = servers.get(from_idx) else { continue };
        if !source.protected {
            continue;
        }
        let here = affinity(&cand.usage, penalty, source);
        let mut dest: Option<(f64, usize)> = None;
        for (i, load) in servers.iter().enumerate() {
            if i == from_idx {
                continue;
            }
            let s = affinity(&cand.usage, penalty, load);
            if dest.is_none_or(|(b, _)| s > b) {
                dest = Some((s, i));
            }
        }
        let Some((score, to)) = dest else { continue };
        if score > here {
            let p = MigrationProposal {
                vm: cand.vm,
                from: cand.from,
                to: ServerId(to as u32),
                gain: score - here,
            };
            if best.is_none_or(|b| (p.gain, Reverse(p.vm)) > (b.gain, Reverse(b.vm))) {
                best = Some(p);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> Vec<ServerLoad> {
        vec![
            ServerLoad {
                usage: UsageVector { cpu: 0.2, disk: 0.8, net: 0.0 },
                vms: 11,
                protected: true,
            },
            ServerLoad {
                usage: UsageVector { cpu: 0.7, disk: 0.1, net: 0.0 },
                vms: 3,
                protected: false,
            },
            ServerLoad::default(),
        ]
    }

    fn disk_hog(vm: u32, from: u32) -> MigrationCandidate {
        MigrationCandidate {
            vm: VmId(vm),
            from: ServerId(from),
            usage: UsageVector { disk: 0.8, ..Default::default() },
        }
    }

    /// A ledger in which each VM in `vms` has a fresh verdict.
    fn guilty(vms: &[u32]) -> InterferenceHistory {
        let mut history = InterferenceHistory::new();
        for &vm in vms {
            history.record_verdict(VmId(vm));
        }
        history
    }

    #[test]
    fn moves_guilty_vm_off_protected_server() {
        let mut history = InterferenceHistory::new();
        for _ in 0..4 {
            history.record_verdict(VmId(10));
        }
        let p = best_move(&[disk_hog(10, 0)], &loads(), &history).expect("a move");
        assert_eq!((p.vm, p.from), (VmId(10), ServerId(0)));
        assert_ne!(p.to, ServerId(0));
        assert!(p.gain > 0.0);
    }

    #[test]
    fn below_threshold_or_unprotected_source_proposes_nothing() {
        let mut history = InterferenceHistory::new();
        history.record_verdict(VmId(10));
        history.decay(); // stale verdict: penalty 0.8 < 0.9
        let servers = loads();
        assert_eq!(best_move(&[disk_hog(10, 0)], &servers, &history), None);
        // Heavy penalty, but the source hosts no protected app.
        for _ in 0..8 {
            history.record_verdict(VmId(11));
        }
        assert_eq!(best_move(&[disk_hog(11, 1)], &servers, &history), None);
    }

    #[test]
    fn equal_gains_go_to_the_lowest_vm_id() {
        // Two identical candidates on the same protected server: equal
        // gains, whichever order they come in.
        let history = guilty(&[7, 3]);
        let servers = loads();
        let a = best_move(&[disk_hog(7, 0), disk_hog(3, 0)], &servers, &history).unwrap();
        let b = best_move(&[disk_hog(3, 0), disk_hog(7, 0)], &servers, &history).unwrap();
        assert_eq!((a.vm, b.vm), (VmId(3), VmId(3)));
        assert_eq!(a, b);
    }

    #[test]
    fn equal_affinity_destinations_go_to_the_lowest_server_index() {
        let history = guilty(&[10]);
        let protected = ServerLoad { protected: true, ..loads()[0] };
        let servers = vec![ServerLoad::default(), protected, ServerLoad::default()];
        let p = best_move(&[disk_hog(10, 1)], &servers, &history).unwrap();
        assert_eq!(p.to, ServerId(0));
        // With the source first, the tie is between indices 1 and 2.
        let servers = vec![protected, ServerLoad::default(), ServerLoad::default()];
        let p = best_move(&[disk_hog(10, 0)], &servers, &history).unwrap();
        assert_eq!(p.to, ServerId(1));
    }

    #[test]
    fn a_source_outside_the_server_list_is_skipped() {
        let history = guilty(&[10, 11]);
        let servers = loads();
        assert_eq!(best_move(&[disk_hog(10, 3)], &servers, &history), None);
        // The stray candidate does not hide a valid one behind it.
        let p = best_move(&[disk_hog(10, 3), disk_hog(11, 0)], &servers, &history).unwrap();
        assert_eq!(p.vm, VmId(11));
    }
}
