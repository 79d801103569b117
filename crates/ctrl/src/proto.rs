//! The control-plane wire protocol.
//!
//! Everything the cloud-manager replicas and the per-server node-manager
//! endpoints say to each other is one of the [`Payload`] variants below,
//! wrapped in a [`Message`] envelope. Placement synchronization flows as
//! epoch-numbered [`Payload::PlacementUpdate`]s acknowledged by
//! [`Payload::Ack`]s; replica liveness and failover use
//! [`Payload::Heartbeat`] plus the modified-Bully
//! triple [`Payload::Election`] / [`Payload::Answer`] /
//! [`Payload::Coordinator`] (the CloudP2P variant: priority-ordered, lowest
//! `(priority, id)` wins).

use perfcloud_core::{AppId, Placement, PlacementEpoch};
use perfcloud_sim::MessageClass;

/// Node-id offset separating server endpoints from manager replicas.
pub const SERVER_BASE: u32 = 1_000;

/// Address of a control-plane participant: cloud-manager replica `k` is
/// `NodeId(k)`, the node-manager endpoint on server `i` is
/// `NodeId(SERVER_BASE + i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Address of cloud-manager replica `k`.
    pub fn manager(k: u32) -> Self {
        assert!(k < SERVER_BASE, "replica id {k} collides with server range");
        NodeId(k)
    }

    /// Address of the node-manager endpoint on server index `i`.
    pub fn server(i: u32) -> Self {
        NodeId(SERVER_BASE + i)
    }

    /// The server index, when this addresses a server endpoint.
    pub fn server_index(self) -> Option<u32> {
        self.0.checked_sub(SERVER_BASE)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.server_index() {
            Some(i) => write!(f, "s{i}"),
            None => write!(f, "m{}", self.0),
        }
    }
}

/// A coordinator incarnation: the Bully round it won and the winner's
/// replica id. Rounds are monotone per election attempt; including the owner
/// makes terms unique even when two candidates race the same round, which is
/// what gives "at most one coordinator per term" by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term {
    /// Election round (monotonically increasing across attempts).
    pub round: u32,
    /// Replica id of the coordinator that won the round.
    pub owner: u32,
}

impl Term {
    /// Packs the term into the `u64` a [`PlacementEpoch`] carries.
    pub fn as_u64(self) -> u64 {
        ((self.round as u64) << 32) | self.owner as u64
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.round, self.owner)
    }
}

/// What a control-plane message carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Coordinator → server endpoint: a versioned placement view.
    PlacementUpdate {
        /// Version stamp; the endpoint rejects regressions.
        epoch: PlacementEpoch,
        /// The placement view for that server.
        view: Placement,
    },
    /// Server endpoint → coordinator: receipt for a placement update,
    /// carrying the endpoint's last-applied epoch so a healed coordinator
    /// can resynchronize its volatile publish counter.
    Ack {
        /// Server index of the acknowledging endpoint.
        server: u32,
        /// The endpoint's last-applied epoch (None before any apply).
        epoch: Option<PlacementEpoch>,
    },
    /// Coordinator → replicas: "I am alive and lead `term`".
    Heartbeat {
        /// The sender's coordinator term.
        term: Term,
    },
    /// Candidate → replicas: "round `round` is open; beat my priority or
    /// let me win" (Bully).
    Election {
        /// The round the candidate opened.
        round: u32,
        /// The candidate's load-based priority (lower is better).
        priority: u64,
    },
    /// Better replica → candidate: "I outrank you for `round`; stand down".
    Answer {
        /// The round being answered.
        round: u32,
    },
    /// Winner → replicas: "term `term` begins; I am coordinator".
    Coordinator {
        /// The newly won term.
        term: Term,
    },
    /// Server endpoint → coordinator: multiple high-priority applications
    /// are colocated on this server (the paper's migration hook).
    Colocation {
        /// Server index reporting the colocation.
        server: u32,
        /// The colocated applications, ascending.
        apps: Vec<AppId>,
    },
}

impl Payload {
    /// The fault-targeting class of this payload.
    pub fn class(&self) -> MessageClass {
        match self {
            Payload::PlacementUpdate { .. } => MessageClass::Placement,
            Payload::Heartbeat { .. } => MessageClass::Heartbeat,
            Payload::Election { .. } | Payload::Answer { .. } | Payload::Coordinator { .. } => {
                MessageClass::Election
            }
            Payload::Ack { .. } | Payload::Colocation { .. } => MessageClass::Ack,
        }
    }
}

/// A payload in an addressed envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender address.
    pub from: NodeId,
    /// Destination address.
    pub to: NodeId,
    /// What it says.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_partition_managers_and_servers() {
        let m = NodeId::manager(2);
        let s = NodeId::server(2);
        assert_eq!(m.server_index(), None);
        assert_eq!(s.server_index(), Some(2));
        assert_eq!(format!("{m}"), "m2");
        assert_eq!(format!("{s}"), "s2");
    }

    #[test]
    fn terms_order_round_major_owner_minor() {
        let a = Term { round: 1, owner: 9 };
        let b = Term { round: 2, owner: 0 };
        assert!(a < b);
        assert!(a.as_u64() < b.as_u64());
        let c = Term { round: 2, owner: 1 };
        assert!(b < c);
    }

    #[test]
    fn payload_classes() {
        use perfcloud_core::Placement;
        let epoch = PlacementEpoch { term: 1, seq: 1 };
        assert_eq!(
            Payload::PlacementUpdate { epoch, view: Placement::default() }.class(),
            MessageClass::Placement
        );
        assert_eq!(Payload::Ack { server: 0, epoch: None }.class(), MessageClass::Ack);
        assert_eq!(
            Payload::Heartbeat { term: Term { round: 1, owner: 0 } }.class(),
            MessageClass::Heartbeat
        );
        assert_eq!(Payload::Election { round: 1, priority: 0 }.class(), MessageClass::Election);
        assert_eq!(Payload::Answer { round: 1 }.class(), MessageClass::Election);
        assert_eq!(
            Payload::Coordinator { term: Term { round: 1, owner: 0 } }.class(),
            MessageClass::Election
        );
    }
}
