//! Ground-truth counters maintained by the simulator.
//!
//! These are *not* available to the measurement application — the prober
//! must infer everything through packets, like the real study. The counters
//! exist for (a) validating the simulator itself in tests, and (b) auditing
//! how close the measured results come to the planted ground truth (see
//! EXPERIMENTS.md).

use crate::link::NodeId;
use crate::queue::QueueDropCause;
use std::collections::HashMap;

/// Why the simulator discarded a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Lost on the wire (loss model).
    Loss,
    /// Queue drop.
    Queue(QueueDropCause),
    /// Firewall rule.
    Firewall,
    /// TTL expired at a router.
    TtlExpired,
    /// No route to destination.
    NoRoute,
    /// TOS-sensitive router dropped a marked packet.
    PolicyTos,
    /// Arrived at a host whose address does not match.
    HostMismatch,
}

/// Aggregate and per-node counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Packets forwarded router-to-link (per hop).
    pub forwarded: u64,
    /// Packets delivered to a host agent.
    pub delivered: u64,
    /// Packets a host originated.
    pub originated: u64,
    /// Drops by cause.
    pub drops: HashMap<DropCause, u64>,
    /// Packets whose ECN field was bleached, per router.
    pub bleached_by_node: HashMap<NodeId, u64>,
    /// Packets dropped by firewall, per router.
    pub firewall_drops_by_node: HashMap<NodeId, u64>,
    /// Packets CE-marked by a RED queue.
    pub ce_marked: u64,
    /// ICMP time-exceeded messages generated.
    pub icmp_time_exceeded: u64,
    /// ICMP destination-unreachable messages generated.
    pub icmp_dest_unreachable: u64,
}

impl Stats {
    /// Record a drop.
    pub fn drop(&mut self, cause: DropCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Drops for one cause.
    pub fn drops_for(&self, cause: DropCause) -> u64 {
        self.drops.get(&cause).copied().unwrap_or(0)
    }

    /// Total bleached packets.
    pub fn total_bleached(&self) -> u64 {
        self.bleached_by_node.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::default();
        s.drop(DropCause::Loss);
        s.drop(DropCause::Loss);
        s.drop(DropCause::Firewall);
        assert_eq!(s.drops_for(DropCause::Loss), 2);
        assert_eq!(s.drops_for(DropCause::Firewall), 1);
        assert_eq!(s.drops_for(DropCause::NoRoute), 0);
        assert_eq!(s.total_drops(), 3);
        *s.bleached_by_node.entry(NodeId(4)).or_insert(0) += 1;
        *s.bleached_by_node.entry(NodeId(5)).or_insert(0) += 2;
        assert_eq!(s.total_bleached(), 3);
    }
}
