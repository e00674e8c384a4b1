//! Byzantine-lite misbehaving ToR: greedy granting.
//!
//! A ToR marked greedy by the fault-injection layer
//! ([`topology::FaultModel`], `GreedyStart`) stops following the GRANT
//! discipline of §3.2. Instead of granting only requested pairs under the
//! debit bookkeeping, it grants *every* ingress port every epoch,
//! round-robining over sources so the misbehavior is spread evenly and the
//! run stays deterministic. Physics still holds — a grant only goes to a
//! source whose egress port actually reaches the greedy ToR
//! ([`topology::Topology::port_reaches`]) — but the protocol contract is
//! broken: unrequested grants inflate the accept stage's choices, steal
//! ports from honest destinations' grants, and (for the stateful variant)
//! bypass the demand-matrix debits entirely.
//!
//! The logic is a pure function of `(epoch, dst, port)`, so the grants do
//! not depend on the order in which the GRANT step visits destinations.

use topology::Topology;

/// The source a greedy destination grants on `port` this `epoch`, or
/// `None` when no source reaches the port. Round-robin over the `n - 1`
/// non-self sources, offset by `epoch + port` so consecutive epochs and
/// ports pick different victims.
#[inline]
pub fn greedy_source(
    topo: &dyn Topology,
    n: usize,
    epoch: u64,
    dst: usize,
    port: usize,
) -> Option<usize> {
    debug_assert!(n > 1);
    let src = (dst + 1 + ((epoch as usize + port) % (n - 1))) % n;
    if topo.port_reaches(src, port, dst) {
        Some(src)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{NetworkConfig, ParallelNet, ThinClos};

    fn net(n_tors: usize, n_ports: usize) -> NetworkConfig {
        NetworkConfig {
            n_tors,
            n_ports,
            ..NetworkConfig::small_for_tests()
        }
    }

    #[test]
    fn never_grants_self_and_rotates_sources() {
        let topo = ParallelNet::new(net(8, 4));
        for epoch in 0..16 {
            for port in 0..4 {
                let src = greedy_source(&topo, 8, epoch, 3, port).unwrap();
                assert_ne!(src, 3);
            }
        }
        // On a parallel net every port reaches every source, so over n - 1
        // consecutive epochs a fixed port cycles through all 7 others.
        let seen: Vec<usize> = (0..7)
            .map(|e| greedy_source(&topo, 8, e, 3, 0).unwrap())
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "rotation covers all sources: {seen:?}");
    }

    #[test]
    fn thin_clos_respects_port_reachability() {
        let topo = ThinClos::new(net(16, 4));
        for epoch in 0..16 {
            for port in 0..4 {
                if let Some(src) = greedy_source(&topo, 16, epoch, 4, port) {
                    assert!(topo.port_reaches(src, port, 4));
                }
            }
        }
    }
}
