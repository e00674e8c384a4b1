//! ProjecToR-style scheduling (Appendix A.2.5).
//!
//! ProjecToR [21] schedules optical links with per-*port* requests: when a
//! source requests, it has already bound the data bundle to a specific
//! egress port, and requests carry the bundle's measured waiting delay;
//! destinations grant each port to the longest-waiting request. The paper
//! transplants this onto NegotiaToR's fabric (one round, bundle = one
//! epoch's data) and finds it loses to NegotiaToR Matching: port
//! pre-binding wastes flexibility and delay bookkeeping adds complexity.

use crate::queues::{PairQueues, PRIORITY_LEVELS};
use sim::time::Nanos;
use topology::Topology;

/// A ProjecToR request: `src` asks `dst` for its ingress `port`, citing how
/// long the head bundle has waited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortRequest {
    /// Requesting source.
    pub src: usize,
    /// The egress (= ingress) port the data was bound to.
    pub port: usize,
    /// Waiting delay of the head-of-line bundle, in ns.
    pub waiting: f64,
}

/// Bind each demanded destination to one egress port of `src`, oldest
/// bundles first (the per-port REQUEST step).
///
/// Of `src`'s per-destination queues in `queues`, only those `candidates`
/// names (ascending; any superset of the non-empty ones) are looked at;
/// `now` measures waiting delays. Each port is bound
/// at most once, and a destination is bound to at most one port —
/// ProjecToR's unit of scheduling is one bundle.
pub fn bind_requests<T: Topology>(
    topo: &T,
    src: usize,
    queues: &PairQueues,
    candidates: impl Iterator<Item = usize>,
    now: Nanos,
) -> Vec<(usize, PortRequest)> {
    let n_ports = topo.net().n_ports;
    // Collect demanded destinations with their oldest HoL wait.
    let mut demands: Vec<(usize, f64)> = candidates
        .map(|dst| (dst, queues.pair(src, dst)))
        .filter(|&(dst, q)| dst != src && !q.is_empty())
        .map(|(dst, q)| {
            let oldest = (0..PRIORITY_LEVELS)
                .filter_map(|l| q.hol_enqueued(l))
                .min()
                .unwrap_or(now);
            (dst, now.saturating_sub(oldest) as f64)
        })
        .collect();
    // Longest-waiting bundles bind first.
    demands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    let mut port_used = vec![false; n_ports];
    let mut out = Vec::new();
    for (dst, waiting) in demands {
        // First free port that reaches dst (thin-clos has exactly one).
        let port = (0..n_ports).find(|&p| !port_used[p] && topo.port_reaches(src, p, dst));
        if let Some(port) = port {
            port_used[port] = true;
            out.push((dst, PortRequest { src, port, waiting }));
        }
        if port_used.iter().all(|&u| u) {
            break;
        }
    }
    out
}

/// GRANT: for each ingress port, grant the longest-waiting request
/// (ties to the lower source id). Returns `(src, port)` grants.
pub fn grant_by_waiting(n_ports: usize, requests: &[PortRequest]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for port in 0..n_ports {
        let winner = requests.iter().filter(|r| r.port == port).max_by(|a, b| {
            a.waiting
                .partial_cmp(&b.waiting)
                .unwrap()
                .then(b.src.cmp(&a.src))
        });
        if let Some(r) = winner {
            out.push((r.src, port));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{AnyTopology, NetworkConfig, TopologyKind};

    const TH: [u64; 2] = [1_000, 10_000];

    /// Source 0's queues on an `n`-ToR fabric.
    fn queues_with(n: usize, demands: &[(usize, u64, Nanos)]) -> PairQueues {
        let mut qs = PairQueues::new(1, n, false);
        for &(dst, bytes, at) in demands {
            qs.all()
                .enqueue_flow(0, dst, dst as u64, bytes, at, true, TH);
        }
        qs
    }

    #[test]
    fn binds_oldest_first_one_port_each() {
        let topo = AnyTopology::build(TopologyKind::Parallel, NetworkConfig::small_for_tests());
        // dst 1 waited longest, then 2, then 3.
        let qs = queues_with(16, &[(1, 500, 0), (2, 500, 100), (3, 500, 200)]);
        let reqs = bind_requests(&topo, 0, &qs, 0..16, 1_000);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].0, 1, "oldest bundle binds first");
        let ports: std::collections::BTreeSet<usize> = reqs.iter().map(|(_, r)| r.port).collect();
        assert_eq!(ports.len(), 3, "distinct ports");
    }

    #[test]
    fn binding_saturates_at_port_count() {
        let topo = AnyTopology::build(TopologyKind::Parallel, NetworkConfig::small_for_tests());
        let demands: Vec<(usize, u64, Nanos)> = (1..9).map(|d| (d, 500u64, 0 as Nanos)).collect();
        let reqs = bind_requests(&topo, 0, &queues_with(16, &demands), 0..16, 1_000);
        assert_eq!(reqs.len(), 4, "only 4 ports available");
    }

    #[test]
    fn thin_clos_binding_respects_reachability() {
        let topo = AnyTopology::build(TopologyKind::ThinClos, NetworkConfig::small_for_tests());
        // src 0 (group 0): dst 5 (group 1) must use port 1; dst 9 (group 2)
        // port 2.
        let qs = queues_with(16, &[(5, 500, 0), (9, 500, 0)]);
        let reqs = bind_requests(&topo, 0, &qs, 0..16, 100);
        let by_dst: std::collections::BTreeMap<usize, usize> =
            reqs.iter().map(|&(d, r)| (d, r.port)).collect();
        assert_eq!(by_dst[&5], 1);
        assert_eq!(by_dst[&9], 2);
    }

    #[test]
    fn grant_prefers_longest_waiting() {
        let reqs = vec![
            PortRequest {
                src: 1,
                port: 0,
                waiting: 10.0,
            },
            PortRequest {
                src: 2,
                port: 0,
                waiting: 90.0,
            },
            PortRequest {
                src: 3,
                port: 2,
                waiting: 5.0,
            },
        ];
        let grants = grant_by_waiting(4, &reqs);
        assert!(grants.contains(&(2, 0)));
        assert!(grants.contains(&(3, 2)));
        assert_eq!(grants.len(), 2);
    }
}
