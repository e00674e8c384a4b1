//! Epoch work tracks traffic, not fabric size: REQUEST and the healthy
//! predefined phase look only at pairs that have backlog or scheduling
//! messages (`negotiator`'s live-pair state), so the same traffic costs
//! the same pair visits on a fabric four times the size. The two work
//! counters in `SchedStats` make that checkable without a clock.

use negotiator::{NegotiatorConfig, NegotiatorSim};
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

/// One trace confined to ToRs 0..64, played on a 256- and a 1024-ToR
/// fabric. Both counters must stay under a bound stated in activity terms
/// only — requests, piggybacked packets, flows; no `n` — which a scan of
/// every pair would break by far more than 10× at 1024 ToRs.
///
/// Why the bounds hold on a healthy base-mode run: REQUEST looks at a pair
/// only while its queue is non-empty, and such a pair either requests or
/// (at or under the threshold) has a packet piggybacked that same epoch.
/// A predefined visit either leaves the pair live — it piggybacked (one
/// packet) or still carries grants (a granted pair requested the epoch
/// before) — or finds nothing left and retires the connection until the
/// next mark, and a mark takes a flow arriving at an empty queue or,
/// again, a granted pair.
#[test]
fn pair_visits_track_activity_not_fabric_size() {
    const DURATION: u64 = 200_000;
    let trace = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 0.5,
        n_tors: 64,
        host_bps: 400_000_000_000,
    })
    .generate(DURATION, 17);
    assert!(trace.len() > 100, "the trace must exercise the fabric");
    for n_tors in [256usize, 1024] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let mut sim =
            NegotiatorSim::new(NegotiatorConfig::paper_default(net), TopologyKind::Parallel);
        sim.run(&trace, DURATION);
        let st = *sim.stats();
        let epochs = sim.match_recorder().len() as u64;
        assert!(st.requests_sent > 0 && st.piggyback_packets > 0 && st.grants_issued > 0);

        let request_bound = st.requests_sent + st.piggyback_packets;
        assert!(
            st.request_pairs_scanned <= request_bound,
            "{n_tors} ToRs: REQUEST scanned {} pairs for {} requests + {} piggybacked packets",
            st.request_pairs_scanned,
            st.requests_sent,
            st.piggyback_packets
        );
        let predefined_bound = st.piggyback_packets + trace.len() as u64 + 2 * st.requests_sent;
        assert!(
            st.predefined_conns_visited <= predefined_bound,
            "{n_tors} ToRs: the predefined phase visited {} connections; activity allows {}",
            st.predefined_conns_visited,
            predefined_bound
        );
        // What a pass over every pair costs.
        let dense = epochs * (n_tors * (n_tors - 1)) as u64;
        if n_tors == 1024 {
            assert!(
                dense > 10 * request_bound && dense > 10 * predefined_bound,
                "the bounds must separate live-pair visits from a dense scan ({dense})"
            );
        }
    }
}
