//! Property-based tests of the core scheduling invariants, across random
//! network sizes, request patterns and seeds.
//!
//! The one invariant everything rests on (§3.2): whatever the demand
//! pattern, the REQUEST → GRANT → ACCEPT pipeline must emit a matching
//! that is physically realizable on the bufferless fabric — no egress
//! port double-booked, no ingress port hearing two lasers, no
//! unreachable path.

use negotiator::matching::{AcceptArbiter, Grant, GrantArbiter};
use negotiator::rings::Ring;
use negotiator::variants::iterative::IterativeMatcher;
use proptest::prelude::*;
use sim::Xoshiro256;
use topology::{
    validate_matching, AnyTopology, MatchEntry, NetworkConfig, RingScope, Topology, TopologyKind,
};

/// A random but always-valid network shape (thin-clos needs n_tors to be
/// a multiple of n_ports).
fn arb_net() -> impl Strategy<Value = NetworkConfig> {
    (2usize..=8, 2usize..=8).prop_map(|(ports, groups)| NetworkConfig {
        n_tors: ports * groups,
        n_ports: ports,
        ..NetworkConfig::small_for_tests()
    })
}

fn arb_kind() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![Just(TopologyKind::Parallel), Just(TopologyKind::ThinClos)]
}

/// Run one full GRANT/ACCEPT cycle over an arbitrary request matrix.
fn one_cycle(
    topo: &AnyTopology,
    requests: &[Vec<usize>],
    seed: u64,
    rounds: usize,
) -> Vec<MatchEntry> {
    let n = topo.net().n_tors;
    let s = topo.net().n_ports;
    let mut rng = Xoshiro256::new(seed);
    let mut grant_arbs: Vec<GrantArbiter> = (0..n)
        .map(|d| GrantArbiter::new(topo, d, &mut rng))
        .collect();
    let mut accept_arbs: Vec<AcceptArbiter> = (0..n)
        .map(|t| AcceptArbiter::new(topo, t, &mut rng))
        .collect();
    if rounds > 1 {
        let accepted =
            IterativeMatcher::compute(topo, requests, &mut grant_arbs, &mut accept_arbs, rounds);
        return accepted
            .iter()
            .enumerate()
            .flat_map(|(src, v)| {
                v.iter().map(move |a| MatchEntry {
                    src,
                    port: a.port,
                    dst: a.dst,
                })
            })
            .collect();
    }
    let mut grants_by_src: Vec<Vec<Grant>> = vec![Vec::new(); n];
    for dst in 0..n {
        for (src, port) in grant_arbs[dst].grant(s, &requests[dst], |_, _| true) {
            grants_by_src[src].push(Grant { dst, port });
        }
    }
    let mut out = Vec::new();
    for src in 0..n {
        for a in accept_arbs[src].accept(s, &grants_by_src[src], |_, _| true) {
            out.push(MatchEntry {
                src,
                port: a.port,
                dst: a.dst,
            });
        }
    }
    out
}

/// GRANT as one [`Ring::pick`] per port over the requests usable on it:
/// the reference [`GrantArbiter::grant_into`]'s sweep must match. `rings`
/// are built like the arbiter's: one shared ring, or one per port.
fn grant_per_port(
    rings: &mut [Ring],
    n_ports: usize,
    requests: &[usize],
    usable: impl Fn(usize, usize) -> bool,
) -> Vec<(usize, usize)> {
    let shared = rings.len() == 1;
    let mut out = Vec::new();
    for port in 0..n_ports {
        let filtered: Vec<usize> = requests
            .iter()
            .copied()
            .filter(|&src| usable(src, port))
            .collect();
        let ring = if shared {
            &mut rings[0]
        } else {
            &mut rings[port]
        };
        if let Some(src) = ring.pick(&filtered) {
            out.push((src, port));
        }
    }
    out
}

/// The 70-ToR × 4-port parallel fabric, whose pairs at distance 1 and 2
/// meet twice a round and whose ToR ids end in a partial bitmap word.
fn odd_fabric() -> NetworkConfig {
    NetworkConfig {
        n_tors: 70,
        n_ports: 4,
        ..NetworkConfig::small_for_tests()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass GRANT picks what the per-port scan picks, call after
    /// call, so its ring pointers move alike too: on both topologies and
    /// the 70 × 4 fabric, over random request subsets with duplicates
    /// (and the destination itself, no ring member), with random `usable`
    /// masks that send ports to the fallback scan. The work it reports is
    /// one candidate per request unless a port fell back.
    #[test]
    fn one_pass_grant_matches_the_per_port_scan(
        net in arb_net(),
        kind in arb_kind(),
        odd in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (kind, net) = if odd { (TopologyKind::Parallel, odd_fabric()) } else { (kind, net) };
        let topo = AnyTopology::build(kind, net.clone());
        let (n, s) = (net.n_tors, net.n_ports);
        let mut gen = Xoshiro256::new(seed);
        let dst = gen.index(n);
        let ring_seed = gen.next_u64();
        let mut arb = GrantArbiter::new(&topo, dst, &mut Xoshiro256::new(ring_seed));
        let mut rng = Xoshiro256::new(ring_seed);
        let n_rings = if topo.shared_grant_ring() { 1 } else { s };
        let mut rings: Vec<Ring> = (0..n_rings)
            .map(|p| Ring::new(topo.grant_scope(dst, p), &mut rng))
            .collect();
        let (mut marks, mut out) = (Vec::new(), Vec::new());
        for call in 0..24 {
            let requests: Vec<usize> = (0..gen.index(2 * n + 1)).map(|_| gen.index(n)).collect();
            // All usable, a random (src, port) mask, or whole ports refused.
            let mask_kind = gen.index(3);
            let reject = gen.next_f64() * 0.6;
            let refused: Vec<bool> = (0..n * s)
                .map(|i| match mask_kind {
                    0 => false,
                    1 => gen.next_f64() < reject,
                    _ => i % s == gen.index(s) && gen.index(2) == 0,
                })
                .collect();
            let usable = |src: usize, port: usize| !refused[src * s + port];
            let want = grant_per_port(&mut rings, s, &requests, usable);
            let scanned = arb.grant_into(s, &requests, usable, &mut marks, &mut out);
            prop_assert_eq!(&out, &want, "call {} requests {:?}", call, requests);
            prop_assert!(marks.iter().all(|&w| w == 0), "marks left set");
            let fallbacks = (scanned as usize - requests.len()) / requests.len().max(1);
            prop_assert_eq!(scanned as usize, requests.len() * (1 + fallbacks));
            if mask_kind == 0 {
                prop_assert_eq!(fallbacks, 0);
            }
        }
    }

    /// Any request pattern on any topology yields a collision-free matching.
    #[test]
    fn matching_is_always_collision_free(
        net in arb_net(),
        kind in arb_kind(),
        seed in any::<u64>(),
        density in 0.05f64..1.0,
    ) {
        let topo = AnyTopology::build(kind, net.clone());
        let n = net.n_tors;
        let mut rng = Xoshiro256::new(seed);
        let requests: Vec<Vec<usize>> = (0..n)
            .map(|dst| {
                (0..n)
                    .filter(|&src| src != dst && rng.next_f64() < density)
                    .collect()
            })
            .collect();
        let matches = one_cycle(&topo, &requests, seed ^ 0xA5, 1);
        prop_assert!(validate_matching(&topo, &matches).is_ok());
        // Every match must answer an actual request.
        for m in &matches {
            prop_assert!(requests[m.dst].contains(&m.src));
        }
    }

    /// Iterative matching (any round count) stays collision-free and
    /// never matches fewer ports than it did the round before.
    #[test]
    fn iterative_matching_is_monotone_and_valid(
        net in arb_net(),
        kind in arb_kind(),
        seed in any::<u64>(),
        rounds in 1usize..=5,
    ) {
        let topo = AnyTopology::build(kind, net.clone());
        let n = net.n_tors;
        let requests: Vec<Vec<usize>> = (0..n)
            .map(|dst| (0..n).filter(|&s| s != dst).collect())
            .collect();
        let one = one_cycle(&topo, &requests, seed, 1);
        let many = one_cycle(&topo, &requests, seed, rounds);
        prop_assert!(validate_matching(&topo, &many).is_ok());
        prop_assert!(many.len() >= one.len().min(many.len()));
    }

    /// The predefined phase connects every ordered pair exactly once per
    /// round, collision-free, under any rotation — for any fabric shape.
    #[test]
    fn predefined_round_is_perfect(
        net in arb_net(),
        kind in arb_kind(),
        rot in 0u64..64,
    ) {
        let topo = AnyTopology::build(kind, net.clone());
        let n = net.n_tors;
        let s = net.n_ports;
        let mut pair_count = vec![0u32; n * n];
        for slot in 0..topo.predefined_slots() {
            let mut ingress = vec![false; n * s];
            for tor in 0..n {
                for port in 0..s {
                    if let Some(dst) = topo.predefined_dst(rot, slot, tor, port) {
                        prop_assert_ne!(dst, tor);
                        prop_assert_eq!(topo.predefined_src(rot, slot, dst, port), Some(tor));
                        pair_count[tor * n + dst] += 1;
                        let key = dst * s + port;
                        prop_assert!(!ingress[key], "ingress collision");
                        ingress[key] = true;
                    }
                }
            }
        }
        for src in 0..n {
            for dst in 0..n {
                let expect = u32::from(src != dst);
                prop_assert_eq!(pair_count[src * n + dst], expect,
                    "pair ({}, {}) seen {} times", src, dst, pair_count[src * n + dst]);
            }
        }
    }

    /// Ring arbiters never pick non-candidates and never starve a
    /// persistent candidate.
    #[test]
    fn ring_is_fair_and_sound(
        start in 0usize..64,
        span in 3usize..40,
        skip in 0usize..112,
        seed in any::<u64>(),
    ) {
        // Below, inside and beyond `start..start + span`.
        let scope = RingScope { start, span, skip };
        let members: Vec<usize> = scope.iter().collect();
        prop_assert_eq!(members.len(), scope.len());
        let mut rng = Xoshiro256::new(seed);
        let mut ring = Ring::new(scope, &mut rng);
        prop_assert_eq!(ring.len(), members.len());
        prop_assert!(members.contains(&ring.pointer_member()));
        // Every other member, plus ids no pick may return: the skipped id
        // and one past the range.
        let candidates: Vec<usize> = members.iter().copied().step_by(2).collect();
        let mut offered = candidates.clone();
        offered.extend([skip, start + span]);
        let mut counts = std::collections::BTreeMap::new();
        let rounds = candidates.len() * 10;
        for _ in 0..rounds {
            let pick = ring.pick(&offered).expect("candidates exist");
            prop_assert!(candidates.contains(&pick));
            *counts.entry(pick).or_insert(0usize) += 1;
        }
        // Perfect round-robin: every persistent candidate is served the
        // same number of times (up to the partial first lap).
        let min = counts.values().min().copied().unwrap_or(0);
        let max = counts.values().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "counts {:?}", counts);
        prop_assert_eq!(counts.len(), candidates.len());
    }

    /// Thin-clos structure: each ordered pair is reachable through exactly
    /// one port, and the grant scopes of a destination, like the accept
    /// scopes of a source, partition the other ToRs.
    #[test]
    fn thin_clos_single_path(net in arb_net(), tor_pick in any::<u64>()) {
        let topo = AnyTopology::build(TopologyKind::ThinClos, net.clone());
        let n = net.n_tors;
        let tor = (tor_pick % n as u64) as usize;
        let mut heard = vec![0u32; n];
        let mut reached = vec![0u32; n];
        for port in 0..net.n_ports {
            for src in topo.grant_scope(tor, port).iter() {
                prop_assert!(topo.port_reaches(src, port, tor));
                heard[src] += 1;
            }
            for dst in topo.accept_scope(tor, port).iter() {
                prop_assert!(topo.port_reaches(tor, port, dst));
                reached[dst] += 1;
            }
        }
        for other in 0..n {
            prop_assert_eq!(heard[other], u32::from(other != tor));
            prop_assert_eq!(reached[other], u32::from(other != tor));
        }
    }
}
