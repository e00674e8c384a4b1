//! The [`Topology`] abstraction the schedulers are written against.
//!
//! ToRs and ports are plain `usize` indices (`0..n_tors`, `0..n_ports`);
//! the schedulers index dense arrays with them constantly and the two id
//! spaces never mix in practice, so newtypes would add friction without
//! catching a real bug class (cf. smoltcp's "simplicity over type tricks").

use crate::config::{NetworkConfig, TopologyKind};
use crate::parallel::ParallelNet;
use crate::thinclos::ThinClos;

/// Membership of a round-robin arbiter ring in closed form: the ascending
/// ToR ids `start..start + span`, minus `skip` when it lies in that range.
/// Every GRANT and ACCEPT ring of both topologies has this shape (a whole
/// fabric or one thin-clos group, without the arbitrating ToR itself), so
/// an arbiter walks its ring by arithmetic instead of storing the members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingScope {
    /// Lowest id of the range.
    pub start: usize,
    /// Width of the range, the skipped id included.
    pub span: usize,
    /// The one id of the range that is no member (the arbitrating ToR);
    /// an id outside the range removes nothing.
    pub skip: usize,
}

impl RingScope {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.span - usize::from(self.in_range(self.skip))
    }

    /// True if the scope has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is `tor` a member?
    pub fn contains(&self, tor: usize) -> bool {
        tor != self.skip && self.in_range(tor)
    }

    /// The members in ascending (clockwise) order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let skip = self.skip;
        (self.start..self.start + self.span).filter(move |&t| t != skip)
    }

    fn in_range(&self, tor: usize) -> bool {
        (self.start..self.start + self.span).contains(&tor)
    }
}

/// Connectivity model of a flat AWGR fabric.
///
/// The physics both topologies share: tuning the laser on egress port `p`
/// of a ToR selects a destination reachable through the AWGR that port is
/// spliced into, and the light arrives on the *same port index* `p` at the
/// destination (each ToR contributes exactly one port to each AWGR it
/// touches). Hence connections are identified by `(src, port, dst)` and the
/// ingress port is implied.
pub trait Topology {
    /// Physical parameters.
    fn net(&self) -> &NetworkConfig;

    /// Which of the two paper topologies this is.
    fn kind(&self) -> TopologyKind;

    /// Timeslots needed for one all-to-all round in the predefined phase
    /// (paper §3.3.1: `⌈(N−1)/S⌉` for parallel, `W` for thin-clos).
    fn predefined_slots(&self) -> usize;

    /// Destination that `(tor, port)` transmits to in predefined slot
    /// `slot`, under round-robin rule rotation `rot` (§3.6.1 rotates the
    /// rule every epoch on the parallel network so a ToR pair exchanges
    /// scheduling messages over different physical links across epochs).
    /// `None` when the pattern would point the port at `tor` itself.
    fn predefined_dst(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize>;

    /// Source whose predefined-phase transmission lands on ingress
    /// `(tor, port)` in `slot` under rotation `rot`; the exact inverse of
    /// [`Topology::predefined_dst`].
    fn predefined_src(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize>;

    /// Number of distinct rotations before [`Topology::predefined_dst`]
    /// repeats: the parallel network cycles its port↔offset mapping every
    /// `S` epochs, thin-clos has a single static schedule. The predefined
    /// schedule cache ([`crate::PredefinedCache`]) sizes itself by this.
    fn rotation_period(&self) -> usize;

    /// Can `src` reach `dst` by tuning egress port `port` (scheduled phase)?
    fn port_reaches(&self, src: usize, port: usize, dst: usize) -> bool;

    /// Sources that can feed ingress port `port` of `dst` — the scope of
    /// that port's GRANT ring. On the parallel network this is every other
    /// ToR; on thin-clos it is the 16-ToR source group wired to that port.
    fn grant_scope(&self, dst: usize, port: usize) -> RingScope;

    /// Destinations `src` reaches by tuning egress port `port` — the scope
    /// of that port's ACCEPT ring, `{d : port_reaches(src, port, d)}`.
    fn accept_scope(&self, src: usize, port: usize) -> RingScope;

    /// Whether a destination shares one GRANT ring across all its ports
    /// (parallel network, Figure 3(b)) or keeps one ring per port
    /// (thin-clos, Figure 3(c)).
    fn shared_grant_ring(&self) -> bool;

    /// The single egress port connecting `src` to `dst`, when the topology
    /// constrains the pair to one port (thin-clos); `None` on topologies
    /// where any port works.
    fn pair_port(&self, src: usize, dst: usize) -> Option<usize>;
}

/// Enum dispatch over the two concrete topologies, so config-driven code
/// (the experiment harness) can hold either without generics or boxing.
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// Figure 1(a).
    Parallel(ParallelNet),
    /// Figure 1(b).
    ThinClos(ThinClos),
}

impl AnyTopology {
    /// Build the requested topology over `net`.
    pub fn build(kind: TopologyKind, net: NetworkConfig) -> Self {
        match kind {
            TopologyKind::Parallel => AnyTopology::Parallel(ParallelNet::new(net)),
            TopologyKind::ThinClos => AnyTopology::ThinClos(ThinClos::new(net)),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            AnyTopology::Parallel($t) => $e,
            AnyTopology::ThinClos($t) => $e,
        }
    };
}

impl Topology for AnyTopology {
    fn net(&self) -> &NetworkConfig {
        dispatch!(self, t => t.net())
    }
    fn kind(&self) -> TopologyKind {
        dispatch!(self, t => t.kind())
    }
    fn predefined_slots(&self) -> usize {
        dispatch!(self, t => t.predefined_slots())
    }
    fn predefined_dst(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        dispatch!(self, t => t.predefined_dst(rot, slot, tor, port))
    }
    fn predefined_src(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        dispatch!(self, t => t.predefined_src(rot, slot, tor, port))
    }
    fn rotation_period(&self) -> usize {
        dispatch!(self, t => t.rotation_period())
    }
    fn port_reaches(&self, src: usize, port: usize, dst: usize) -> bool {
        dispatch!(self, t => t.port_reaches(src, port, dst))
    }
    fn grant_scope(&self, dst: usize, port: usize) -> RingScope {
        dispatch!(self, t => t.grant_scope(dst, port))
    }
    fn accept_scope(&self, src: usize, port: usize) -> RingScope {
        dispatch!(self, t => t.accept_scope(src, port))
    }
    fn shared_grant_ring(&self) -> bool {
        dispatch!(self, t => t.shared_grant_ring())
    }
    fn pair_port(&self, src: usize, dst: usize) -> Option<usize> {
        dispatch!(self, t => t.pair_port(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_topology_dispatches_to_both_kinds() {
        let net = NetworkConfig::small_for_tests();
        let par = AnyTopology::build(TopologyKind::Parallel, net.clone());
        let thin = AnyTopology::build(TopologyKind::ThinClos, net);
        assert_eq!(par.kind(), TopologyKind::Parallel);
        assert_eq!(thin.kind(), TopologyKind::ThinClos);
        assert!(par.shared_grant_ring());
        assert!(!thin.shared_grant_ring());
    }

    #[test]
    fn ring_scope_skips_only_inside_its_range() {
        let inside = RingScope {
            start: 4,
            span: 4,
            skip: 6,
        };
        assert_eq!(inside.iter().collect::<Vec<_>>(), vec![4, 5, 7]);
        assert_eq!(inside.len(), 3);
        assert!(inside.contains(7) && !inside.contains(6) && !inside.contains(8));
        for skip in [0, 3, 8, usize::MAX] {
            let outside = RingScope { skip, ..inside };
            assert_eq!(outside.len(), outside.span, "skip {skip} removes nothing");
            assert_eq!(outside.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        }
    }

    /// Both scopes are reachability in closed form: for every `(ToR, port)`
    /// they enumerate, ascending, exactly what a `port_reaches` sweep finds.
    #[test]
    fn scopes_enumerate_exactly_the_reachable_tors() {
        use TopologyKind::{Parallel, ThinClos};
        let shapes = [
            (Parallel, 10, 4),
            (Parallel, 70, 4),
            (Parallel, 6, 3),
            (Parallel, 128, 8),
            (ThinClos, 16, 4),
            (ThinClos, 128, 8),
        ];
        for (kind, n_tors, n_ports) in shapes {
            let net = NetworkConfig {
                n_tors,
                n_ports,
                ..NetworkConfig::small_for_tests()
            };
            let topo = AnyTopology::build(kind, net);
            for tor in 0..n_tors {
                for port in 0..n_ports {
                    let reached: Vec<usize> = (0..n_tors)
                        .filter(|&d| topo.port_reaches(tor, port, d))
                        .collect();
                    let accept = topo.accept_scope(tor, port);
                    assert_eq!(accept.iter().collect::<Vec<_>>(), reached);
                    assert_eq!(accept.len(), reached.len());
                    let heard: Vec<usize> = (0..n_tors)
                        .filter(|&s| topo.port_reaches(s, port, tor))
                        .collect();
                    let grant = topo.grant_scope(tor, port);
                    assert_eq!(grant.iter().collect::<Vec<_>>(), heard);
                    assert_eq!(grant.len(), heard.len());
                }
            }
        }
    }
}
