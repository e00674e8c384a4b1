//! Network-level configuration shared by both topologies and both
//! architectures (NegotiaToR and the traffic-oblivious baseline).

use sim::time::Nanos;
use sim::Bandwidth;

/// Which flat topology to build (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Figure 1(a): `S` high-port-count AWGRs, full per-port reachability.
    Parallel,
    /// Figure 1(b): `S²` low-port-count AWGRs, one path per ordered pair.
    ThinClos,
}

impl TopologyKind {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Parallel => "parallel",
            TopologyKind::ThinClos => "thin-clos",
        }
    }
}

/// Physical parameters of the fabric (§4.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Number of ToRs (paper: 128). ToRs are the endpoints of the network.
    pub n_tors: usize,
    /// Uplink ports per ToR (paper: 8).
    pub n_ports: usize,
    /// Bandwidth of one uplink port (paper: 100 Gbps, i.e. 2× speedup).
    pub port_bandwidth: Bandwidth,
    /// Aggregated bandwidth of the hosts below one ToR (paper: 400 Gbps).
    /// This is the `R` in the load definition `L = F / (R·N·τ)` and the
    /// basis goodput is normalized to.
    pub host_bandwidth: Bandwidth,
    /// One-way propagation delay between any two ToRs (paper: 2 µs).
    pub propagation_delay: Nanos,
}

impl NetworkConfig {
    /// The paper's evaluation network: 128 ToRs × 8 × 100 Gbps uplinks,
    /// 400 Gbps host aggregate (2× speedup), 2 µs one-way delay.
    pub fn paper_default() -> Self {
        NetworkConfig {
            n_tors: 128,
            n_ports: 8,
            port_bandwidth: Bandwidth::from_gbps(100),
            host_bandwidth: Bandwidth::from_gbps(400),
            propagation_delay: 2_000,
        }
    }

    /// The same network without the 2× uplink speedup (§4.4, Figure 11):
    /// uplink aggregate equals the host aggregate.
    pub fn paper_no_speedup() -> Self {
        NetworkConfig {
            port_bandwidth: Bandwidth::from_gbps(50),
            ..Self::paper_default()
        }
    }

    /// A small fabric for unit and integration tests: 16 ToRs × 4 ports.
    pub fn small_for_tests() -> Self {
        NetworkConfig {
            n_tors: 16,
            n_ports: 4,
            port_bandwidth: Bandwidth::from_gbps(100),
            host_bandwidth: Bandwidth::from_gbps(200),
            propagation_delay: 2_000,
        }
    }

    /// Aggregated uplink bandwidth of one ToR.
    pub fn uplink_aggregate(&self) -> Bandwidth {
        self.port_bandwidth.scale(self.n_ports as u64)
    }

    /// Uplink-to-downlink speedup factor (paper default: 2.0).
    pub fn speedup(&self) -> f64 {
        self.uplink_aggregate().bps() as f64 / self.host_bandwidth.bps() as f64
    }

    /// Panics unless the dimensions are usable by both topologies
    /// (thin-clos needs `n_tors` divisible by `n_ports`).
    pub fn validate(&self) {
        assert!(self.n_tors >= 2, "need at least two ToRs");
        assert!(self.n_ports >= 1, "need at least one uplink port");
        assert!(
            self.n_tors.is_multiple_of(self.n_ports),
            "thin-clos requires n_tors ({}) divisible by n_ports ({})",
            self.n_tors,
            self.n_ports
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_1() {
        let net = NetworkConfig::paper_default();
        net.validate();
        assert_eq!(net.n_tors, 128);
        assert_eq!(net.n_ports, 8);
        assert_eq!(net.uplink_aggregate().gbps(), 800.0);
        assert_eq!(net.speedup(), 2.0);
        assert_eq!(net.propagation_delay, 2_000);
    }

    #[test]
    fn no_speedup_variant_is_1x() {
        let net = NetworkConfig::paper_no_speedup();
        net.validate();
        assert_eq!(net.speedup(), 1.0);
    }

    #[test]
    fn small_config_validates() {
        NetworkConfig::small_for_tests().validate();
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn thin_clos_divisibility_enforced() {
        let net = NetworkConfig {
            n_tors: 10,
            n_ports: 4,
            ..NetworkConfig::small_for_tests()
        };
        net.validate();
    }

    #[test]
    fn labels() {
        assert_eq!(TopologyKind::Parallel.label(), "parallel");
        assert_eq!(TopologyKind::ThinClos.label(), "thin-clos");
    }
}
