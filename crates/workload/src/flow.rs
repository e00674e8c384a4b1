//! Flow records and traces.

use sim::time::Nanos;

/// Flows strictly smaller than this are "mice" (§4.1: "Flows less than
/// 10 KB are regarded as mice flows").
pub const MICE_THRESHOLD_BYTES: u64 = 10_000;

/// Most flows one trace may hold. [`FlowTrace::new`] numbers flows densely
/// from 0 and refuses a longer trace, so every id fits in a `u32` — the
/// width the rotor's segments and the flight recorder's spans store.
pub const MAX_FLOWS: usize = u32::MAX as usize;

/// One ToR-to-ToR flow. ToRs are the endpoints of the simulated network
/// (§4.1), so there is no host addressing below the ToR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Dense id; doubles as the index into per-flow bookkeeping arrays.
    /// Within a [`FlowTrace`] it is below [`MAX_FLOWS`].
    pub id: u64,
    /// Source ToR.
    pub src: usize,
    /// Destination ToR.
    pub dst: usize,
    /// Application payload bytes to deliver.
    pub bytes: u64,
    /// Arrival time at the source ToR.
    pub arrival: Nanos,
}

impl Flow {
    /// Is this a latency-sensitive mice flow?
    pub fn is_mice(&self) -> bool {
        self.bytes < MICE_THRESHOLD_BYTES
    }
}

/// A time-sorted collection of flows, the unit handed to a simulator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowTrace {
    flows: Vec<Flow>,
}

impl FlowTrace {
    /// Build from flows in any order; sorts by `(arrival, id)` and
    /// re-numbers ids densely so they index recorder arrays. Panics on more
    /// than [`MAX_FLOWS`] flows.
    pub fn new(mut flows: Vec<Flow>) -> Self {
        check_flow_count(flows.len());
        flows.sort_by_key(|f| (f.arrival, f.id));
        for (i, f) in flows.iter_mut().enumerate() {
            f.id = i as u64;
        }
        FlowTrace { flows }
    }

    /// Flows in arrival order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when the trace carries no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total payload bytes across all flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Number of mice flows.
    pub fn mice_count(&self) -> usize {
        self.flows.iter().filter(|f| f.is_mice()).count()
    }

    /// Merge two traces (e.g. background + incasts), re-sorting and
    /// re-numbering.
    pub fn merge(self, other: FlowTrace) -> FlowTrace {
        let mut all = self.flows;
        all.extend(other.flows);
        FlowTrace::new(all)
    }
}

/// Refuse a trace whose dense ids would not all fit in 32 bits.
fn check_flow_count(n: usize) {
    assert!(
        n <= MAX_FLOWS,
        "a trace of {n} flows is over the {MAX_FLOWS}-flow bound: flow ids are 32-bit"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64, arrival: Nanos, bytes: u64) -> Flow {
        Flow {
            id,
            src: 0,
            dst: 1,
            bytes,
            arrival,
        }
    }

    #[test]
    fn trace_sorts_and_renumbers() {
        let t = FlowTrace::new(vec![f(9, 300, 10), f(4, 100, 20), f(7, 200, 30)]);
        let arrivals: Vec<Nanos> = t.flows().iter().map(|x| x.arrival).collect();
        assert_eq!(arrivals, vec![100, 200, 300]);
        let ids: Vec<u64> = t.flows().iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn flow_count_bound_is_the_32_bit_id_range() {
        check_flow_count(0);
        check_flow_count(MAX_FLOWS);
        assert!(
            u32::try_from(MAX_FLOWS - 1).is_ok(),
            "the last id of a full trace fits"
        );
    }

    #[test]
    #[should_panic(expected = "flow ids are 32-bit")]
    fn one_flow_over_the_bound_is_refused() {
        check_flow_count(MAX_FLOWS + 1);
    }

    #[test]
    fn mice_classification_uses_strict_10kb() {
        assert!(f(0, 0, 9_999).is_mice());
        assert!(!f(0, 0, 10_000).is_mice());
    }

    #[test]
    fn totals() {
        let t = FlowTrace::new(vec![f(0, 0, 5_000), f(1, 1, 50_000)]);
        assert_eq!(t.total_bytes(), 55_000);
        assert_eq!(t.mice_count(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn merge_preserves_order() {
        let a = FlowTrace::new(vec![f(0, 10, 1), f(1, 30, 1)]);
        let b = FlowTrace::new(vec![f(0, 20, 1)]);
        let m = a.merge(b);
        let arrivals: Vec<Nanos> = m.flows().iter().map(|x| x.arrival).collect();
        assert_eq!(arrivals, vec![10, 20, 30]);
        assert_eq!(m.flows()[2].id, 2);
    }
}
