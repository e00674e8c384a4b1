//! Phase-boundary snapshots for scenario runs.
//!
//! A scenario divides a run into workload phases spanning epochs. Both
//! engines accept a [`PhaseProbe`] listing the phase-end times; the engine
//! checks [`PhaseProbe::due`] at the top of its main loop (one comparison —
//! nothing on the hot path) and, when a boundary passes, hands the probe a
//! [`PhaseCounters`] snapshot of its cumulative state. The probe never
//! influences the simulation, so scenario output stays a pure function of
//! (config, seed) and the `--jobs` byte-identity guarantee holds. Per-phase
//! deltas (goodput, match ratio) and FCT percentiles are derived after the
//! run by `scenario::series`.

use std::sync::Arc;

use sim::time::Nanos;

/// Cumulative engine counters at one instant of simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Payload bytes delivered to destination ToRs since the run started.
    pub delivered_bytes: u64,
    /// Bytes on the engine's queues: the negotiator's per-destination
    /// queues, relayed bytes that have landed included, and the rotor's
    /// source-bound lists plus its relay FIFOs. Not counted: first hops
    /// still in flight (`in_flight_bytes`), and flows the frame has not yet
    /// injected.
    pub backlog_bytes: u64,
    /// Grants issued so far (negotiator only; 0 for schedule-free engines).
    pub grants: u64,
    /// Grants accepted so far (negotiator only).
    pub accepts: u64,
    /// Control messages dropped by gray failures so far (negotiator only —
    /// the oblivious engine has no control plane to degrade).
    pub control_dropped: u64,
    /// Directed links the fault detector currently excludes that are *not*
    /// ground-truth down — false positives, typically gray-failure fallout.
    pub detector_fp_links: u64,
    /// Directed links ground-truth down that the detector has *not* (yet)
    /// excluded — false negatives, i.e. detection lag.
    pub detector_fn_links: u64,
    /// ToRs currently cut off from the largest partition group (0 when the
    /// fabric is whole).
    pub partitioned_tors: u64,
    /// Bytes sent but not yet landed: the rotor's first hops in its
    /// in-flight ring, and the negotiator's selective-relay first hops on
    /// their way to the intermediate (0 without relay).
    /// Checked, never rendered: like `lost_bytes` it closes the byte law
    /// the run loop asserts at every boundary in debug builds, and enters
    /// no document, series column, trace field or hash.
    pub in_flight_bytes: u64,
    /// Bytes sent into a ground-truth-failed link and lost (the
    /// negotiator's `SchedStats::lost_bytes`; 0 for the rotor, which holds
    /// data back from a down link). Checked, never rendered.
    pub lost_bytes: u64,
}

/// One recorded boundary: when it was (nominally) due and the counters the
/// engine reported for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// The boundary time this snapshot stands for.
    pub at: Nanos,
    /// Cumulative counters at (or just after) the boundary.
    pub counters: PhaseCounters,
}

/// Callback fired when a boundary snapshot is recorded: `(phase index,
/// boundary time)`. Observers are for *reporting* (streaming progress to a
/// live client); they receive no counters and can influence nothing, so
/// attaching one cannot perturb the simulation.
pub type PhaseObserver = Arc<dyn Fn(usize, Nanos) + Send + Sync>;

/// Collects cumulative counters at a fixed list of phase boundaries.
#[derive(Clone, Default)]
pub struct PhaseProbe {
    boundaries: Vec<Nanos>,
    snaps: Vec<PhaseSnapshot>,
    observer: Option<PhaseObserver>,
}

impl std::fmt::Debug for PhaseProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseProbe")
            .field("boundaries", &self.boundaries)
            .field("snaps", &self.snaps)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl PhaseProbe {
    /// Probe for the given phase-end times. Must be strictly increasing.
    pub fn new(boundaries: Vec<Nanos>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "phase boundaries must be strictly increasing"
        );
        PhaseProbe {
            boundaries,
            snaps: Vec::new(),
            observer: None,
        }
    }

    /// Attach an observer notified as each boundary snapshot lands.
    pub fn with_observer(mut self, observer: PhaseObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Has the next unrecorded boundary passed by `now`? Engines gate the
    /// (possibly expensive) counter computation on this cheap check.
    pub fn due(&self, now: Nanos) -> bool {
        self.boundaries
            .get(self.snaps.len())
            .is_some_and(|&b| now >= b)
    }

    /// Record `counters` for every boundary at or before `now`. An engine
    /// whose step spans several boundaries (or that idles across them)
    /// stamps them all with the same state — the fabric did nothing in
    /// between.
    pub fn record(&mut self, now: Nanos, counters: PhaseCounters) {
        while let Some(&b) = self.boundaries.get(self.snaps.len()) {
            if b > now {
                break;
            }
            self.push(PhaseSnapshot { at: b, counters });
        }
    }

    /// Stamp every remaining boundary with the engine's final state. Called
    /// once when the run ends (engines may exit early once all flows
    /// complete, leaving trailing boundaries unvisited).
    pub fn finish(&mut self, counters: PhaseCounters) {
        while let Some(&b) = self.boundaries.get(self.snaps.len()) {
            self.push(PhaseSnapshot { at: b, counters });
        }
    }

    fn push(&mut self, snap: PhaseSnapshot) {
        let index = self.snaps.len();
        let at = snap.at;
        self.snaps.push(snap);
        if let Some(observer) = &self.observer {
            observer(index, at);
        }
    }

    /// The recorded snapshots, one per boundary (complete only after
    /// [`PhaseProbe::finish`]).
    pub fn snapshots(&self) -> &[PhaseSnapshot] {
        &self.snaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(delivered: u64) -> PhaseCounters {
        PhaseCounters {
            delivered_bytes: delivered,
            ..PhaseCounters::default()
        }
    }

    #[test]
    fn records_each_boundary_once() {
        let mut p = PhaseProbe::new(vec![100, 200, 300]);
        assert!(!p.due(99));
        assert!(p.due(100));
        p.record(100, counters(10));
        assert!(!p.due(150), "boundary 100 already recorded");
        p.record(250, counters(20)); // skipped past 200
        assert_eq!(p.snapshots().len(), 2);
        assert_eq!(p.snapshots()[1].at, 200);
        assert_eq!(p.snapshots()[1].counters.delivered_bytes, 20);
        p.finish(counters(30));
        assert_eq!(p.snapshots().len(), 3);
        assert_eq!(p.snapshots()[2].at, 300);
        assert_eq!(p.snapshots()[2].counters.delivered_bytes, 30);
    }

    #[test]
    fn one_step_over_many_boundaries_stamps_all() {
        let mut p = PhaseProbe::new(vec![10, 20, 30]);
        p.record(35, counters(7));
        assert_eq!(p.snapshots().len(), 3);
        assert!(p
            .snapshots()
            .iter()
            .all(|s| s.counters.delivered_bytes == 7));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn boundaries_must_increase() {
        PhaseProbe::new(vec![10, 10]);
    }

    #[test]
    fn observer_sees_each_boundary_once_in_order() {
        use std::sync::Mutex;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut p = PhaseProbe::new(vec![100, 200, 300])
            .with_observer(Arc::new(move |i, at| sink.lock().unwrap().push((i, at))));
        p.record(100, counters(1));
        p.record(250, counters(2)); // crosses 200 only
        p.finish(counters(3)); // stamps the trailing 300
        assert_eq!(*seen.lock().unwrap(), vec![(0, 100), (1, 200), (2, 300)]);
        // The snapshots themselves are unchanged by observation.
        assert_eq!(p.snapshots().len(), 3);
    }
}
