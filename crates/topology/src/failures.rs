//! Per-direction optical link failures (§3.6.1, §4.3).
//!
//! Each `(ToR, port)` has two fibers: an *egress* link (ToR laser → AWGR)
//! and an *ingress* link (AWGR → ToR receiver). The paper's fault-tolerance
//! mechanism detects the two directions separately ("to prevent overreaction
//! and simplify maintenance"), so failures are tracked per direction here.
//! This struct is ground truth — what is actually broken; the scheduler's
//! *detected* view lives in `negotiator::fault` and converges to this one
//! through dummy-message feedback. Nothing here knows about time: the one
//! timeline that fails and repairs links as a run advances (the §4.3
//! experiments, scenario events, flaps and partitions alike) is
//! [`FaultModel`](crate::FaultModel).

use sim::Xoshiro256;

/// Direction of a fiber relative to its ToR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkDir {
    /// ToR transmit side (laser → AWGR).
    Egress,
    /// ToR receive side (AWGR → ToR).
    Ingress,
}

/// Ground-truth failure state of every directed link in the fabric.
#[derive(Debug, Clone)]
pub struct LinkFailures {
    n_ports: usize,
    egress_down: Vec<bool>,
    ingress_down: Vec<bool>,
    /// Currently failed directed links, maintained by `fail`/`repair` so
    /// the engines' per-slot/per-epoch "anything broken?" check is O(1).
    down_count: usize,
    /// Active partition: group id per ToR; empty when the fabric is whole.
    /// Cross-group pairs lose connectivity in both directions while the
    /// per-fiber state above is untouched, so a partition composes with
    /// (and heals independently of) individual link failures.
    partition: Vec<u32>,
}

impl LinkFailures {
    /// All links healthy.
    pub fn new(n_tors: usize, n_ports: usize) -> Self {
        LinkFailures {
            n_ports,
            egress_down: vec![false; n_tors * n_ports],
            ingress_down: vec![false; n_tors * n_ports],
            down_count: 0,
            partition: Vec::new(),
        }
    }

    fn idx(&self, tor: usize, port: usize) -> usize {
        tor * self.n_ports + port
    }

    /// Number of ToRs in the fabric.
    pub fn n_tors(&self) -> usize {
        self.egress_down.len() / self.n_ports
    }

    /// Ports per ToR.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Mark one directed link failed (idempotent).
    pub fn fail(&mut self, tor: usize, port: usize, dir: LinkDir) {
        let i = self.idx(tor, port);
        let slot = match dir {
            LinkDir::Egress => &mut self.egress_down[i],
            LinkDir::Ingress => &mut self.ingress_down[i],
        };
        if !*slot {
            *slot = true;
            self.down_count += 1;
        }
    }

    /// Repair one directed link (idempotent).
    pub fn repair(&mut self, tor: usize, port: usize, dir: LinkDir) {
        let i = self.idx(tor, port);
        let slot = match dir {
            LinkDir::Egress => &mut self.egress_down[i],
            LinkDir::Ingress => &mut self.ingress_down[i],
        };
        if *slot {
            *slot = false;
            self.down_count -= 1;
        }
    }

    /// Is the egress fiber of `(tor, port)` down?
    pub fn egress_down(&self, tor: usize, port: usize) -> bool {
        self.egress_down[self.idx(tor, port)]
    }

    /// Is the ingress fiber of `(tor, port)` down?
    pub fn ingress_down(&self, tor: usize, port: usize) -> bool {
        self.ingress_down[self.idx(tor, port)]
    }

    /// Can a transmission from `(src, port)` reach `(dst, port)`?
    /// (Egress fiber of the source and ingress fiber of the destination
    /// must both be up, and the pair must share a partition group; the
    /// AWGR itself is passive and never fails here.)
    pub fn link_up(&self, src: usize, dst: usize, port: usize) -> bool {
        self.pair_open(src, dst) && !self.egress_down(src, port) && !self.ingress_down(dst, port)
    }

    /// Are `src` and `dst` on the same side of the (possibly absent)
    /// partition?
    #[inline]
    pub fn pair_open(&self, src: usize, dst: usize) -> bool {
        self.partition.is_empty() || self.partition[src] == self.partition[dst]
    }

    /// Partition the ToR set: `assign[tor]` gives each ToR's group id and
    /// every cross-group pair loses connectivity until [`Self::heal_partition`].
    pub fn set_partition(&mut self, assign: Vec<u32>) {
        debug_assert_eq!(
            assign.len(),
            self.n_tors(),
            "partition assignment must cover every ToR"
        );
        self.partition = assign;
    }

    /// Remove the partition; cross-group pairs reconnect (per-fiber
    /// failures, if any, remain).
    pub fn heal_partition(&mut self) {
        self.partition.clear();
    }

    /// Is a partition active?
    pub fn partitioned(&self) -> bool {
        !self.partition.is_empty()
    }

    /// ToRs cut off from the largest partition group (0 when whole) — the
    /// "partition size" the scenario series reports.
    pub fn partitioned_tors(&self) -> usize {
        if self.partition.is_empty() {
            return 0;
        }
        let groups = self
            .partition
            .iter()
            .map(|&g| g as usize)
            .max()
            .unwrap_or(0)
            + 1;
        let mut counts = vec![0usize; groups];
        for &g in &self.partition {
            counts[g as usize] += 1;
        }
        self.partition.len() - counts.iter().copied().max().unwrap_or(0)
    }

    /// Number of currently failed directed links (O(1), kept as a
    /// counter beside the per-direction state).
    pub fn failed_count(&self) -> usize {
        debug_assert_eq!(
            self.down_count,
            self.egress_down.iter().filter(|&&d| d).count()
                + self.ingress_down.iter().filter(|&&d| d).count(),
            "down_count drifted from the per-direction state"
        );
        self.down_count
    }

    /// Fully healthy fabric: no failed fibers and no partition. The
    /// engines ask this once per epoch/timeslot, not
    /// [`Self::failed_count`], to decide whether a visit must check its
    /// link, because a partition breaks pairs without touching any fiber.
    pub fn healthy(&self) -> bool {
        self.down_count == 0 && self.partition.is_empty()
    }

    /// Sample a uniform `ratio` of all directed links without changing
    /// any state. A zero-link sample is RNG-neutral: the caller's stream
    /// position is untouched, so downstream draws from the same `rng`
    /// are identical whether or not a no-op sample happened in between.
    pub fn sample_random(&self, ratio: f64, rng: &mut Xoshiro256) -> Vec<(usize, usize, LinkDir)> {
        let n_links = self.egress_down.len();
        let target = ((2 * n_links) as f64 * ratio).round() as usize;
        if target == 0 {
            return Vec::new();
        }
        let mut all: Vec<(usize, usize, LinkDir)> = Vec::with_capacity(2 * n_links);
        for tor in 0..n_links / self.n_ports {
            for port in 0..self.n_ports {
                all.push((tor, port, LinkDir::Egress));
                all.push((tor, port, LinkDir::Ingress));
            }
        }
        rng.shuffle(&mut all);
        all.truncate(target);
        all
    }

    /// Fail a uniform random sample of `ratio` of all directed links
    /// (the Figure 10 setup: simultaneous failures at ratios 1%–10%).
    /// Returns the failed links for later repair.
    pub fn fail_random(
        &mut self,
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> Vec<(usize, usize, LinkDir)> {
        let chosen = self.sample_random(ratio, rng);
        for &(tor, port, dir) in &chosen {
            self.fail(tor, port, dir);
        }
        chosen
    }

    /// Repair every link in `links`.
    pub fn repair_all(&mut self, links: &[(usize, usize, LinkDir)]) {
        for &(tor, port, dir) in links {
            self.repair(tor, port, dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_repair_roundtrip() {
        let mut f = LinkFailures::new(4, 2);
        assert!(f.link_up(0, 1, 0));
        f.fail(0, 0, LinkDir::Egress);
        assert!(!f.link_up(0, 1, 0), "src egress down breaks the link");
        assert!(f.link_up(1, 0, 0), "reverse direction unaffected");
        f.repair(0, 0, LinkDir::Egress);
        assert!(f.link_up(0, 1, 0));
    }

    #[test]
    fn ingress_failure_breaks_only_receive_side() {
        let mut f = LinkFailures::new(4, 2);
        f.fail(2, 1, LinkDir::Ingress);
        assert!(!f.link_up(0, 2, 1));
        assert!(f.link_up(2, 0, 1), "ToR 2 can still transmit on port 1");
        assert!(f.link_up(0, 2, 0), "other port unaffected");
    }

    #[test]
    fn fail_random_hits_target_count() {
        let mut f = LinkFailures::new(16, 4);
        let mut rng = Xoshiro256::new(1);
        let failed = f.fail_random(0.10, &mut rng);
        // 2 * 16 * 4 = 128 directed links; 10% = 13 (rounded).
        assert_eq!(failed.len(), 13);
        assert_eq!(f.failed_count(), 13);
        f.repair_all(&failed);
        assert_eq!(f.failed_count(), 0);
    }

    #[test]
    fn fail_random_zero_target_is_rng_neutral() {
        // Regression: a sample that rounds to zero links used to build
        // and shuffle the full link list, silently advancing the caller's
        // stream. The stream position must be unchanged.
        let mut f = LinkFailures::new(16, 4);
        let mut rng = Xoshiro256::new(42);
        let untouched = rng.clone();
        let failed = f.fail_random(0.001, &mut rng); // 128 links * 0.001 -> 0
        assert!(failed.is_empty());
        assert_eq!(f.failed_count(), 0);
        let mut untouched = untouched;
        for _ in 0..8 {
            assert_eq!(
                rng.next_u64(),
                untouched.next_u64(),
                "zero-link fail_random must not advance the RNG"
            );
        }
    }

    #[test]
    fn partition_blocks_cross_group_pairs_only() {
        let mut f = LinkFailures::new(4, 2);
        f.set_partition(vec![0, 0, 1, 1]);
        assert!(f.partitioned());
        assert_eq!(f.partitioned_tors(), 2);
        assert!(f.link_up(0, 1, 0), "intra-group pair stays up");
        assert!(!f.link_up(0, 2, 0), "cross-group pair is blocked");
        assert!(!f.link_up(3, 1, 1), "both directions blocked");
        assert_eq!(f.failed_count(), 0, "no fiber is marked failed");
        assert!(!f.healthy(), "partitioned fabric is not healthy");
    }

    #[test]
    fn heal_partition_returns_to_healthy() {
        let mut f = LinkFailures::new(6, 2);
        f.set_partition(vec![0, 1, 2, 0, 1, 2]);
        assert!(!f.healthy());
        f.heal_partition();
        assert!(f.healthy());
        assert_eq!(f.partitioned_tors(), 0);
        for src in 0..6 {
            for dst in 0..6 {
                for port in 0..2 {
                    assert!(f.link_up(src, dst, port));
                }
            }
        }
    }

    #[test]
    fn partition_composes_with_fiber_failures() {
        let mut f = LinkFailures::new(4, 2);
        f.fail(0, 0, LinkDir::Egress);
        f.set_partition(vec![0, 0, 1, 1]);
        f.heal_partition();
        assert!(!f.healthy(), "fiber failure survives the heal");
        assert!(!f.link_up(0, 1, 0));
        f.repair(0, 0, LinkDir::Egress);
        assert!(f.healthy());
    }

    #[test]
    fn fail_random_is_deterministic_per_seed() {
        let mut a = LinkFailures::new(8, 2);
        let mut b = LinkFailures::new(8, 2);
        let fa = a.fail_random(0.25, &mut Xoshiro256::new(9));
        let fb = b.fail_random(0.25, &mut Xoshiro256::new(9));
        assert_eq!(fa, fb);
    }
}
