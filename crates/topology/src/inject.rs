//! The fault timeline: one [`FaultModel`] holds every timed change to a
//! run's fabric — the clean link failures of the §4.3 experiments and the
//! adversarial families the related simulators treat as first-class
//! (ROADMAP item 3) — and applies it to the ground truth in
//! [`LinkFailures`] as simulated time passes:
//!
//! * **Link failures** — fail one directed link or a seeded uniform
//!   sample of them; `RepairAll` lifts everything such actions failed.
//! * **Flapping links** — duty-cycled up/down oscillation on a set of
//!   directed links, either listed explicitly or sampled once (seeded)
//!   when the flap activates.
//! * **Partitions** — the ToR set splits into groups and every
//!   cross-group pair loses connectivity until a `Heal`; the group
//!   state lives inside [`LinkFailures`] so both engines' existing
//!   `link_up` checks honor it.
//! * **Gray failures** — links stay up for data but negotiation control
//!   traffic (REQUEST/GRANT and the dummy/feedback messages the fault
//!   detector relies on) is dropped probabilistically. The drop decision
//!   is *position-keyed*: a seeded hash of `(epoch, src, dst)`, so any
//!   shard layout or visit order produces the identical drop set and
//!   `--workers` can never move a drop.
//! * **Greedy ToRs** — Byzantine-lite granters that ignore requests and
//!   the debit discipline (the grant logic itself lives in
//!   `negotiator::variants`; this model only tracks who misbehaves).
//!
//! **A link is down while any holder holds it.** A link action's entry
//! holds its link until `RepairAll`; a flap holds its links through each
//! dark span. So a flap's connected half-cycle (or `FlapStop`) raises a
//! link only if no link action and no other dark flap names it, and
//! `RepairAll` leaves down what a dark flap holds — the link state is a
//! function of the holders, not of the order their actions arrived in.
//!
//! Determinism contract: every random choice is drawn from a seed
//! carried in the action itself (scenario-compiled, hashed into the
//! content address) — never from ambient randomness (the D004 lint
//! forbids it) and never from engine state that varies with `--jobs`
//! or `--workers`. All mutation happens in [`FaultModel::epoch_update`],
//! which the engines call from their sequential driver loops only.

use crate::failures::{LinkDir, LinkFailures};
use sim::time::Nanos;
use sim::Xoshiro256;

/// Which directed links a flap drives.
#[derive(Debug, Clone, PartialEq)]
pub enum FlapTargets {
    /// An explicit list of `(tor, port, dir)` links.
    Links(Vec<(usize, usize, LinkDir)>),
    /// A uniform sample of `ratio` of all directed links, drawn once
    /// from `seed` when the flap activates.
    Random {
        /// Fraction of directed links to flap.
        ratio: f64,
        /// Sampling seed.
        seed: u64,
    },
}

/// How a partition splits the ToR set.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// Explicit group id per ToR (`assign[tor]`).
    Explicit(Vec<u32>),
    /// A seeded balanced split into `groups` groups.
    Random {
        /// Number of groups (≥ 2).
        groups: u32,
        /// Assignment seed.
        seed: u64,
    },
}

/// One scheduled change to the fault model.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail one directed link until the next `RepairAll`.
    FailLink {
        /// ToR index.
        tor: usize,
        /// Port index.
        port: usize,
        /// Fiber direction.
        dir: LinkDir,
    },
    /// Fail a uniform random fraction of all directed links (the
    /// Figure 10 setup) until the next `RepairAll`.
    FailRandom {
        /// Fraction of directed links to fail.
        ratio: f64,
        /// Sampling seed.
        seed: u64,
    },
    /// Repair everything failed by earlier `FailLink`/`FailRandom`
    /// actions, except what a dark flap still holds.
    RepairAll,
    /// Start a duty-cycled oscillation: `up` nanoseconds connected, then
    /// `down` nanoseconds dark, repeating from the activation instant.
    FlapStart {
        /// Links to oscillate.
        targets: FlapTargets,
        /// Connected span of each cycle.
        up: Nanos,
        /// Dark span of each cycle.
        down: Nanos,
    },
    /// Stop every flap; links a flap currently holds down come back up
    /// unless a link action failed them too.
    FlapStop,
    /// Partition the ToR set; cross-group pairs lose connectivity.
    Partition(PartitionSpec),
    /// Heal the partition.
    Heal,
    /// Start a gray failure: control messages from the scoped source
    /// ToRs are dropped with probability `drop_prob`; data is untouched.
    GrayStart {
        /// Per-(epoch, src, dst) drop probability in `(0, 1]`.
        drop_prob: f64,
        /// Decision seed.
        seed: u64,
        /// Affected source ToRs (`None` = every ToR).
        tors: Option<Vec<usize>>,
    },
    /// End the gray failure.
    GrayStop,
    /// Mark ToRs as greedy granters (Byzantine-lite).
    GreedyStart {
        /// Misbehaving ToRs.
        tors: Vec<usize>,
    },
    /// Every ToR returns to honest granting.
    GreedyStop,
}

impl FaultAction {
    /// Is this one of the plain link actions (`FailLink`, `FailRandom`,
    /// `RepairAll`)? The trace counts them apart from the adversarial
    /// injections, and a compiled scenario orders them first among
    /// equal-time actions.
    pub fn is_link_action(&self) -> bool {
        matches!(
            self,
            FaultAction::FailLink { .. } | FaultAction::FailRandom { .. } | FaultAction::RepairAll
        )
    }
}

/// One active flap group.
#[derive(Debug, Clone)]
struct Flap {
    links: Vec<(usize, usize, LinkDir)>,
    up: Nanos,
    down: Nanos,
    /// Activation instant — phase zero of the duty cycle.
    start: Nanos,
    /// Whether the flap currently holds its links down.
    down_now: bool,
}

/// Active gray-failure state.
#[derive(Debug, Clone)]
struct Gray {
    /// `drop_prob` mapped onto u64 space: drop iff `mix(...) < threshold`.
    threshold: u64,
    seed: u64,
    /// Per-source-ToR scope mask (`None` = every source).
    scope: Option<Vec<bool>>,
}

/// Composable per-epoch fault model: a once-sorted schedule of
/// [`FaultAction`]s consumed through a cursor, plus the state of every
/// currently active fault. Shared by both engines, so one timeline
/// drives either: they call [`Self::epoch_update`] once per epoch
/// (negotiator) or per slot (oblivious) from their sequential driver
/// loops, then query [`Self::gray_drops`]/[`Self::greedy`] from the
/// scheduling steps.
#[derive(Debug, Clone, Default)]
pub struct FaultModel {
    schedule: Vec<(Nanos, FaultAction)>,
    cursor: usize,
    /// How many of the `cursor` applied actions were link actions.
    link_actions: usize,
    /// Links failed by applied link actions, held down until `RepairAll`.
    injected: Vec<(usize, usize, LinkDir)>,
    flaps: Vec<Flap>,
    gray: Option<Gray>,
    /// Per-ToR greedy flags, grown on first `GreedyStart`.
    greedy: Vec<bool>,
}

impl FaultModel {
    /// An empty model: nothing scheduled, nothing active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at absolute time `at`. Inserts keep the
    /// schedule sorted; equal timestamps preserve scheduling order (so a
    /// phase's stop actions, scheduled before the next phase's starts,
    /// apply first).
    pub fn schedule(&mut self, at: Nanos, action: FaultAction) {
        let pos = self.cursor + self.schedule[self.cursor..].partition_point(|&(t, _)| t <= at);
        self.schedule.insert(pos, (at, action));
    }

    /// True once every scheduled action has been applied. Active faults
    /// (an unrepaired link, an unhealed partition, a running flap) do not
    /// keep a drained model "busy": with no pending actions and no
    /// pending flows the engines may exit early.
    pub fn is_drained(&self) -> bool {
        self.cursor >= self.schedule.len()
    }

    /// How many scheduled actions have been applied so far, as `(link
    /// actions, injections)`. Observers (the flight recorder) diff this
    /// across `epoch_update` calls to record activations without the
    /// model exposing its internals.
    pub fn applied(&self) -> (usize, usize) {
        (self.link_actions, self.cursor - self.link_actions)
    }

    /// Apply every action due by `now`, then advance flap duty cycles.
    /// Must be called from the sequential driver loop only — all
    /// mutation happens here, so shard workers see a frozen model.
    pub fn epoch_update(&mut self, now: Nanos, failures: &mut LinkFailures) {
        while let Some(&(at, ref action)) = self.schedule.get(self.cursor) {
            if at > now {
                break;
            }
            let action = action.clone();
            self.cursor += 1;
            self.link_actions += action.is_link_action() as usize;
            // Anchor on the *scheduled* instant, not the observation
            // instant: a flap's duty cycle starts at its `at` even when
            // the engine's epoch boundary lands a little later.
            self.apply(action, at, failures);
        }
        for i in 0..self.flaps.len() {
            let flap = &mut self.flaps[i];
            let phase = (now - flap.start) % (flap.up + flap.down);
            let want_down = phase >= flap.up;
            if want_down == flap.down_now {
                continue;
            }
            flap.down_now = want_down;
            if want_down {
                for &(tor, port, dir) in &flap.links {
                    failures.fail(tor, port, dir);
                }
            } else {
                self.release(&self.flaps[i].links, failures);
            }
        }
    }

    /// Repair each of `links` that nothing holds down any more: neither a
    /// link action's entry nor a dark flap. The caller has already let go
    /// of its own hold.
    fn release(&self, links: &[(usize, usize, LinkDir)], failures: &mut LinkFailures) {
        for link in links {
            let held = self.injected.contains(link)
                || self
                    .flaps
                    .iter()
                    .any(|flap| flap.down_now && flap.links.contains(link));
            if !held {
                failures.repair(link.0, link.1, link.2);
            }
        }
    }

    fn apply(&mut self, action: FaultAction, at: Nanos, failures: &mut LinkFailures) {
        match action {
            FaultAction::FailLink { tor, port, dir } => {
                failures.fail(tor, port, dir);
                self.injected.push((tor, port, dir));
            }
            FaultAction::FailRandom { ratio, seed } => {
                let failed = failures.fail_random(ratio, &mut Xoshiro256::new(seed));
                self.injected.extend(failed);
            }
            FaultAction::RepairAll => {
                let injected = std::mem::take(&mut self.injected);
                self.release(&injected, failures);
            }
            FaultAction::FlapStart { targets, up, down } => {
                let links = match targets {
                    FlapTargets::Links(links) => links,
                    FlapTargets::Random { ratio, seed } => {
                        failures.sample_random(ratio, &mut Xoshiro256::new(seed))
                    }
                };
                self.flaps.push(Flap {
                    links,
                    up: up.max(1),
                    down: down.max(1),
                    start: at,
                    down_now: false,
                });
            }
            FaultAction::FlapStop => {
                for flap in std::mem::take(&mut self.flaps) {
                    if flap.down_now {
                        self.release(&flap.links, failures);
                    }
                }
            }
            FaultAction::Partition(spec) => {
                let assign = match spec {
                    PartitionSpec::Explicit(assign) => assign,
                    PartitionSpec::Random { groups, seed } => {
                        partition_random(failures.n_tors(), groups, seed)
                    }
                };
                failures.set_partition(assign);
            }
            FaultAction::Heal => failures.heal_partition(),
            FaultAction::GrayStart {
                drop_prob,
                seed,
                tors,
            } => {
                let scope = tors.map(|tors| {
                    let mut mask = vec![false; failures.n_tors()];
                    for tor in tors {
                        mask[tor] = true;
                    }
                    mask
                });
                self.gray = Some(Gray {
                    threshold: (drop_prob * u64::MAX as f64) as u64,
                    seed,
                    scope,
                });
            }
            FaultAction::GrayStop => self.gray = None,
            FaultAction::GreedyStart { tors } => {
                if self.greedy.len() < failures.n_tors() {
                    self.greedy.resize(failures.n_tors(), false);
                }
                for tor in tors {
                    self.greedy[tor] = true;
                }
            }
            FaultAction::GreedyStop => self.greedy.fill(false),
        }
    }

    /// Is a gray failure active? A gray window makes the negotiator's
    /// epoch not healthy: its predefined phase checks each link it
    /// visits, and its end-of-epoch observation pass feeds the dropped
    /// dummies to the fault detector.
    pub fn gray_active(&self) -> bool {
        self.gray.is_some()
    }

    /// Should the control traffic of connection `src → dst` be dropped
    /// this epoch? Position-keyed (seed, epoch, src, dst): the decision
    /// is a pure function of where the connection sits in simulated
    /// time, never of visit order, so any `--workers` split computes the
    /// identical drop set.
    pub fn gray_drops(&self, epoch: u64, src: usize, dst: usize) -> bool {
        let Some(gray) = &self.gray else {
            return false;
        };
        if let Some(scope) = &gray.scope {
            if !scope[src] {
                return false;
            }
        }
        let key = gray.seed
            ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (src as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (dst as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Xoshiro256::new(key).next_u64() < gray.threshold
    }

    /// Is `tor` currently granting greedily?
    pub fn greedy(&self, tor: usize) -> bool {
        self.greedy.get(tor).copied().unwrap_or(false)
    }
}

/// Seeded balanced assignment of `n` ToRs into `groups` groups: shuffle
/// the ToR ids, deal them round-robin. Every group is non-empty whenever
/// `groups <= n`.
fn partition_random(n: usize, groups: u32, seed: u64) -> Vec<u32> {
    let mut tors: Vec<usize> = (0..n).collect();
    Xoshiro256::new(seed).shuffle(&mut tors);
    let mut assign = vec![0u32; n];
    for (i, &tor) in tors.iter().enumerate() {
        assign[tor] = (i % groups.max(1) as usize) as u32;
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with(at: Nanos, action: FaultAction) -> FaultModel {
        let mut m = FaultModel::new();
        m.schedule(at, action);
        m
    }

    #[test]
    fn flap_duty_cycle_honors_its_period_exactly() {
        // One directed link, 3 ns up / 2 ns down, activated at t=10.
        // Checking every nanosecond tick: the link must be down exactly
        // during [10+3, 10+5), [10+8, 10+10), ... — 2 of every 5 ticks.
        let mut f = LinkFailures::new(4, 2);
        let mut m = model_with(
            10,
            FaultAction::FlapStart {
                targets: FlapTargets::Links(vec![(0, 0, LinkDir::Egress)]),
                up: 3,
                down: 2,
            },
        );
        let mut down_ticks = 0;
        for now in 0..10 + 5 * 4 {
            m.epoch_update(now, &mut f);
            let down = f.egress_down(0, 0);
            if now < 10 {
                assert!(!down, "flap inactive before its start at t={now}");
            } else {
                let phase = (now - 10) % 5;
                assert_eq!(down, phase >= 3, "wrong duty state at t={now}");
            }
            down_ticks += down as usize;
        }
        assert_eq!(down_ticks, 2 * 4, "exactly `down` ticks per period");
    }

    #[test]
    fn flap_stop_repairs_only_what_the_flap_holds_down() {
        let mut f = LinkFailures::new(4, 2);
        f.fail(1, 1, LinkDir::Ingress); // unrelated hard failure
        let mut m = model_with(
            0,
            FaultAction::FlapStart {
                targets: FlapTargets::Links(vec![(0, 0, LinkDir::Egress)]),
                up: 1,
                down: 1,
            },
        );
        m.epoch_update(1, &mut f); // phase 1 -> down
        assert!(f.egress_down(0, 0));
        m.schedule(2, FaultAction::FlapStop);
        m.epoch_update(2, &mut f);
        assert!(!f.egress_down(0, 0), "flapped link comes back up");
        assert!(f.ingress_down(1, 1), "hard failure untouched");
    }

    #[test]
    fn schedule_applies_in_time_order_and_drains() {
        let mut f = LinkFailures::new(4, 2);
        let mut s = FaultModel::new();
        // Inserted out of order; repair-all scheduled between the two fails.
        s.schedule(300, FaultAction::RepairAll);
        s.schedule(
            100,
            FaultAction::FailLink {
                tor: 0,
                port: 0,
                dir: LinkDir::Egress,
            },
        );
        s.schedule(
            200,
            FaultAction::FailLink {
                tor: 1,
                port: 1,
                dir: LinkDir::Ingress,
            },
        );
        s.epoch_update(50, &mut f);
        assert_eq!(f.failed_count(), 0);
        assert!(!s.is_drained());
        s.epoch_update(250, &mut f);
        assert_eq!(f.failed_count(), 2);
        s.epoch_update(300, &mut f);
        assert_eq!(f.failed_count(), 0, "repair-all undoes injected failures");
        assert!(s.is_drained());
        assert_eq!(s.applied(), (3, 0), "three link actions, no injection");
    }

    /// A 2 ns up / 2 ns dark flap on link (0, 0, egress) from `start`.
    fn flap_at(start: Nanos) -> (Nanos, FaultAction) {
        let action = FaultAction::FlapStart {
            targets: FlapTargets::Links(vec![(0, 0, LinkDir::Egress)]),
            up: 2,
            down: 2,
        };
        (start, action)
    }

    #[test]
    fn event_failed_link_stays_down_under_a_flap_until_repair_all() {
        let mut f = LinkFailures::new(4, 2);
        let link = FaultAction::FailLink {
            tor: 0,
            port: 0,
            dir: LinkDir::Egress,
        };
        let mut m = model_with(0, link);
        let (at, flap) = flap_at(4);
        m.schedule(at, flap);
        m.schedule(13, FaultAction::FlapStop);
        m.schedule(20, FaultAction::RepairAll);
        // Through the flap's first up half (4, 5), its dark span (6, 7),
        // the next up transition (8), a stop inside a dark span (13) and
        // beyond: the link action holds the link the whole time.
        for now in 0..20 {
            m.epoch_update(now, &mut f);
            assert!(f.egress_down(0, 0), "event-failed link read up at t={now}");
        }
        m.epoch_update(20, &mut f);
        assert!(f.healthy(), "repair-all lifts the last holder");
    }

    #[test]
    fn repair_all_leaves_down_what_a_dark_flap_holds() {
        let mut f = LinkFailures::new(4, 2);
        let (at, flap) = flap_at(0);
        let mut m = model_with(at, flap);
        m.schedule(
            1,
            FaultAction::FailLink {
                tor: 0,
                port: 0,
                dir: LinkDir::Egress,
            },
        );
        m.schedule(3, FaultAction::RepairAll);
        m.epoch_update(2, &mut f); // dark span [2, 4)
        assert!(f.egress_down(0, 0));
        m.epoch_update(3, &mut f);
        assert!(f.egress_down(0, 0), "repair-all inside the dark span");
        m.epoch_update(4, &mut f);
        assert!(f.healthy(), "the flap's next up transition raises it");
    }

    #[test]
    fn overlapping_flaps_hold_a_shared_link_while_either_is_dark() {
        // Two 2/2 flaps one tick apart: dark over [2, 4) and [3, 5), so the
        // shared link is down over [2, 5) of every 4-tick period from t=1.
        let mut f = LinkFailures::new(4, 2);
        let (at, flap) = flap_at(0);
        let mut m = model_with(at, flap);
        let (at, flap) = flap_at(1);
        m.schedule(at, flap);
        for now in 0..12 {
            m.epoch_update(now, &mut f);
            let dark = |start: Nanos| now >= start && (now - start) % 4 >= 2;
            assert_eq!(f.egress_down(0, 0), dark(0) || dark(1), "t={now}");
        }
        // Stopping both while one is dark raises the link.
        m.schedule(15, FaultAction::FlapStop);
        m.epoch_update(15, &mut f);
        assert!(f.healthy());
    }

    #[test]
    fn partition_then_heal_returns_link_failures_to_healthy() {
        // Property over several explicit and random splits: after
        // Partition + Heal, the ground truth is exactly healthy again.
        let cases: Vec<PartitionSpec> = vec![
            PartitionSpec::Explicit(vec![0, 1, 0, 1, 0, 1, 0, 1]),
            PartitionSpec::Explicit(vec![2, 2, 1, 1, 0, 0, 0, 0]),
            PartitionSpec::Random { groups: 2, seed: 7 },
            PartitionSpec::Random { groups: 3, seed: 8 },
        ];
        for spec in cases {
            let mut f = LinkFailures::new(8, 2);
            let mut m = model_with(5, FaultAction::Partition(spec.clone()));
            m.schedule(9, FaultAction::Heal);
            m.epoch_update(5, &mut f);
            assert!(!f.healthy(), "{spec:?} must partition");
            assert!(f.partitioned_tors() > 0);
            m.epoch_update(9, &mut f);
            assert!(f.healthy(), "{spec:?} must heal clean");
            assert_eq!(f.partitioned_tors(), 0);
            assert!(m.is_drained());
        }
    }

    #[test]
    fn random_partition_is_balanced_and_deterministic() {
        let a = partition_random(10, 3, 99);
        let b = partition_random(10, 3, 99);
        assert_eq!(a, b);
        let mut counts = [0usize; 3];
        for &g in &a {
            counts[g as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c >= 3), "balanced split: {counts:?}");
        assert_ne!(partition_random(10, 3, 100), a, "seed moves the split");
    }

    #[test]
    fn gray_drop_decision_is_positional_and_seeded() {
        let mut f = LinkFailures::new(8, 2);
        let mut m = model_with(
            0,
            FaultAction::GrayStart {
                drop_prob: 0.5,
                seed: 21,
                tors: None,
            },
        );
        m.epoch_update(0, &mut f);
        assert!(m.gray_active());
        assert!(f.healthy(), "gray failures never touch link state");
        // Pure positional function: same (epoch, src, dst) -> same answer.
        let mut drops = 0;
        for epoch in 0..50 {
            for src in 0..8 {
                for dst in 0..8 {
                    let d = m.gray_drops(epoch, src, dst);
                    assert_eq!(d, m.gray_drops(epoch, src, dst));
                    drops += d as usize;
                }
            }
        }
        let total = 50 * 8 * 8;
        assert!(
            (total / 3..2 * total / 3).contains(&drops),
            "p=0.5 should drop roughly half: {drops}/{total}"
        );
        m.schedule(1, FaultAction::GrayStop);
        m.epoch_update(1, &mut f);
        assert!(!m.gray_active());
        assert!(!m.gray_drops(0, 0, 1));
    }

    #[test]
    fn gray_scope_limits_sources() {
        let mut f = LinkFailures::new(8, 2);
        let mut m = model_with(
            0,
            FaultAction::GrayStart {
                drop_prob: 1.0,
                seed: 3,
                tors: Some(vec![2]),
            },
        );
        m.epoch_update(0, &mut f);
        for dst in 0..8 {
            if dst != 2 {
                assert!(m.gray_drops(7, 2, dst), "scoped source drops at p=1");
            }
            assert!(!m.gray_drops(7, 3, dst), "out-of-scope source never drops");
        }
    }

    #[test]
    fn greedy_flags_toggle_per_tor() {
        let mut f = LinkFailures::new(8, 2);
        let mut m = model_with(0, FaultAction::GreedyStart { tors: vec![1, 5] });
        m.schedule(10, FaultAction::GreedyStop);
        m.epoch_update(0, &mut f);
        assert!(m.greedy(1) && m.greedy(5));
        assert!(!m.greedy(0) && !m.greedy(7));
        m.epoch_update(10, &mut f);
        assert!(!m.greedy(1));
    }

    #[test]
    fn equal_timestamps_preserve_scheduling_order() {
        // A stop scheduled before a start at the same instant applies
        // first — the phase-boundary compile pattern relies on it.
        let mut f = LinkFailures::new(4, 2);
        let mut m = FaultModel::new();
        m.schedule(5, FaultAction::GreedyStart { tors: vec![0] });
        m.schedule(7, FaultAction::GreedyStop);
        m.schedule(7, FaultAction::GreedyStart { tors: vec![2] });
        m.epoch_update(7, &mut f);
        assert!(m.greedy(2) && !m.greedy(0));
    }
}
