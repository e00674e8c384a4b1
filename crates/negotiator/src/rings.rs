//! Round-robin priority rings (§3.2.1), the arbiters behind GRANT and
//! ACCEPT.
//!
//! A ring holds a fixed member set (ToR ids). The pointer marks the
//! highest-priority member; priority decreases clockwise. Picking among a
//! candidate subset selects the candidate closest clockwise from the
//! pointer, then advances the pointer to just past the winner — RRM's
//! "least recently granted first" rule, which the paper adopts for fairness
//! and starvation freedom. [`Ring::sweep`] makes a run of picks over one
//! candidate set in a single pass, which is how GRANT fills a ToR's ports.

use sim::Xoshiro256;
use topology::RingScope;

/// A round-robin arbiter over a fixed set of ToR ids.
///
/// As in the paper (Figure 3(b)/(c)) the pointer is the ring's only state.
/// The member set is a [`RingScope`] kept in closed form — member `i`
/// clockwise is `start + i`, stepped over `skip` — so a ring owns no heap
/// and a fabric's arbiters cost the same bytes per ToR at any size.
#[derive(Debug, Clone)]
pub struct Ring {
    start: u32,
    span: u32,
    /// The id of `start..start + span` that is no member; `u32::MAX` (past
    /// every range) when the scope's `skip` removes nothing.
    skip: u32,
    /// Number of members.
    len: u32,
    /// Position, clockwise from `start`, of the highest-priority member.
    pointer: u32,
}

impl Ring {
    /// Ring over the members of `scope`, clockwise in ascending id order,
    /// with a randomly initialized pointer, as Algorithm 1 specifies.
    pub fn new(scope: RingScope, rng: &mut Xoshiro256) -> Self {
        assert!(!scope.is_empty(), "a ring needs at least one member");
        // 31 bits, so that `pick`'s `slot + len` cannot overflow and
        // `u32::MAX` lies past every range.
        let end = scope.start.checked_add(scope.span);
        assert!(
            end.is_some_and(|end| end <= (u32::MAX / 2) as usize),
            "ring member ids must fit in 31 bits"
        );
        let (start, span) = (scope.start as u32, scope.span as u32);
        let len = scope.len() as u32;
        let skip = if len < span {
            scope.skip as u32
        } else {
            u32::MAX
        };
        let pointer = rng.index(len as usize) as u32;
        Ring {
            start,
            span,
            skip,
            len,
            pointer,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the ring has no members (never — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current highest-priority member (exposed for tests/diagnostics).
    pub fn pointer_member(&self) -> usize {
        self.member_at(self.pointer)
    }

    /// The member `slot` places clockwise from the ring's first.
    fn member_at(&self, slot: u32) -> usize {
        let id = self.start + slot;
        (id + u32::from(id >= self.skip)) as usize
    }

    /// Position of `member` clockwise from the ring's first, if it is one.
    fn slot_of(&self, member: usize) -> Option<u32> {
        let offset = member.wrapping_sub(self.start as usize);
        if offset >= self.span as usize || member == self.skip as usize {
            return None;
        }
        Some(offset as u32 - u32::from(member > self.skip as usize))
    }

    /// Pick the highest-priority candidate and advance the pointer past it.
    /// Candidates not in the ring are ignored; `None` if no candidate
    /// qualifies. Duplicate candidates are harmless.
    pub fn pick(&mut self, candidates: &[usize]) -> Option<usize> {
        let (len, pointer) = (self.len, self.pointer);
        // Smallest clockwise distance from the pointer; a slot behind the
        // pointer is one lap ahead of it.
        let mut nearest = u32::MAX;
        for &candidate in candidates {
            if let Some(slot) = self.slot_of(candidate) {
                let lap = if slot < pointer { len } else { 0 };
                nearest = nearest.min(slot + lap - pointer);
            }
        }
        if nearest == u32::MAX {
            return None;
        }
        let reach = pointer + nearest;
        let slot = if reach < len { reach } else { reach - len };
        self.pointer = if slot + 1 == len { 0 } else { slot + 1 };
        Some(self.member_at(slot))
    }

    /// The members marked in `marks` — a ToR-id bitmap, bit `id % 64` of
    /// word `id / 64`, ids past its end unmarked — clockwise from the
    /// pointer: `found` gets each in turn until `want` are found or the
    /// ring has been swept once. Returns how many were found.
    ///
    /// These are the picks successive [`Ring::pick`] calls over the marked
    /// set would make until they start over: with `k` members marked, pick
    /// `i` is the `i % k`-th found. The pointer stays put;
    /// [`Ring::advance_past`] the last pick taken moves it where those
    /// picks would have left it. One pass over the ring's id window,
    /// O(span / 64 + found), however many picks it stands for.
    pub fn sweep(&self, marks: &[u64], want: usize, mut found: impl FnMut(usize)) -> usize {
        let first = self.pointer_member();
        let end = (self.start + self.span) as usize;
        let mut count = 0;
        for (lo, hi) in [(first, end), (self.start as usize, first)] {
            if count == want {
                break;
            }
            count = self.sweep_ids(marks, lo, hi, want, count, &mut found);
        }
        count
    }

    /// [`Ring::sweep`] over the ids `lo..hi`, `count` of `want` found so far.
    fn sweep_ids(
        &self,
        marks: &[u64],
        lo: usize,
        hi: usize,
        want: usize,
        mut count: usize,
        found: &mut impl FnMut(usize),
    ) -> usize {
        if lo >= hi {
            return count;
        }
        let last = (hi - 1) / 64;
        let mut w = lo / 64;
        let mut word = marks.get(w).copied().unwrap_or(0) & (!0u64 << (lo % 64));
        loop {
            if w == last {
                word &= !0u64 >> (63 - (hi - 1) % 64);
            }
            while word != 0 {
                let id = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if id != self.skip as usize {
                    found(id);
                    count += 1;
                    if count == want {
                        return count;
                    }
                }
            }
            if w == last {
                return count;
            }
            w += 1;
            word = marks.get(w).copied().unwrap_or(0);
        }
    }

    /// Move the pointer as a [`Ring::pick`] of `member` would: to just past
    /// it.
    pub fn advance_past(&mut self, member: usize) {
        let slot = self.slot_of(member).expect("advance past a ring member");
        self.pointer = if slot + 1 == self.len { 0 } else { slot + 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `start..start + span`, nothing skipped.
    fn range(start: usize, span: usize) -> RingScope {
        RingScope {
            start,
            span,
            skip: usize::MAX,
        }
    }

    fn ring(scope: RingScope) -> Ring {
        let mut r = Ring::new(scope, &mut Xoshiro256::new(1));
        // Normalize pointer to 0 for deterministic assertions.
        r.pointer = 0;
        r
    }

    /// The ring as it was stored before the closed form: explicit members
    /// and an id → slot table. Kept as the oracle [`Ring`] is tested against.
    struct ExplicitRing {
        members: Vec<usize>,
        /// `slot_of[tor]` = position in `members`, or `usize::MAX` if absent.
        slot_of: Vec<usize>,
        pointer: usize,
    }

    impl ExplicitRing {
        fn new(members: Vec<usize>, rng: &mut Xoshiro256) -> Self {
            let max = members.iter().copied().max().unwrap();
            let mut slot_of = vec![usize::MAX; max + 1];
            for (i, &m) in members.iter().enumerate() {
                assert_eq!(slot_of[m], usize::MAX, "duplicate ring member {m}");
                slot_of[m] = i;
            }
            let pointer = rng.index(members.len());
            ExplicitRing {
                members,
                slot_of,
                pointer,
            }
        }

        fn pointer_member(&self) -> usize {
            self.members[self.pointer]
        }

        fn distance(&self, member: usize) -> Option<usize> {
            let slot = *self.slot_of.get(member)?;
            if slot == usize::MAX {
                return None;
            }
            Some((slot + self.members.len() - self.pointer) % self.members.len())
        }

        fn pick(&mut self, candidates: &[usize]) -> Option<usize> {
            let (winner, slot) = candidates
                .iter()
                .filter_map(|&c| self.distance(c).map(|d| (d, c)))
                .min()
                .map(|(d, c)| (c, (self.pointer + d) % self.members.len()))?;
            self.pointer = (slot + 1) % self.members.len();
            Some(winner)
        }
    }

    #[test]
    fn closed_form_matches_the_explicit_ring() {
        let mut gen = Xoshiro256::new(0x51a7);
        for case in 0..300 {
            let start = gen.index(40);
            let span = 1 + gen.index(48);
            // Below, inside (either end included) and beyond the range.
            let skip = gen.index(start + span + 8);
            let scope = RingScope { start, span, skip };
            if scope.is_empty() {
                continue;
            }
            let seed = gen.next_u64();
            let mut ring = Ring::new(scope, &mut Xoshiro256::new(seed));
            let mut oracle = ExplicitRing::new(scope.iter().collect(), &mut Xoshiro256::new(seed));
            assert_eq!(ring.len(), oracle.members.len());
            assert_eq!(ring.pointer_member(), oracle.pointer_member(), "{scope:?}");
            for pick in 0..200 {
                // Ids from 0 to past the range: non-members on both sides,
                // duplicates, and every so often the skipped id itself.
                let mut candidates: Vec<usize> = (0..gen.index(12))
                    .map(|_| gen.index(start + span + 6))
                    .collect();
                if gen.index(4) == 0 {
                    candidates.push(skip);
                }
                assert_eq!(
                    ring.pick(&candidates),
                    oracle.pick(&candidates),
                    "case {case} pick {pick}: {scope:?} {candidates:?}"
                );
                assert_eq!(ring.pointer_member(), oracle.pointer_member());
            }
        }
    }

    #[test]
    fn a_sweep_finds_the_picks_successive_picks_make() {
        let mut gen = Xoshiro256::new(0x5eed);
        for case in 0..300 {
            let start = gen.index(140);
            let span = 1 + gen.index(150);
            let skip = gen.index(start + span + 8);
            let scope = RingScope { start, span, skip };
            if scope.is_empty() {
                continue;
            }
            let mut ring = Ring::new(scope, &mut Xoshiro256::new(gen.next_u64()));
            // Marks inside and beyond the window, the skipped id included.
            let limit = start + span + 70;
            let marked: Vec<usize> = (0..gen.index(20)).map(|_| gen.index(limit)).collect();
            let mut marks = vec![0u64; limit.div_ceil(64) - gen.index(2)];
            for &id in &marked {
                if let Some(word) = marks.get_mut(id / 64) {
                    *word |= 1 << (id % 64);
                }
            }
            let want = gen.index(12);
            let mut found = Vec::new();
            let k = ring.sweep(&marks, want, |m| found.push(m));
            assert_eq!(k, found.len());
            let candidates: Vec<usize> = marked
                .into_iter()
                .filter(|&id| marks.get(id / 64).is_some())
                .collect();
            let mut oracle = ring.clone();
            for i in 0..want {
                let pick = oracle.pick(&candidates);
                assert_eq!(pick, (k > 0).then(|| found[i % k]), "case {case} pick {i}");
            }
            if want > 0 && k > 0 {
                ring.advance_past(found[(want - 1) % k]);
            }
            assert_eq!(
                ring.pointer_member(),
                oracle.pointer_member(),
                "case {case}"
            );
        }
    }

    #[test]
    fn picks_clockwise_from_pointer() {
        let mut r = ring(range(0, 4));
        assert_eq!(r.pick(&[2, 3]), Some(2));
        // Pointer now just past 2 → member 3 is highest priority.
        assert_eq!(r.pointer_member(), 3);
        assert_eq!(r.pick(&[1, 3]), Some(3));
        assert_eq!(r.pick(&[1, 2]), Some(1), "wraps around");
    }

    #[test]
    fn least_recently_granted_wins() {
        let mut r = ring(range(0, 4));
        // Grant 0 repeatedly; each time, 0 moves to lowest priority.
        assert_eq!(r.pick(&[0, 1]), Some(0));
        assert_eq!(r.pick(&[0, 1]), Some(1));
        assert_eq!(r.pick(&[0, 1]), Some(0), "alternates fairly");
    }

    #[test]
    fn no_candidate_no_pick() {
        let mut r = ring(range(0, 3));
        assert_eq!(r.pick(&[]), None);
        assert_eq!(r.pick(&[7, 9]), None, "non-members ignored");
        assert_eq!(r.pointer_member(), 0, "pointer untouched on failure");
    }

    #[test]
    fn repeated_picks_split_ports_like_figure_3a() {
        // The parallel network's shared GRANT ring allocates all of a ToR's
        // ports from one ring: 4 ports, 2 requesters → each granted twice,
        // alternating.
        let mut r = ring(range(0, 8));
        let grants: Vec<_> = (0..4).map(|_| r.pick(&[1, 3]).unwrap()).collect();
        assert_eq!(grants, vec![1, 3, 1, 3]);
    }

    #[test]
    fn sparse_member_sets_work() {
        // Thin-clos per-port rings hold one source group, e.g. {32..48}.
        let mut r = ring(range(32, 16));
        assert_eq!(r.pick(&[40, 35]), Some(35));
        assert_eq!(r.pick(&[0, 100]), None);
    }

    #[test]
    fn the_skipped_id_is_no_member() {
        // A ToR's own-group ring: {32..48} without ToR 40 itself.
        let mut r = ring(RingScope {
            start: 32,
            span: 16,
            skip: 40,
        });
        assert_eq!(r.len(), 15);
        assert_eq!(r.pick(&[40]), None);
        assert_eq!(r.pick(&[40, 41]), Some(41));
        assert_eq!(r.pointer_member(), 42);
        assert_eq!(r.pick(&[39, 47]), Some(47));
        assert_eq!(r.pointer_member(), 32, "wraps to the first member");
        assert_eq!(r.pick(&[39]), Some(39));
        assert_eq!(r.pointer_member(), 41, "steps over the skipped id");
    }

    #[test]
    fn random_initialization_varies_pointer() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let r = Ring::new(range(0, 64), &mut Xoshiro256::new(seed));
            seen.insert(r.pointer_member());
        }
        assert!(seen.len() > 10, "pointers should spread across members");
    }

    #[test]
    fn skip_outside_the_range_removes_nothing() {
        for skip in [0, 7, 12, 500] {
            let scope = RingScope {
                start: 8,
                span: 4,
                skip,
            };
            let mut r = ring(scope);
            assert_eq!(r.len(), scope.span);
            let all: Vec<usize> = (0..16).collect();
            let lap: Vec<_> = (0..4).map(|_| r.pick(&all).unwrap()).collect();
            assert_eq!(lap, vec![8, 9, 10, 11]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_scope_rejected() {
        let only_self = RingScope {
            start: 3,
            span: 1,
            skip: 3,
        };
        Ring::new(only_self, &mut Xoshiro256::new(0));
    }

    #[test]
    fn fairness_over_many_rounds() {
        // All members always requesting: grants must be perfectly balanced.
        let mut r = ring(range(0, 8));
        let all: Vec<usize> = (0..8).collect();
        let mut counts = [0u32; 8];
        for _ in 0..800 {
            counts[r.pick(&all).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "counts {counts:?}");
    }
}
