//! Per-pair FIFO lists over one node arena per row: the queue store of both
//! epoch engines.
//!
//! A fabric has `n²` ToR pairs and, at any moment, far fewer queued items
//! than that (a 1024-ToR fabric at 10 % load: ~44 k live pairs of 1 M), so
//! [`PairLists`] stores the two apart:
//!
//! * **Per pair, two dense tables** of `[u32; L]` — the head and the tail of
//!   each of the pair's `L` FIFO lists, as *index + 1* into the row's arena,
//!   so all-zero is "empty" and `vec![[0; L]; n * n]` is one
//!   `alloc_zeroed`: `8 · L` B allocated per pair and nothing written at
//!   construction. Whether the untouched pages are resident is up to the
//!   allocator — fresh pages are not, but memory a process gets back from
//!   an engine it dropped is zeroed and so resident in full — which is why
//!   the engines budget allocated bytes per pair. (A `VecDeque` per list
//!   was 32 B per list whose dangling-but-non-null pointers had to be
//!   *written* for every pair: 142 MB for the negotiator's three at 1024
//!   ToRs before the first flow.) A tail is meaningful only while its head
//!   is non-zero, so pops never touch the tail table.
//! * **Per row (the owning ToR), one arena** of `(item, next)` slots, linked
//!   per `(pair, list)` and recycled through an intrusive free list (`next`
//!   of a free slot is the next free slot). A row's pairs share its arena,
//!   so slots one pair frees are reused by another and the arena's size
//!   tracks the row's high-water backlog in items, not the fabric. Arenas
//!   are per row because rows are what shards own: a [`Rows`] window splits
//!   the tables and the arenas at the same row, and no index ever crosses
//!   it.
//!
//! **The two-load rule.** A pop is `heads[src · n + dst][list]` — an address
//! computed from the pair — then the slot it names: two dependent loads,
//! what `VecDeque::front_mut` cost. The arena's base pointer is a third
//! load but not a dependent one (it is indexed by `src`, known up front).
//! Two earlier prototypes of sparse pair state kept the queue *body* behind
//! a stored handle instead — a slab with a `u32` index per pair, and
//! `Vec<Option<Box<_>>>` — which made the chain pair → handle → body →
//! item, and that one extra dependent load cost the negotiator's all-to-all
//! predefined phase +50 %. Whatever replaces this layout must keep the head
//! at a computed address.
//!
//! The store keeps no per-pair sums: what an engine reads every epoch it
//! mirrors itself, and anything else is a walk of a list ([`Pair::iter`]).
//! [`PairLists::audit`] checks the links for the debug builds and tests
//! that want it.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

/// Per-list links of one pair: arena index + 1, `0` = none.
type Links<const L: usize> = [u32; L];

/// One item and the link to the item behind it (or, on the free list, the
/// next free slot).
#[derive(Debug, Clone, Copy)]
struct Slot<T> {
    item: T,
    next: u32,
}

/// One row's slots.
#[derive(Debug)]
struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list (link form).
    free: u32,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            slots: Vec::new(),
            free: 0,
        }
    }
}

impl<T: Copy> Arena<T> {
    /// Store `item`, reusing a freed slot when there is one; its link.
    #[inline]
    fn alloc(&mut self, item: T) -> u32 {
        let link = self.free;
        if link != 0 {
            let slot = &mut self.slots[link as usize - 1];
            self.free = slot.next;
            *slot = Slot { item, next: 0 };
            return link;
        }
        self.slots.push(Slot { item, next: 0 });
        u32::try_from(self.slots.len()).expect("one row holds at most u32::MAX items")
    }
}

/// `L` FIFO lists of `T` per pair of a `rows × width` table (see the module
/// docs for the layout). Reads go through [`PairLists::pair`], everything
/// that links or unlinks through a row window ([`PairLists::all`]).
#[derive(Debug)]
pub struct PairLists<T, const L: usize> {
    /// Pairs per row.
    width: usize,
    heads: Vec<Links<L>>, // row * width + col
    tails: Vec<Links<L>>, // likewise; meaningful while the head is non-zero
    arenas: Vec<Arena<T>>,
    /// [`PairLists::audit`]'s per-slot marks, kept between audits so a
    /// debug build's audit at every epoch allocates nothing once warm.
    audit_marks: AuditMarks,
}

/// Scratch for [`PairLists::audit`], taken and put back by each audit.
#[derive(Default)]
struct AuditMarks(Cell<Vec<bool>>);

impl std::fmt::Debug for AuditMarks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AuditMarks")
    }
}

/// The rows of [`PairLists`] belonging to a contiguous range, with their
/// arenas. Rows and columns are table-wide ids; a row outside the window
/// is an out-of-bounds panic.
#[derive(Debug)]
pub struct Rows<'a, T, const L: usize> {
    start: usize,
    width: usize,
    heads: &'a mut [Links<L>],
    tails: &'a mut [Links<L>],
    arenas: &'a mut [Arena<T>],
}

/// Read-only view of one pair's lists.
#[derive(Debug, Clone, Copy)]
pub struct Pair<'a, T, const L: usize> {
    heads: Links<L>,
    slots: &'a [Slot<T>],
}

/// The head item of one list, borrowed for update; [`Front::pop`] unlinks
/// it without finding the list again.
#[derive(Debug)]
pub struct Front<'r, T> {
    head: &'r mut u32,
    arena: &'r mut Arena<T>,
}

impl<T: Copy, const L: usize> PairLists<T, L> {
    /// Bytes one queued item takes in its arena, link included.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// Empty lists for `rows × width` pairs.
    pub fn new(rows: usize, width: usize) -> Self {
        PairLists {
            width,
            heads: vec![[0; L]; rows * width],
            tails: vec![[0; L]; rows * width],
            arenas: (0..rows).map(|_| Arena::default()).collect(),
            audit_marks: AuditMarks::default(),
        }
    }

    /// Pairs per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The window over every row.
    pub fn all(&mut self) -> Rows<'_, T, L> {
        Rows {
            start: 0,
            width: self.width,
            heads: &mut self.heads,
            tails: &mut self.tails,
            arenas: &mut self.arenas,
        }
    }

    /// The lists of pair `(row, col)`.
    #[inline]
    pub fn pair(&self, row: usize, col: usize) -> Pair<'_, T, L> {
        Pair {
            heads: self.heads[row * self.width + col],
            slots: &self.arenas[row].slots,
        }
    }

    /// Slots `row`'s arena holds, queued and free together: the high-water
    /// count of items the row has had queued at once.
    pub fn slots_allocated(&self, row: usize) -> usize {
        self.arenas[row].slots.len()
    }

    /// Bytes the slots of `row`'s arena take, links included.
    pub fn arena_bytes(&self, row: usize) -> usize {
        std::mem::size_of_val(self.arenas[row].slots.as_slice())
    }

    /// Check `row`'s arena and lists against each other: panics unless
    /// each slot is on exactly one list or the free list and each tail
    /// names its list's last slot. What the items hold is the caller's to
    /// check, with [`Pair::iter`].
    pub fn audit(&self, row: usize) {
        let arena = &self.arenas[row];
        let mut seen = self.audit_marks.0.take();
        seen.clear();
        seen.resize(arena.slots.len(), false);
        let mut take = |link: u32| {
            let was = std::mem::replace(&mut seen[link as usize - 1], true);
            assert!(!was, "row {row}: slot {} is linked twice", link - 1);
            &arena.slots[link as usize - 1]
        };
        for col in 0..self.width {
            let pair = row * self.width + col;
            for list in 0..L {
                let (mut link, mut last) = (self.heads[pair][list], 0);
                while link != 0 {
                    (last, link) = (link, take(link).next);
                }
                assert!(
                    last == 0 || self.tails[pair][list] == last,
                    "({row}, {col}): list {list}'s tail is not its last slot"
                );
            }
        }
        let mut link = arena.free;
        while link != 0 {
            link = take(link).next;
        }
        assert!(
            seen.iter().all(|&s| s),
            "row {row}: a slot is on no list (leaked)"
        );
        self.audit_marks.0.set(seen);
    }
}

impl<'a, T: Copy, const L: usize> Rows<'a, T, L> {
    /// Split into the first `rows` rows and the rest.
    pub fn split_at(self, rows: usize) -> (Rows<'a, T, L>, Rows<'a, T, L>) {
        let pairs = rows * self.width;
        let (heads, heads_rest) = self.heads.split_at_mut(pairs);
        let (tails, tails_rest) = self.tails.split_at_mut(pairs);
        let (arenas, arenas_rest) = self.arenas.split_at_mut(rows);
        (
            Rows {
                heads,
                tails,
                arenas,
                ..self
            },
            Rows {
                start: self.start + rows,
                heads: heads_rest,
                tails: tails_rest,
                arenas: arenas_rest,
                ..self
            },
        )
    }

    /// Pairs per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Window-local index of pair `(row, col)`: where a per-pair table of
    /// the caller's own, split at the same rows, keeps the pair.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        (row - self.start) * self.width + col
    }

    /// Append `item` to `list` of pair `(row, col)`. True when the list
    /// was empty before — the moment it turns non-empty.
    #[inline]
    pub fn push_back(&mut self, row: usize, col: usize, list: usize, item: T) -> bool {
        let pair = self.index(row, col);
        let arena = &mut self.arenas[row - self.start];
        let link = arena.alloc(item);
        let was_empty = self.heads[pair][list] == 0;
        if was_empty {
            self.heads[pair][list] = link;
        } else {
            arena.slots[self.tails[pair][list] as usize - 1].next = link;
        }
        self.tails[pair][list] = link;
        was_empty
    }

    /// The head of `list` of pair `(row, col)`, for update, if the list
    /// holds anything.
    #[inline]
    pub fn front_mut(&mut self, row: usize, col: usize, list: usize) -> Option<Front<'_, T>> {
        let pair = self.index(row, col);
        let head = &mut self.heads[pair][list];
        if *head == 0 {
            return None;
        }
        Some(Front {
            head,
            arena: &mut self.arenas[row - self.start],
        })
    }

    /// Unlink and return the head of `list` of pair `(row, col)`.
    #[inline]
    pub fn pop_front(&mut self, row: usize, col: usize, list: usize) -> Option<T> {
        Some(self.front_mut(row, col, list)?.pop())
    }

    /// The lists of pair `(row, col)`.
    #[inline]
    pub fn pair(&self, row: usize, col: usize) -> Pair<'_, T, L> {
        Pair {
            heads: self.heads[self.index(row, col)],
            slots: &self.arenas[row - self.start].slots,
        }
    }
}

impl<T: Copy> Front<'_, T> {
    /// Unlink the item from its list and free its slot.
    #[inline]
    pub fn pop(self) -> T {
        let link = *self.head;
        let slot = &mut self.arena.slots[link as usize - 1];
        *self.head = slot.next;
        slot.next = self.arena.free;
        self.arena.free = link;
        slot.item
    }
}

impl<T> Deref for Front<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.arena.slots[*self.head as usize - 1].item
    }
}

impl<T> DerefMut for Front<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.arena.slots[*self.head as usize - 1].item
    }
}

impl<'a, T, const L: usize> Pair<'a, T, L> {
    /// The items of `list`, head first.
    pub fn iter(&self, list: usize) -> impl Iterator<Item = &'a T> + 'a {
        let (mut link, slots) = (self.heads[list], self.slots);
        std::iter::from_fn(move || {
            let slot = &slots[(link as usize).checked_sub(1)?];
            link = slot.next;
            Some(&slot.item)
        })
    }

    /// The head of `list`, if the list holds anything.
    pub fn front(&self, list: usize) -> Option<&'a T> {
        self.iter(list).next()
    }

    /// The first list that holds anything.
    #[inline]
    pub fn first_nonempty(&self) -> Option<usize> {
        self.heads.iter().position(|&head| head != 0)
    }

    /// Nothing on any list?
    pub fn is_empty(&self) -> bool {
        self.heads == [0; L]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_fifo_and_share_their_rows_arena() {
        let mut lists = PairLists::<u64, 2>::new(2, 3);
        let mut rows = lists.all();
        assert!(rows.push_back(0, 1, 0, 10));
        assert!(!rows.push_back(0, 1, 0, 11));
        assert!(rows.push_back(0, 2, 1, 20));
        assert_eq!(rows.pop_front(0, 1, 0), Some(10));
        // The freed slot is reused by another pair of the row.
        assert!(rows.push_back(0, 0, 1, 30));
        let mut head = rows.front_mut(0, 1, 0).unwrap();
        *head += 1;
        assert_eq!(head.pop(), 12);
        assert!(rows.front_mut(0, 1, 0).is_none());
        assert_eq!(rows.pair(0, 2).first_nonempty(), Some(1));
        assert_eq!(lists.slots_allocated(0), 3);
        assert_eq!(lists.slots_allocated(1), 0);
        assert!(lists.pair(0, 1).is_empty());
        assert_eq!(lists.pair(0, 0).front(1), Some(&30));
        lists.audit(0);
    }

    #[test]
    fn a_window_owns_its_rows_and_arenas() {
        let mut lists = PairLists::<u32, 1>::new(4, 4);
        {
            let (mut low, high) = lists.all().split_at(1);
            low.push_back(0, 3, 0, 1);
            let (mut mid, mut last) = high.split_at(2);
            assert_eq!((mid.index(2, 1), last.index(3, 1)), (5, 1));
            mid.push_back(1, 0, 0, 2);
            last.push_back(3, 2, 0, 3);
            assert_eq!(last.pop_front(3, 2, 0), Some(3));
        }
        assert_eq!(lists.pair(0, 3).iter(0).collect::<Vec<_>>(), [&1]);
        assert_eq!(lists.pair(1, 0).front(0), Some(&2));
        assert!(lists.pair(3, 2).is_empty());
        assert_eq!(lists.slots_allocated(2), 0);
        for row in 0..4 {
            lists.audit(row);
        }
    }

    #[test]
    #[should_panic(expected = "on no list")]
    fn audit_finds_a_leaked_slot() {
        let mut lists = PairLists::<u8, 1>::new(1, 1);
        lists.all().push_back(0, 0, 0, 1);
        lists.heads[0][0] = 0;
        lists.audit(0);
    }
}
