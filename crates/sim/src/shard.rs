//! Deterministic intra-run sharding: contiguous row partitions plus a
//! scoped fork/join helper for the negotiator engine's predefined phase.
//!
//! [`pool`](crate::pool) parallelizes *across* independent runs; this
//! module shards *within* one run. A sharded phase has a single body
//! written over a window of rows; the shard count only decides how many
//! windows there are. The contract that keeps a run byte-identical at any count
//! is structural, not statistical:
//!
//! * [`partition`] splits `n` rows (ToRs) into at most `workers`
//!   contiguous shards. Shard boundaries depend on the worker count,
//!   but no output may ever depend on *where* the boundaries fall —
//!   only on the row order, which is the same at any count.
//! * [`map_shards`] runs one closure per shard and returns the results
//!   **in shard order**. One shard — the default — runs inline on the
//!   caller's thread, with no thread, no join, nothing to merge and,
//!   since the windows are handed out as they are taken, no allocation;
//!   several run on scoped threads (panics are propagated, lowest shard
//!   first, like `pool::run_ordered`). Callers merge per-shard outputs
//!   by concatenation or ordered replay, which makes the merged stream
//!   identical to what the single shard produces.
//! * [`split_rows`] hands each shard a disjoint `&mut` view of a
//!   row-major state array, so the type system rules out cross-shard
//!   writes instead of a convention doing so.
//!
//! Together with `sim::pool` this is the workspace's only sanctioned
//! threading zone (lint rule D003).

/// One contiguous row range `[start, end)` of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row (exclusive).
    pub end: usize,
}

impl Shard {
    /// Rows in this shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the shard covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `n` rows into `min(workers, n)` contiguous shards whose sizes
/// differ by at most one (earlier shards take the remainder). Returns an
/// empty vector for `n == 0`.
pub fn partition(n: usize, workers: usize) -> Vec<Shard> {
    if n == 0 {
        return Vec::new();
    }
    let k = workers.clamp(1, n);
    let base = n / k;
    let rem = n % k;
    let mut shards = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        shards.push(Shard {
            start,
            end: start + len,
        });
        start += len;
    }
    shards
}

/// Split a row-major array (`row_len` items per row) into per-shard
/// mutable windows, one per entry of `shards`, in shard order. The
/// windows are disjoint by construction; the caller keeps no access to
/// `slice` while they live, so each shard may mutate its rows freely.
/// The windows are handed out as they are asked for, so splitting
/// allocates nothing.
///
/// Panics if the shards do not cover `slice` exactly, or (as the windows
/// are taken) are not contiguous ascending — partitions from
/// [`partition`] always are both.
pub fn split_rows<'a, T>(
    slice: &'a mut [T],
    row_len: usize,
    shards: &'a [Shard],
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    let rows = shards.last().map_or(0, |s| s.end);
    assert_eq!(
        rows * row_len,
        slice.len(),
        "shards must cover the whole slice"
    );
    shards.iter().scan((slice, 0), move |(rest, row), s| {
        assert_eq!(s.start, *row, "shards must be contiguous ascending");
        let (head, tail) = std::mem::take(rest).split_at_mut(s.len() * row_len);
        *rest = tail;
        *row = s.end;
        Some(head)
    })
}

/// Run `f` once per shard context on scoped worker threads and return
/// the results in context order. `f` receives `(shard_index, context)`.
///
/// With one context everything runs inline on the caller's thread — "1
/// worker" is this same entry point, not a separate code path at call
/// sites — and nothing is allocated beyond what the results need (none
/// for `()`). A panicking shard is re-raised on the caller, lowest shard
/// index first, after every sibling finished (no detached threads).
pub fn map_shards<I, T, F>(ctxs: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
{
    let mut ctxs = ctxs.into_iter();
    let Some(first) = ctxs.next() else {
        return Vec::new();
    };
    let Some(second) = ctxs.next() else {
        return vec![f(0, first)];
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .chain(ctxs)
            .enumerate()
            .map(|(i, c)| {
                let f = &f;
                scope.spawn(move || f(i, c))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_rows_contiguously() {
        for n in [0usize, 1, 2, 7, 16, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let shards = partition(n, workers);
                if n == 0 {
                    assert!(shards.is_empty());
                    continue;
                }
                assert_eq!(shards.len(), workers.min(n));
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards.last().unwrap().end, n);
                for w in shards.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[1].is_empty());
                }
                let sizes: Vec<_> = shards.iter().map(Shard::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn split_rows_is_disjoint_and_complete() {
        let mut data: Vec<u32> = (0..24).collect();
        let shards = partition(6, 4); // 6 rows of 4 items
        let views: Vec<_> = split_rows(&mut data, 4, &shards).collect();
        assert_eq!(views.len(), shards.len());
        let mut flat = Vec::new();
        for (view, s) in views.into_iter().zip(&shards) {
            assert_eq!(view.len(), s.len() * 4);
            view[0] += 0; // prove mutability
            flat.extend_from_slice(view);
        }
        assert_eq!(flat, (0..24).collect::<Vec<u32>>());
    }

    #[test]
    fn map_shards_returns_results_in_shard_order() {
        let ctxs: Vec<usize> = (0..8).collect();
        let out = map_shards(ctxs, |i, c| {
            assert_eq!(i, c);
            c * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn map_shards_single_context_runs_inline() {
        let out = map_shards(vec![41], |i, c| {
            assert_eq!(i, 0);
            c + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn map_shards_mutates_disjoint_windows() {
        let mut data = vec![0u64; 12];
        let shards = partition(12, 3);
        let views = split_rows(&mut data, 1, &shards);
        let ctxs: Vec<_> = views.into_iter().zip(shards.clone()).collect();
        map_shards(ctxs, |_, (view, s)| {
            for (i, v) in view.iter_mut().enumerate() {
                *v = (s.start + i) as u64;
            }
        });
        assert_eq!(data, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn map_shards_propagates_the_lowest_shard_panic() {
        let caught = std::panic::catch_unwind(|| {
            map_shards(vec![0, 1, 2], |i, _| {
                if i >= 1 {
                    panic!("shard {i} failed");
                }
                i
            })
        });
        let msg = *caught
            .expect_err("must propagate")
            .downcast::<String>()
            .expect("panic payload");
        assert_eq!(msg, "shard 1 failed");
    }
}
