//! The one sharded run loop.
//!
//! Every parallel loop over a range of independent units — queries, RRL
//! window chunks, vantage points, planner candidates — partitions `0..n`
//! the same way, runs one closure per shard on a thread of its own, and
//! hands the results back in shard-id order, so a fold over them cannot
//! depend on which thread finished first. Callers keep their determinism
//! by deriving every per-unit decision from the unit's global index.
//!
//! Shard `t` of `k` owns `[t·per, min((t+1)·per, n))` with
//! `per = ⌈n/k⌉`: trailing shards are empty when `k` does not divide
//! into `n` evenly (or exceeds it), and their closures still run.

use std::ops::Range;

/// The `k` contiguous ranges `0..n` is cut into (`k = 0` counts as 1).
pub fn ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    let per = n.div_ceil(k);
    (0..k)
        .map(|t| (t * per).min(n)..((t + 1) * per).min(n))
        .collect()
}

/// Cut `slice` along [`ranges`]`(slice.len(), k)`: per-shard output a
/// worker writes in place instead of returning it for concatenation.
pub fn split_mut<T>(slice: &mut [T], k: usize) -> Vec<&mut [T]> {
    let lens = ranges(slice.len(), k).into_iter().map(|r| r.len());
    split_lens(slice, lens)
}

/// [`split_mut`] for shards whose units produce unequal amounts of
/// output: consecutive parts of the given lengths, which must fit.
pub fn split_lens<T>(mut slice: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(len);
            slice = tail;
            head
        })
        .collect()
}

/// Run `work(range, input)` once per shard — one shard per element of
/// `inputs`, which each closure call owns (a `&mut` slice from
/// [`split_mut`], a state map, or `()`) — and return the results in
/// shard-id order. Every shard gets a spawned thread, a single one
/// included: work measured on the caller's thread would see the caller's
/// heap layout rather than a worker's. A panicking worker's panic is
/// resumed on the caller once the other workers have been joined.
pub fn run_with<I, T, F>(n: usize, inputs: Vec<I>, work: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(Range<usize>, I) -> T + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges(n, inputs.len())
            .into_iter()
            .zip(inputs)
            .map(|(range, input)| scope.spawn(move || work(range, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// [`run_with`] for shards that need no input of their own.
pub fn run<T, F>(n: usize, k: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_with(n, vec![(); k.max(1)], |range, ()| work(range))
}

/// A per-shard accumulator that absorbs the next shard's.
pub trait Merge {
    fn merge(&mut self, other: Self);
}

impl<T> Merge for Vec<T> {
    /// Concatenation: shard order is unit order.
    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

/// Fold per-shard results in the order given — shard-id order when they
/// come from [`run`] / [`run_with`].
pub fn fold<T: Merge>(parts: Vec<T>) -> T {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("a sharded run has at least one shard");
    for part in parts {
        acc.merge(part);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn ranges_cover_every_unit_exactly_once() {
        for k in 1..=9usize {
            for n in [0, 1, k - 1, k, k + 1, 10 * k + 3] {
                let parts = ranges(n, k);
                assert_eq!(parts.len(), k, "n={n} k={k}");
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next, "n={n} k={k}: gap or overlap");
                    assert!(r.end >= r.start && r.end <= n);
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} k={k}: tail not covered");
                let per = n.div_ceil(k);
                assert!(parts.iter().all(|r| r.len() <= per));
            }
        }
        assert_eq!(ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn split_mut_follows_the_ranges() {
        let mut data: Vec<usize> = (0..23).collect();
        let parts = split_mut(&mut data, 4);
        let expect = ranges(23, 4);
        assert_eq!(parts.len(), 4);
        for (part, r) in parts.iter().zip(expect) {
            assert_eq!(part.to_vec(), r.collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_arrive_in_shard_order_when_shards_finish_in_reverse() {
        let k = 6;
        // Shard `t` may only finish once shards `t+1..k` have: `turn`
        // counts down from the last shard.
        let turn = (Mutex::new(k), Condvar::new());
        let finished = Mutex::new(Vec::new());
        let out = run(60, k, |range| {
            let t = range.start / 10;
            let mut next = turn.0.lock().unwrap();
            while *next != t + 1 {
                next = turn.1.wait(next).unwrap();
            }
            finished.lock().unwrap().push(t);
            *next = t;
            turn.1.notify_all();
            (t, range)
        });
        assert_eq!(finished.into_inner().unwrap(), vec![5, 4, 3, 2, 1, 0]);
        let expect: Vec<_> = ranges(60, k).into_iter().enumerate().collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_single_shard_still_runs_on_a_spawned_thread() {
        let caller = std::thread::current().id();
        let ids = run(3, 1, |_| std::thread::current().id());
        assert_eq!(ids.len(), 1);
        assert_ne!(ids[0], caller);
    }

    #[test]
    fn inputs_are_owned_per_shard_and_fold_concatenates_in_order() {
        let mut squares = vec![0usize; 11];
        let parts = split_mut(&mut squares, 3);
        let seen = fold(run_with(11, parts, |range, out| {
            for (slot, g) in out.iter_mut().zip(range.clone()) {
                *slot = g * g;
            }
            range.collect::<Vec<_>>()
        }));
        assert_eq!(seen, (0..11).collect::<Vec<_>>());
        assert_eq!(squares, (0..11).map(|g| g * g).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn a_worker_panic_propagates_to_the_caller() {
        run(40, 4, |range| {
            if range.start == 20 {
                panic!("shard 2 failed");
            }
            range.len()
        });
    }
}
