//! Shard partitioning for in-run parallelism.
//!
//! A *shard* is a contiguous slice of the simulated cluster (servers plus
//! their node managers) that one worker can advance independently between
//! epoch barriers. This module owns the two pieces every layer agrees on:
//! the partitioning rule (contiguous, near-even, deterministic in the item
//! count and shard count alone) and the `PERFCLOUD_SHARDS` environment
//! convention. Everything behavioral — what runs inside a shard, where the
//! barriers sit — lives with the experiment loop in `cluster`.
//!
//! Contiguity is load-bearing: concatenating per-shard results in shard
//! order then equals global index order, which is how the sharded
//! experiment keeps `DecisionTrace` bytes identical at any shard count.

use std::ops::Range;

/// Environment variable selecting the in-run shard count. Composes with
/// `PERFCLOUD_THREADS`, which parallelizes *across* sweep points.
pub const SHARDS_ENV: &str = "PERFCLOUD_SHARDS";

/// Splits `n` items into `shards` contiguous ranges whose lengths differ by
/// at most one, in index order. `shards` is clamped to at least 1; with
/// more shards than items the tail ranges are empty.
///
/// The rule is the standard balanced split: shard `s` covers
/// `[s*n/S, (s+1)*n/S)`. It depends only on `(n, shards)`, so every layer
/// (experiment loop, benches, tests) derives the identical partition.
pub fn partition(n: usize, shards: usize) -> Vec<Range<usize>> {
    let s = shards.max(1);
    (0..s).map(|k| (k * n / s)..((k + 1) * n / s)).collect()
}

/// Reads [`SHARDS_ENV`], falling back to `default` when unset, empty, or
/// unparsable. A parsed 0 also falls back: zero shards is meaningless.
pub fn shards_from_env(default: usize) -> usize {
    match std::env::var(SHARDS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default,
        },
        Err(_) => default,
    }
}

/// Splits one mutable slice into per-shard sub-slices matching `ranges`
/// (as produced by [`partition`]: contiguous, ascending, covering the
/// slice). The disjoint `&mut` slices are what lets scoped worker threads
/// advance shards concurrently without locks.
pub fn split_mut<'a, T>(items: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = items;
    let mut offset = 0;
    for r in ranges {
        debug_assert_eq!(r.start, offset, "ranges must be contiguous from 0");
        let (head, tail) = rest.split_at_mut(r.end - offset);
        out.push(head);
        rest = tail;
        offset = r.end;
    }
    debug_assert!(rest.is_empty(), "ranges must cover the whole slice");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        for n in [0usize, 1, 7, 15, 100, 1001] {
            for s in [1usize, 2, 3, 4, 7, 16] {
                let ranges = partition(n, s);
                assert_eq!(ranges.len(), s);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[s - 1].end, n);
                let mut prev_end = 0;
                let (mut min_len, mut max_len) = (usize::MAX, 0);
                for r in &ranges {
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    min_len = min_len.min(r.len());
                    max_len = max_len.max(r.len());
                }
                assert!(max_len - min_len <= 1, "n={n} s={s}: {min_len}..{max_len}");
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(partition(5, 0), vec![0..5]);
    }

    #[test]
    fn split_mut_matches_ranges() {
        let mut v: Vec<u32> = (0..10).collect();
        let ranges = partition(v.len(), 3);
        let parts = split_mut(&mut v, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[0, 1, 2]);
        assert_eq!(parts[1], &[3, 4, 5]);
        assert_eq!(parts[2], &[6, 7, 8, 9]);
    }

    #[test]
    fn split_mut_handles_empty_ranges() {
        let mut v = [1u8, 2];
        let ranges = partition(v.len(), 4);
        let parts = split_mut(&mut v, &ranges);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 2);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 2);
    }
}
