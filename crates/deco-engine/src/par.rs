//! Deterministic data-parallel helpers over contiguous node ranges.
//!
//! The engine's parallelism is intentionally simple: nodes are split into
//! contiguous ranges balanced by degree sum, and each phase (send, receive)
//! runs the ranges through `fan_out` — the first on the calling thread,
//! each other one on its own scoped thread — with mutable access only to
//! that range's disjoint slices. Because the partition is a pure function
//! of the graph and thread count, and because the phases are separated by
//! the join (a full barrier), the execution is deterministic and
//! observationally identical to the serial loop for *any* thread count —
//! parallelism never changes outputs, round counts, or message counts,
//! only wall-clock time.
//!
//! How many threads a phase gets is one rule, `thread_count`: work below
//! [`MIN_PARALLEL_SLOTS`] runs on one thread whatever was requested, and a
//! request above it is a cap, not a force.
//!
//! Implemented on `std::thread::scope` rather than `rayon`: the build
//! environment has no registry access, and scoped threads cover everything
//! a barrier-synchronized round engine needs. Should `rayon` become
//! available, only this module would change.
//!
//! ```
//! use deco_engine::par::split_by_weight;
//!
//! // Four nodes with skewed degrees, two workers: the heavy head is
//! // isolated and the tail is spread over the remaining parts.
//! let ranges = split_by_weight(&[100, 1, 1, 1], 2);
//! assert_eq!(ranges, vec![0..1, 1..4]);
//! // The same inputs always produce the same partition — that is what
//! // makes thread count observationally invisible.
//! assert_eq!(ranges, split_by_weight(&[100, 1, 1, 1], 2));
//! ```

use std::ops::Range;

/// Work below which the phase-parallel engine runs on one thread, whatever
/// thread count was requested. Work is counted in ports (`2m`) for a
/// network and in summed branch weights for a branch batch. Below it,
/// spawning and joining a phase's threads costs more than the phase's
/// work, and the Theorem 4.1 recursion runs dozens of such small
/// executions per solve. Outputs are identical on either side.
///
/// The value 4096 was inherited from the auto (hardware-parallelism) mode
/// and has not been measured as a crossover for explicit thread counts.
/// For branch weights the unit is sub-instance edges, and no measured solve
/// comes near it: with the default config the largest Lemma 4.2 wave batch
/// sums to between 25 sub-instance edges (regular(100,8)) and 508
/// (regular(2000,12)) over regular(100,8), regular(512,16),
/// regular(2000,12), kronecker(10,8) and kronecker(12,8). So
/// `execute_branches` runs inline on every solve measured; only the
/// engine's unit tests, with weights scaled ×128, reach its threaded path.
pub const MIN_PARALLEL_SLOTS: usize = 4096;

/// The phase-parallel engine's thread-count rule: the threads that a
/// request for `requested` threads (0 = hardware parallelism) gets on
/// `work` units spread over `items` nodes or branches. Work below
/// [`MIN_PARALLEL_SLOTS`] gets one thread; otherwise the request, capped at
/// one thread per item. The result only changes wall time.
pub(crate) fn thread_count(requested: usize, work: usize, items: usize) -> usize {
    if work < MIN_PARALLEL_SLOTS {
        return 1;
    }
    let cap = match requested {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    cap.min(items.max(1))
}

/// Runs `f` on every part and returns the results in part order. The first
/// part runs on the calling thread and each further part on its own scoped
/// thread, so `k` parts cost `k − 1` spawns; a single part runs inline
/// without a scope. A panic in any part is re-raised on the caller with its
/// original payload once every part has stopped.
pub(crate) fn fan_out<I, R, F>(parts: impl IntoIterator<Item = I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let mut rest = parts.peekable();
    if rest.peek().is_none() {
        return vec![f(first)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = rest.map(|part| scope.spawn(move || f(part))).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(f(first));
        for handle in handles {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        results
    })
}

/// Splits `0..weights.len()` into at most `parts` contiguous ranges whose
/// weight sums are approximately balanced. The per-range target is
/// recomputed from the *remaining* weight each time a range closes: a heavy
/// head that blows far past the initial `ceil(total/parts)` therefore does
/// not starve the tail — the leftover items are still spread evenly over
/// the leftover parts. Empty ranges are never produced; fewer than `parts`
/// ranges are returned when items run out.
///
/// Deterministic: depends only on `weights` and `parts`.
pub fn split_by_weight(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    let parts = parts.max(1);
    if n == 0 {
        return Vec::new();
    }
    if parts == 1 {
        return std::iter::once(0..n).collect();
    }
    // +n: count each item once so zero-weight nodes still spread out.
    let mut remaining: usize = weights.iter().sum::<usize>() + n;
    let mut target = remaining.div_ceil(parts);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        acc += w + 1;
        let remaining_parts = parts - ranges.len();
        let is_last_part = remaining_parts == 1;
        if !is_last_part && acc >= target {
            ranges.push(start..i + 1);
            start = i + 1;
            remaining -= acc.min(remaining);
            acc = 0;
            target = remaining.div_ceil(remaining_parts - 1);
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// Splits `slice` into consecutive chunks sized by `ranges` (which must
/// tile `0..slice.len()` in order) and returns them as independent `&mut`
/// slices, enabling one thread per chunk.
///
/// # Panics
///
/// Panics if the ranges are not consecutive starting at 0.
pub fn split_mut_by_ranges<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        assert_eq!(
            r.start, consumed,
            "ranges must tile the slice consecutively"
        );
        let (head, tail) = slice.split_at_mut(r.end - r.start);
        out.push(head);
        slice = tail;
        consumed = r.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_rule_table() {
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let below = MIN_PARALLEL_SLOTS - 1;
        let at = MIN_PARALLEL_SLOTS;
        // (requested, work, items) → threads; requested 0 = auto.
        let table = [
            // Below the threshold: one thread for auto and every request.
            ((0, 0, 100), 1),
            ((0, below, 100), 1),
            ((1, below, 100), 1),
            ((2, below, 100), 1),
            ((4, below, 100), 1),
            ((64, below, 100), 1),
            // At or above it: min(request, items).
            ((1, at, 100), 1),
            ((2, at, 100), 2),
            ((4, 10 * at, 100), 4),
            ((64, at, 100), 64),
            ((8, at, 3), 3),
            ((8, at, 0), 1),
            // Auto: hardware parallelism, capped at the items.
            ((0, at, 100), hw.min(100)),
            ((0, at, 1), 1),
        ];
        for ((requested, work, items), want) in table {
            assert_eq!(
                thread_count(requested, work, items),
                want,
                "requested={requested} work={work} items={items}"
            );
        }
    }

    #[test]
    fn fan_out_runs_the_first_part_inline_and_keeps_part_order() {
        let caller = std::thread::current().id();
        let out = fan_out(0..4, |i| (i, std::thread::current().id()));
        assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(out[0].1, caller, "part 0 runs on the calling thread");
        assert!(out[1..].iter().all(|r| r.1 != caller), "{out:?}");

        assert_eq!(
            fan_out([7], |i| (i, std::thread::current().id())),
            [(7, caller)]
        );
        assert!(fan_out(std::iter::empty::<usize>(), |i| i).is_empty());
    }

    #[test]
    fn fan_out_reraises_the_original_panic() {
        let payload = std::panic::catch_unwind(|| {
            fan_out(0..3, |i| {
                assert_ne!(i, 2, "part two failed");
                i
            })
        })
        .expect_err("the panic of part 2 reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("part two failed"), "got: {msg}");
    }

    #[test]
    fn split_tiles_the_index_space() {
        for (n, parts) in [(0usize, 4usize), (1, 4), (5, 2), (100, 7), (8, 16), (64, 1)] {
            let weights = vec![3usize; n];
            let ranges = split_by_weight(&weights, parts);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start, "no empty ranges");
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover 0..n");
            assert!(ranges.len() <= parts.max(1));
        }
    }

    #[test]
    fn split_balances_skewed_weights() {
        // One heavy node at the front must not drag everything into part 0.
        let mut weights = vec![1usize; 99];
        weights.insert(0, 1000);
        let ranges = split_by_weight(&weights, 4);
        assert!(ranges.len() >= 2, "skewed weights still split: {ranges:?}");
        assert_eq!(ranges[0], 0..1, "heavy head isolated");
    }

    #[test]
    fn split_rebalances_tail_after_heavy_head() {
        // Regression: with a fixed target computed once from the total, a
        // heavy head consumed most of the budget in range 0 and the entire
        // tail collapsed into one final range holding far more than
        // total/parts. The target must re-adapt to the remaining weight.
        let mut weights = vec![1usize; 99];
        weights.insert(0, 10_000);
        let ranges = split_by_weight(&weights, 4);
        assert_eq!(ranges.len(), 4, "tail must still split: {ranges:?}");
        assert_eq!(ranges[0], 0..1, "heavy head isolated");
        for r in &ranges[1..] {
            let size = r.end - r.start;
            assert!(
                (30..=36).contains(&size),
                "tail ranges must share the 99 unit items evenly: {ranges:?}"
            );
        }
    }

    #[test]
    fn split_handles_degenerate_inputs() {
        // Empty weight slice: no ranges (and no panic) — the branch
        // fan-out leans on this for empty batches.
        assert!(split_by_weight(&[], 1).is_empty());
        assert!(split_by_weight(&[], 8).is_empty());

        // A single item, however heavy, yields exactly one range no matter
        // how many parts were requested.
        assert_eq!(split_by_weight(&[10_000], 6), vec![0..1]);

        // More parts than items: one range per item at most, never empty.
        let ranges = split_by_weight(&[2, 2, 2], 16);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);

        // All-zero weights still spread by item count (the +1 per item).
        let ranges = split_by_weight(&[0; 10], 5);
        assert_eq!(ranges.len(), 5);
        assert!(ranges.iter().all(|r| r.len() == 2));

        // Zero parts degrades to one.
        assert_eq!(split_by_weight(&[1, 1], 0), vec![0..2]);
    }

    #[test]
    fn split_is_deterministic() {
        let weights: Vec<usize> = (0..500).map(|i| (i * 37) % 23).collect();
        assert_eq!(split_by_weight(&weights, 8), split_by_weight(&weights, 8));
    }

    #[test]
    fn split_mut_hands_out_disjoint_chunks() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = vec![0..3, 3..7, 7..10];
        let chunks = split_mut_by_ranges(&mut data, &ranges);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert_eq!(chunks[2], &[7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "consecutively")]
    fn split_mut_rejects_gaps() {
        let mut data = [0u8; 5];
        let _ = split_mut_by_ranges(&mut data, &[0..2, 3..5]);
    }
}
