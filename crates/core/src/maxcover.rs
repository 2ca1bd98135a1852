//! Greedy maximum coverage over RR-set collections (step 2 of RIS/WRIS).
//!
//! Given θ sampled RR sets, the seed set is built by repeatedly taking the
//! node contained in the most not-yet-covered sets — the classic
//! `(1 − 1/e)` greedy for maximum coverage \[22\]. Two implementations:
//!
//! * [`greedy_max_cover_naive`] recounts every node each iteration —
//!   obviously correct, used as the test oracle;
//! * [`greedy_max_cover`] is the production lazy variant (CELF-style):
//!   marginal gains only ever shrink (submodularity), so a stale
//!   priority-queue entry whose recomputed gain still tops the queue is
//!   safe to take.
//!
//! Both use identical tie-breaking — larger gain first, then smaller node
//! id — so their outputs are *bit-identical*, a property the IRR ≡ RR
//! equivalence tests (Theorem 3) rely on.
//!
//! The lazy variant additionally supports **parallel marginal-gain
//! recounts** ([`greedy_max_cover_with`]): when the queue's top entry is
//! stale, a batch of stale entries is refreshed concurrently on a
//! [`kbtim_exec::ExecPool`]. Refreshing replaces upper bounds with exact
//! current gains, and the accepted seed is always the `(max gain, min
//! id)` argmax, so the selected sequence is independent of the batch
//! schedule — and therefore of the thread count.

use crate::bitset::Bitset;
use crate::invindex::InvertedIndex;
use kbtim_exec::ExecPool;
use kbtim_graph::NodeId;
use kbtim_propagation::RrBatch;
use std::collections::HashMap;

/// Result of a greedy maximum-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCoverResult {
    /// Selected seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// Marginal number of sets newly covered by each seed (same order as
    /// `seeds`); strictly positive and non-increasing.
    pub marginal_gains: Vec<u64>,
    /// Total number of covered sets (= sum of `marginal_gains`).
    pub covered: u64,
}

/// Lazy (CELF-style) greedy maximum coverage, single-threaded.
///
/// Selects up to `k` nodes; stops early when no node covers any uncovered
/// set (zero-gain seeds are never emitted).
pub fn greedy_max_cover(sets: &[Vec<NodeId>], k: u32) -> MaxCoverResult {
    greedy_max_cover_with(sets, k, &ExecPool::sequential())
}

/// [`greedy_max_cover`] with parallel marginal-gain recounts on `pool`.
///
/// The result is bit-identical for every thread count.
pub fn greedy_max_cover_with(sets: &[Vec<NodeId>], k: u32, pool: &ExecPool) -> MaxCoverResult {
    greedy_max_cover_inverted_with(&InvertedIndex::from_sets(sets), sets.len() as u64, k, pool)
}

/// Greedy maximum coverage straight off an [`RrBatch`] arena — the entry
/// point for the sampling paths (WRIS / RIS / OPT estimation): counting-
/// sort inversion into a CSR [`InvertedIndex`], then the bitset CELF
/// loop. No per-set or per-node heap allocation anywhere.
pub fn greedy_max_cover_batch(batch: &RrBatch, k: u32, pool: &ExecPool) -> MaxCoverResult {
    greedy_max_cover_inverted_with(&InvertedIndex::from_batch(batch), batch.len() as u64, k, pool)
}

/// Lazy greedy maximum coverage over a pre-inverted CSR instance with set
/// indices in `0..num_sets`.
///
/// This is the entry point used by the disk indexes, whose inverted lists
/// (`L_w`) are stored explicitly; [`greedy_max_cover`] delegates here, so
/// selection and tie-breaking are shared by construction.
pub fn greedy_max_cover_inverted(
    inverted: &InvertedIndex,
    num_sets: u64,
    k: u32,
) -> MaxCoverResult {
    greedy_max_cover_inverted_with(inverted, num_sets, k, &ExecPool::sequential())
}

/// [`greedy_max_cover_inverted`] with parallel marginal-gain recounts.
///
/// Heap keys are upper bounds on true gains (submodularity). A node is
/// accepted only when its freshly recomputed gain still equals the top
/// key, i.e. when it is the `(max gain, min id)` argmax over all
/// candidates — a property of the *instance*, not of the refresh
/// schedule. The parallel path merely refreshes a batch of stale keys to
/// their exact values concurrently, so any thread count selects the same
/// seed sequence.
///
/// Coverage marks live in a [`Bitset`] (one bit per set). The loop runs
/// over *positions* in the compact instance's `present` list — heap
/// entries, selected marks and recounts are all indexed by position, so
/// no per-run state is sized by the node-id space — and each accepted
/// seed maps back to its node id through `present`. Positions ascend with node ids, so the
/// `(gain desc, position asc)` heap order is exactly `(gain desc, id
/// asc)`.
pub fn greedy_max_cover_inverted_with(
    inverted: &InvertedIndex,
    num_sets: u64,
    k: u32,
    pool: &ExecPool,
) -> MaxCoverResult {
    greedy_max_cover_inverted_until(inverted, num_sets, k, pool, &|| false)
        .expect("greedy with a never-firing stop cannot abort")
}

/// [`greedy_max_cover_inverted_with`] with a cooperative stop hook for
/// the serving tier's per-request deadlines.
///
/// `should_stop` is polled once per loop round (each heap pop — at least
/// once per selected seed); when it returns `true` the run aborts and
/// `None` comes back, leaving no partial result to mistake for an
/// answer. The hook must be cheap (a clock read) and pure — it cannot
/// influence the selection itself, so every *completed* run is still
/// bit-identical to [`greedy_max_cover_inverted_with`] for any thread
/// count.
pub fn greedy_max_cover_inverted_until(
    inverted: &InvertedIndex,
    num_sets: u64,
    k: u32,
    pool: &ExecPool,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> Option<MaxCoverResult> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut covered = Bitset::new(num_sets as usize);

    // Heap of (gain, Reverse(position)): max gain first, then min
    // position — which is min node id, since `present` ascends.
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = (0..inverted.len())
        .map(|pos| (inverted.list_at(pos).len() as u64, Reverse(pos as u32)))
        .collect();

    let mut result = MaxCoverResult { seeds: Vec::new(), marginal_gains: Vec::new(), covered: 0 };
    let mut selected = vec![false; inverted.len()];
    // Entries refreshed concurrently per stale top: large enough to
    // amortize a fork/join, small enough not to waste recounts near the
    // end of a run. Constant (not thread-derived) so work sizing never
    // depends on the pool.
    const REFRESH_BATCH: usize = 64;
    // Below this many scanned list entries a refresh runs inline: the
    // pool's scoped fork/join (tens to hundreds of µs) must be dwarfed by
    // the linear scans it parallelizes, which needs refresh work in the
    // hundreds of thousands of entries. Either path computes the same
    // exact gains, so the choice cannot affect the selected seeds.
    const PARALLEL_REFRESH_MIN_WORK: usize = 1 << 18;

    // Set ids within a list are sorted but land on arbitrary bitset
    // words, so the probe below misses cache on large θ; prefetching a
    // fixed distance ahead overlaps those misses with the current
    // probes. The hint is advisory — gains are unchanged for any
    // look-ahead.
    let recount = |pos: u32, covered: &Bitset| -> u64 {
        let list = inverted.list_at(pos as usize);
        let mut gain = 0u64;
        for (i, &s) in list.iter().enumerate() {
            if let Some(&ahead) = list.get(i + crate::prefetch::COVER_SCAN_AHEAD) {
                covered.prefetch(ahead as usize);
            }
            gain += u64::from(!covered.get(s as usize));
        }
        gain
    };

    while (result.seeds.len() as u32) < k {
        if should_stop() {
            return None;
        }
        let Some(&(stale_gain, Reverse(pos))) = heap.peek() else { break };
        if stale_gain == 0 {
            break;
        }
        heap.pop();
        if selected[pos as usize] {
            continue;
        }
        // Recompute the true current gain.
        let gain = recount(pos, &covered);
        if gain == stale_gain {
            // Fresh enough: gains are monotone non-increasing, so nothing
            // else in the heap can beat it; equal-gain entries with smaller
            // node ids would have been popped first (heap orders by
            // Reverse(position) on ties).
            result.seeds.push(inverted.present()[pos as usize]);
            result.marginal_gains.push(gain);
            result.covered += gain;
            selected[pos as usize] = true;
            for &s in inverted.list_at(pos as usize) {
                covered.set(s as usize);
            }
        } else if pool.threads() <= 1 {
            heap.push((gain, Reverse(pos)));
        } else {
            // Stale top: refresh a whole batch of potentially-stale keys in
            // parallel while we are at it. Only keys above the refreshed
            // top can shadow it, so refreshing them now saves one
            // pop-recount-push round trip each. The initiating node's
            // exact gain is already in hand — only the others recount.
            heap.push((gain, Reverse(pos)));
            let mut batch: Vec<u32> = Vec::new();
            while batch.len() + 1 < REFRESH_BATCH {
                match heap.peek() {
                    Some(&(g, Reverse(p))) if g > gain => {
                        heap.pop();
                        if !selected[p as usize] {
                            batch.push(p);
                        }
                    }
                    _ => break,
                }
            }
            let work: usize = batch.iter().map(|&p| inverted.list_at(p as usize).len()).sum();
            let fresh: Vec<u64> = if work < PARALLEL_REFRESH_MIN_WORK {
                batch.iter().map(|&p| recount(p, &covered)).collect()
            } else {
                let covered = &covered;
                pool.map_shards(batch.len(), |i| recount(batch[i], covered))
            };
            for (p, g) in batch.into_iter().zip(fresh) {
                heap.push((g, Reverse(p)));
            }
        }
    }
    Some(result)
}

/// Reference implementation: full recount every iteration.
pub fn greedy_max_cover_naive(sets: &[Vec<NodeId>], k: u32) -> MaxCoverResult {
    let inverted = invert(sets);
    let mut covered = vec![false; sets.len()];
    let num_nodes = inverted.keys().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let mut picked = vec![false; num_nodes];
    let mut result = MaxCoverResult { seeds: Vec::new(), marginal_gains: Vec::new(), covered: 0 };

    while (result.seeds.len() as u32) < k {
        let mut best: Option<(u64, NodeId)> = None;
        for (&node, list) in &inverted {
            if picked[node as usize] {
                continue;
            }
            let gain = list.iter().filter(|&&s| !covered[s as usize]).count() as u64;
            let better = match best {
                None => true,
                Some((bg, bn)) => gain > bg || (gain == bg && node < bn),
            };
            if better {
                best = Some((gain, node));
            }
        }
        match best {
            Some((gain, node)) if gain > 0 => {
                result.seeds.push(node);
                result.marginal_gains.push(gain);
                result.covered += gain;
                picked[node as usize] = true;
                for &s in &inverted[&node] {
                    covered[s as usize] = true;
                }
            }
            _ => break,
        }
    }
    result
}

/// Node → sorted list of set indices containing it. RR sets are sorted, so
/// duplicate members are adjacent; each set index is recorded once per node.
///
/// This is the Vec-of-Vec/HashMap *oracle* the flat
/// [`InvertedIndex`] is property-tested against; the hot paths never
/// call it.
pub fn invert(sets: &[Vec<NodeId>]) -> HashMap<NodeId, Vec<u32>> {
    let mut inverted: HashMap<NodeId, Vec<u32>> = HashMap::new();
    for (i, set) in sets.iter().enumerate() {
        for &node in set {
            let list = inverted.entry(node).or_default();
            if list.last() != Some(&(i as u32)) {
                list.push(i as u32);
            }
        }
    }
    inverted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[u32]]) -> Vec<Vec<NodeId>> {
        raw.iter().map(|s| s.to_vec()).collect()
    }

    #[test]
    fn single_best_node() {
        let s = sets(&[&[1, 2], &[1], &[1, 3], &[4]]);
        let r = greedy_max_cover(&s, 1);
        assert_eq!(r.seeds, vec![1]);
        assert_eq!(r.covered, 3);
    }

    #[test]
    fn parallel_recount_matches_sequential() {
        // Random-ish overlapping instances force plenty of stale heap
        // entries, exercising the batch-refresh path; every thread count
        // must agree with the sequential oracle bit-for-bit.
        let mut state = 9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // The dense final instance (per-node lists of several thousand
        // set ids) pushes batch refreshes past PARALLEL_REFRESH_MIN_WORK
        // so the pooled branch runs too.
        for (trial, &(num_sets, universe)) in
            [(300, 60), (400, 60), (600, 60), (800, 60), (60_000, 40)].iter().enumerate()
        {
            let instance: Vec<Vec<NodeId>> = (0..num_sets)
                .map(|_| {
                    let len = 1 + (next() % 7) as usize;
                    let mut set: Vec<u32> = (0..len).map(|_| next() % universe).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let sequential = greedy_max_cover(&instance, 25);
            assert_eq!(sequential, greedy_max_cover_naive(&instance, 25), "trial {trial}");
            for threads in [2usize, 4, 8] {
                let parallel = greedy_max_cover_with(&instance, 25, &ExecPool::new(Some(threads)));
                assert_eq!(sequential, parallel, "trial {trial} threads {threads}");
            }
        }
    }

    #[test]
    fn paper_example_2() {
        // Example 2: four RR sets {b,d,f}, {e}, {d,f}, {a,b,e} with nodes
        // mapped a=0..g=6. The paper's greedy selects {e, f}, covering all
        // four sets. Greedy is tie-break dependent here (b, d, e, f all
        // start with gain 2): our deterministic rule (smallest id on ties)
        // picks b = 1 covering {0, 3}, then d = 3 covering {2} — an equally
        // valid greedy execution. The assertions pin our determinism.
        let s = sets(&[&[1, 3, 5], &[4], &[3, 5], &[0, 1, 4]]);
        let r = greedy_max_cover(&s, 2);
        assert_eq!(r.seeds, vec![1, 3]);
        assert_eq!(r.covered, 3);
        assert_eq!(r, greedy_max_cover_naive(&s, 2));
        // The paper's choice indeed covers 4; verify it is at least as good
        // as ours only because of the tie-break, not an algorithmic bug:
        // both selections are maximal gain at each step.
        assert_eq!(r.marginal_gains[0], 2);
    }

    #[test]
    fn lazy_equals_naive_on_fixed_cases() {
        let cases = [
            sets(&[&[0, 1], &[1, 2], &[2, 0], &[3]]),
            sets(&[&[5], &[5], &[5], &[1, 2], &[2]]),
            sets(&[&[], &[7, 8], &[8], &[7]]),
            sets(&[]),
        ];
        for s in &cases {
            for k in 0..5 {
                assert_eq!(greedy_max_cover(s, k), greedy_max_cover_naive(s, k), "k={k} s={s:?}");
            }
        }
    }

    #[test]
    fn stops_at_zero_gain() {
        let s = sets(&[&[1], &[1]]);
        let r = greedy_max_cover(&s, 5);
        assert_eq!(r.seeds, vec![1]);
        assert_eq!(r.covered, 2);
        assert_eq!(r.marginal_gains, vec![2]);
    }

    #[test]
    fn gains_non_increasing() {
        let s = sets(&[&[0, 1], &[0], &[0], &[1], &[2], &[3, 2]]);
        let r = greedy_max_cover(&s, 4);
        assert!(r.marginal_gains.windows(2).all(|w| w[0] >= w[1]), "{:?}", r.marginal_gains);
        assert_eq!(r.covered, r.marginal_gains.iter().sum::<u64>());
    }

    #[test]
    fn empty_sets_and_zero_k() {
        assert_eq!(greedy_max_cover(&[], 3).seeds, Vec::<NodeId>::new());
        let s = sets(&[&[1]]);
        assert_eq!(greedy_max_cover(&s, 0).seeds, Vec::<NodeId>::new());
    }

    #[test]
    fn stop_hook_aborts_without_partial_results() {
        let s = sets(&[&[1, 2], &[1], &[1, 3], &[4]]);
        let inverted = InvertedIndex::from_sets(&s);
        let pool = ExecPool::sequential();
        // An immediately-firing stop aborts before any seed.
        assert!(greedy_max_cover_inverted_until(&inverted, 4, 3, &pool, &|| true).is_none());
        // A stop that fires after the first round aborts mid-run.
        let polls = std::sync::atomic::AtomicU32::new(0);
        let late = greedy_max_cover_inverted_until(&inverted, 4, 3, &pool, &|| {
            polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 1
        });
        assert!(late.is_none());
        // A never-firing stop is exactly the plain run.
        let done = greedy_max_cover_inverted_until(&inverted, 4, 3, &pool, &|| false).unwrap();
        assert_eq!(done, greedy_max_cover_inverted_with(&inverted, 4, 3, &pool));
    }

    #[test]
    fn tie_break_prefers_smaller_id() {
        // Nodes 4 and 2 both cover two sets; 2 must win.
        let s = sets(&[&[4, 2], &[4, 2], &[9]]);
        let r = greedy_max_cover(&s, 1);
        assert_eq!(r.seeds, vec![2]);
        assert_eq!(greedy_max_cover_naive(&s, 1).seeds, vec![2]);
    }

    #[test]
    fn duplicate_members_within_set_count_once() {
        // A set listing a node twice must not double its gain.
        let s = vec![vec![1u32, 1, 2], vec![3]];
        let r = greedy_max_cover(&s, 1);
        // Node 1's gain is the number of *sets* covered: 1.
        assert_eq!(r.marginal_gains[0], 1);
    }
}
