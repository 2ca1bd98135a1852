//! Compact CSR inverted index: node → ids of the RR sets containing it.
//!
//! The greedy maximum-coverage step and the disk-index query paths both
//! consume an *inverted* view of an RR-set collection. A
//! `HashMap<NodeId, Vec<u32>>` pays a hash probe per lookup and one heap
//! allocation per node; [`InvertedIndex`] stores the same relation as a
//! flat CSR over the nodes that occur — a `present` list of those nodes
//! (ascending), an `offsets` table indexed by *position* in `present`,
//! and one `set_ids` arena. Nothing in it is sized by the node-id space:
//! a query that touches a few thousand users of a 10M-user graph holds a
//! few thousand offsets, not ten million. The greedy loop works on
//! positions (two loads and a slice per list); [`InvertedIndex::list`]
//! looks a node id up by binary search over `present`.
//!
//! Construction paths:
//!
//! * [`InvertedIndex::merge`] — k-way merge of sorted per-node runs (the
//!   per-keyword `L_w` blocks of the disk index, truncated to each
//!   keyword's prefix share and shifted into one global id space); the
//!   serving paths build every merged instance with it;
//! * [`InvertedIndex::from_batch`] — counting sort over an [`RrBatch`]
//!   arena (sets already sorted and duplicate-free);
//! * [`InvertedIndex::from_sets`] — the Vec-of-Vec adapter used by the
//!   public `greedy_max_cover` API and the test oracles (tolerates
//!   duplicate members within a set, like the classic `invert`);
//! * [`InvertedIndexBuilder`] — an explicit two-pass (count, then fill)
//!   builder over a dense node range, for producers that push per-node
//!   entries in arbitrary node order (the two `from_*` paths use it).
//!
//! Every path allocates the three arenas at their exact final size.
//!
//! A finished [`InvertedIndex`] is immutable and safe for **multiple
//! consumers**: all reads go through `&self`, so any number of greedy
//! runs — concurrent or sequential — can share one instance. The
//! serving tier's cross-request batch planner and merge cache lean on
//! this: same-keyword-set requests run their own greedy over one shared
//! merged instance (different `k`, same structure).

use kbtim_graph::NodeId;
use kbtim_propagation::RrBatch;

/// Immutable node → sorted-set-id map in compact CSR form.
///
/// Set ids in each per-node list appear in the order they were pushed;
/// every producer in this workspace pushes in ascending set-id order, so
/// lists are ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvertedIndex {
    /// Nodes with non-empty lists, ascending.
    present: Vec<NodeId>,
    /// `present.len() + 1` boundaries into `set_ids`, indexed by
    /// position in `present`.
    offsets: Vec<u32>,
    /// All per-node lists, back to back, in `present` order.
    set_ids: Vec<u32>,
}

/// One sorted run of per-node lists feeding [`InvertedIndex::merge`].
///
/// Node `nodes[j]` owns `ids[offsets[j] as usize..offsets[j + 1] as
/// usize]`; `nodes` ascends and each list ascends. Of each list only the
/// ids below `share` are kept, each shifted by `base`.
#[derive(Debug, Clone, Copy)]
pub struct MergeRun<'a> {
    /// Nodes of the run, strictly ascending.
    pub nodes: &'a [NodeId],
    /// `nodes.len() + 1` boundaries into `ids`.
    pub offsets: &'a [u32],
    /// All lists of the run, back to back.
    pub ids: &'a [u32],
    /// Keep only ids below this bound (a keyword's `θ^Q_w` prefix).
    pub share: u64,
    /// Added to every kept id (a keyword's base in the merged id space).
    pub base: u64,
}

/// A node's kept ids in one run: `len` ids from `start` in the `ids`
/// arena of run `run`.
#[derive(Debug, Clone, Copy, Default)]
struct Kept {
    run: u32,
    start: u32,
    len: u32,
}

impl InvertedIndex {
    /// K-way merge of sorted runs into one compact instance.
    ///
    /// Each node's merged list is the concatenation, in run order, of
    /// its kept ids in every run, each shifted by its run's `base`.
    /// Nodes whose kept lists are all empty are left out. With runs in
    /// ascending-`base` order and every shifted id below the next run's
    /// base (the per-keyword prefix layout), merged lists ascend.
    ///
    /// Cost follows the runs' entries and is independent of the node-id
    /// range:
    ///
    /// 1. one linear pass per run keeps the nodes with at least one id
    ///    below the share (much of a keyword's `L_w` falls past a
    ///    query's prefix) and emits a `node << 32 | slot` key per kept
    ///    list, where `slot` numbers kept lists in run order;
    /// 2. sorting the keys (unique, so equal nodes come out in run
    ///    order) merges the runs: they arrive as one ascending stretch
    ///    per run, which the standard library's run-adaptive sort
    ///    merges without the per-node "which run holds the minimum"
    ///    branch of a cursor scan, a branch that mispredicts often;
    /// 3. a pass over the sorted keys counts the touched nodes, and a
    ///    last one fills the three arenas, each allocated at its exact
    ///    size.
    pub fn merge(runs: &[MergeRun<'_>]) -> InvertedIndex {
        let total: usize = runs.iter().map(|r| r.nodes.len()).sum();
        assert!(u32::try_from(total).is_ok(), "merge runs exceed u32 slots");
        // Branch-free keep: every node writes its slot and only kept
        // ones advance the cursor — about half of a keyword's nodes fall
        // past a typical share, so a keep branch would mispredict often.
        let mut kept = vec![Kept::default(); total];
        let mut keys = vec![0u64; total];
        let (mut n, mut entries) = (0usize, 0usize);
        for (r, run) in runs.iter().enumerate() {
            for (j, &node) in run.nodes.iter().enumerate() {
                let start = run.offsets[j];
                let list = &run.ids[start as usize..run.offsets[j + 1] as usize];
                // Most lists hold one id: decide those without a search.
                let len = match list {
                    [id] => usize::from(u64::from(*id) < run.share),
                    _ => list.partition_point(|&id| u64::from(id) < run.share),
                };
                keys[n] = u64::from(node) << 32 | n as u64;
                kept[n] = Kept { run: r as u32, start, len: len as u32 };
                n += usize::from(len > 0);
                entries += len;
            }
        }
        keys.truncate(n);
        kept.truncate(n);
        assert!(u32::try_from(entries).is_ok(), "inverted arena exceeds u32 offsets");
        keys.sort();

        let node_of = |key: u64| (key >> 32) as NodeId;
        let nodes = keys.windows(2).filter(|w| node_of(w[0]) != node_of(w[1])).count()
            + usize::from(!keys.is_empty());
        let mut present = Vec::with_capacity(nodes);
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut set_ids = Vec::with_capacity(entries);
        for &key in &keys {
            let node = node_of(key);
            if present.last() != Some(&node) {
                offsets.push(set_ids.len() as u32);
                present.push(node);
            }
            let k = kept[key as u32 as usize];
            let run = &runs[k.run as usize];
            let shift = |id: u32| (run.base + u64::from(id)) as u32;
            if k.len == 1 {
                set_ids.push(shift(run.ids[k.start as usize]));
            } else {
                let ids = &run.ids[k.start as usize..(k.start + k.len) as usize];
                set_ids.extend(ids.iter().map(|&id| shift(id)));
            }
        }
        offsets.push(set_ids.len() as u32);
        InvertedIndex { present, offsets, set_ids }
    }

    /// Invert an [`RrBatch`] (counting sort over the arena).
    ///
    /// Batch sets must be duplicate-free (the samplers guarantee sorted,
    /// unique members), so no dedup pass is needed.
    pub fn from_batch(batch: &RrBatch) -> InvertedIndex {
        let num_nodes = batch.members().iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        let mut builder = InvertedIndexBuilder::new(num_nodes as u32);
        for &node in batch.members() {
            builder.count(node, 1);
        }
        let mut filler = builder.fill();
        for (i, set) in batch.iter().enumerate() {
            for &node in set {
                filler.push(node, i as u32);
            }
        }
        filler.finish()
    }

    /// Invert a Vec-of-Vec collection (test-oracle adapter).
    ///
    /// Duplicate members *within* one set count once, matching
    /// [`crate::maxcover::invert`].
    pub fn from_sets(sets: &[Vec<NodeId>]) -> InvertedIndex {
        let num_nodes = sets.iter().flatten().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        // `last_set[v] == i + 1` marks "v already counted for set i", so a
        // duplicate member contributes one entry no matter where in the
        // set it appears.
        let mut last_set = vec![0u32; num_nodes];
        let mut builder = InvertedIndexBuilder::new(num_nodes as u32);
        for (i, set) in sets.iter().enumerate() {
            for &node in set {
                if last_set[node as usize] != i as u32 + 1 {
                    last_set[node as usize] = i as u32 + 1;
                    builder.count(node, 1);
                }
            }
        }
        last_set.iter_mut().for_each(|s| *s = 0);
        let mut filler = builder.fill();
        for (i, set) in sets.iter().enumerate() {
            for &node in set {
                if last_set[node as usize] != i as u32 + 1 {
                    last_set[node as usize] = i as u32 + 1;
                    filler.push(node, i as u32);
                }
            }
        }
        filler.finish()
    }

    /// Number of nodes with non-empty lists (= `present().len()`).
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether no node has a non-empty list.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// The set-id list of `node` (empty for absent nodes); a binary
    /// search over `present`.
    pub fn list(&self, node: NodeId) -> &[u32] {
        match self.present.binary_search(&node) {
            Ok(pos) => self.list_at(pos),
            Err(_) => &[],
        }
    }

    /// The set-id list of the node at position `pos` of `present()`.
    #[inline]
    pub fn list_at(&self, pos: usize) -> &[u32] {
        &self.set_ids[self.offsets[pos] as usize..self.offsets[pos + 1] as usize]
    }

    /// Nodes with non-empty lists, ascending.
    pub fn present(&self) -> &[NodeId] {
        &self.present
    }

    /// Total entries across all lists (the arena length).
    pub fn total_entries(&self) -> usize {
        self.set_ids.len()
    }

    /// Heap bytes the three arenas hold (their capacities, not their
    /// lengths — what the allocation really pins).
    pub fn arena_bytes(&self) -> u64 {
        let words = self.set_ids.capacity() + self.offsets.capacity() + self.present.capacity();
        (words * std::mem::size_of::<u32>()) as u64
    }
}

/// Counting pass of the two-pass CSR build: declare how many set ids
/// each node will receive, then [`InvertedIndexBuilder::fill`].
///
/// The counts live in a dense table over `0..num_nodes` while building;
/// the finished [`InvertedIndex`] is compact all the same.
pub struct InvertedIndexBuilder {
    counts: Vec<u32>,
}

impl InvertedIndexBuilder {
    /// Builder over the dense node-id space `0..num_nodes`.
    pub fn new(num_nodes: u32) -> InvertedIndexBuilder {
        InvertedIndexBuilder { counts: vec![0; num_nodes as usize] }
    }

    /// Announce `n` further entries for `node`.
    #[inline]
    pub fn count(&mut self, node: NodeId, n: u32) {
        self.counts[node as usize] += n;
    }

    /// Freeze the counts into compact CSR offsets and start the fill
    /// pass. The fill pass must push exactly the announced entries per
    /// node.
    pub fn fill(self) -> InvertedIndexFiller {
        let nodes = self.counts.iter().filter(|&&c| c > 0).count();
        let total: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        let total = u32::try_from(total).expect("inverted arena exceeds u32 offsets");
        let mut present = Vec::with_capacity(nodes);
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0u32);
        // The counts table becomes the per-node fill cursor in place.
        let mut cursor = self.counts;
        let mut next = 0u32;
        for (v, c) in cursor.iter_mut().enumerate() {
            if *c > 0 {
                present.push(v as NodeId);
                let start = next;
                next += *c;
                offsets.push(next);
                *c = start;
            }
        }
        InvertedIndexFiller { present, offsets, cursor, set_ids: vec![0; total as usize] }
    }
}

/// Fill pass of the two-pass CSR build (see [`InvertedIndexBuilder`]).
pub struct InvertedIndexFiller {
    present: Vec<NodeId>,
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    set_ids: Vec<u32>,
}

impl InvertedIndexFiller {
    /// Append `id` to `node`'s list.
    #[inline]
    pub fn push(&mut self, node: NodeId, id: u32) {
        let c = &mut self.cursor[node as usize];
        self.set_ids[*c as usize] = id;
        *c += 1;
    }

    /// Finish the build. Panics (debug) if any node received fewer
    /// entries than announced.
    pub fn finish(self) -> InvertedIndex {
        let InvertedIndexFiller { present, offsets, cursor, set_ids } = self;
        debug_assert!(
            present.iter().enumerate().all(|(i, &v)| cursor[v as usize] == offsets[i + 1]),
            "fill pass did not match the counting pass"
        );
        InvertedIndex { present, offsets, set_ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcover::invert;

    fn oracle_equal(sets: &[Vec<NodeId>], inv: &InvertedIndex) {
        let oracle = invert(sets);
        assert_eq!(inv.present().len(), oracle.len(), "present-node count");
        for &node in inv.present() {
            assert_eq!(
                inv.list(node),
                oracle.get(&node).map(Vec::as_slice).unwrap_or(&[]),
                "node {node}"
            );
        }
        // Absent nodes decode to empty lists.
        let max = inv.present().last().map_or(0, |&v| v + 2);
        for v in 0..max {
            if !inv.present().contains(&v) {
                assert!(inv.list(v).is_empty());
            }
        }
    }

    #[test]
    fn from_sets_matches_oracle() {
        let sets: Vec<Vec<NodeId>> = vec![
            vec![1, 3, 5],
            vec![],
            vec![3],
            vec![0, 1, 2, 3, 4, 5],
            vec![5, 5, 7], // duplicate member counts once
        ];
        let inv = InvertedIndex::from_sets(&sets);
        oracle_equal(&sets, &inv);
        assert_eq!(inv.list(5), &[0, 3, 4]);
        assert_eq!(inv.present(), &[0, 1, 2, 3, 4, 5, 7]);
        assert_eq!(inv.len(), 7);
    }

    #[test]
    fn from_batch_matches_from_sets_on_sorted_unique_input() {
        let sets: Vec<Vec<NodeId>> =
            vec![vec![2, 4, 9], vec![0], vec![], vec![4, 8], vec![1, 2, 3]];
        let batch = RrBatch::from_sets(&sets);
        assert_eq!(InvertedIndex::from_batch(&batch), InvertedIndex::from_sets(&sets));
    }

    #[test]
    fn random_instances_match_oracle() {
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..20 {
            let num_sets = 1 + (next() % 200) as usize;
            let universe = 1 + next() % 100;
            let sets: Vec<Vec<NodeId>> = (0..num_sets)
                .map(|_| {
                    let len = (next() % 9) as usize;
                    let mut set: Vec<u32> = (0..len).map(|_| next() % universe).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let inv = InvertedIndex::from_sets(&sets);
            oracle_equal(&sets, &inv);
            assert_eq!(inv, InvertedIndex::from_batch(&RrBatch::from_sets(&sets)), "trial {trial}");
        }
    }

    #[test]
    fn empty_input() {
        let inv = InvertedIndex::from_sets(&[]);
        assert!(inv.is_empty());
        assert!(inv.present().is_empty());
        assert_eq!(inv.total_entries(), 0);
        assert!(InvertedIndex::from_batch(&RrBatch::new()).is_empty());
        assert_eq!(InvertedIndex::merge(&[]), inv);
    }

    /// Split a Vec-of-Vec "keyword pool" into the node-major CSR run
    /// shape the disk index stores (nodes ascending, ids ascending).
    fn run_arrays(sets: &[Vec<NodeId>]) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
        let inv = InvertedIndex::from_sets(sets);
        (inv.present.clone(), inv.offsets.clone(), inv.set_ids.clone())
    }

    #[test]
    fn merge_truncates_shifts_and_concatenates_in_run_order() {
        // Keyword A: 4 sets; keyword B: 3 sets. Queries keep A's first 3
        // and B's first 2, so B's ids shift by 3.
        let a: Vec<Vec<NodeId>> = vec![vec![1, 5], vec![5, 9], vec![1], vec![2, 9]];
        let b: Vec<Vec<NodeId>> = vec![vec![5], vec![2, 7], vec![1, 2, 8]];
        let (an, ao, ai) = run_arrays(&a);
        let (bn, bo, bi) = run_arrays(&b);
        let runs = [
            MergeRun { nodes: &an, offsets: &ao, ids: &ai, share: 3, base: 0 },
            MergeRun { nodes: &bn, offsets: &bo, ids: &bi, share: 2, base: 3 },
        ];
        let merged = InvertedIndex::merge(&runs);
        // The same instance as inverting the concatenated prefixes.
        let mut prefix: Vec<Vec<NodeId>> = a[..3].to_vec();
        prefix.extend_from_slice(&b[..2]);
        assert_eq!(merged, InvertedIndex::from_sets(&prefix));
        assert_eq!(merged.present(), &[1, 2, 5, 7, 9]);
        assert_eq!(merged.list(5), &[0, 1, 3]);
        assert_eq!(merged.list(2), &[4]);
        // A node whose only ids fall past the share is left out.
        assert!(merged.list(8).is_empty());
        // Exact-size arenas: entries + (nodes + 1) offsets + nodes.
        let words = merged.total_entries() + 2 * merged.len() + 1;
        assert_eq!(merged.arena_bytes(), 4 * words as u64);
    }

    #[test]
    fn merge_of_split_runs_equals_merge_of_whole_runs() {
        // A keyword's run split by node range (the sharded layout) and
        // merged piecewise, in order, gives the unsplit answer.
        let sets: Vec<Vec<NodeId>> =
            vec![vec![0, 4, 8], vec![4, 6], vec![1, 8], vec![0, 1, 2, 6, 8], vec![3]];
        let (n, o, i) = run_arrays(&sets);
        let whole = InvertedIndex::merge(&[MergeRun {
            nodes: &n,
            offsets: &o,
            ids: &i,
            share: 4,
            base: 0,
        }]);
        let cut = n.partition_point(|&v| v < 4);
        let (lo_n, hi_n) = n.split_at(cut);
        let hi_o: Vec<u32> = o[cut..].iter().map(|&x| x - o[cut]).collect();
        let hi_i = &i[o[cut] as usize..];
        let split = InvertedIndex::merge(&[
            MergeRun { nodes: lo_n, offsets: &o[..=cut], ids: &i, share: 4, base: 0 },
            MergeRun { nodes: hi_n, offsets: &hi_o, ids: hi_i, share: 4, base: 0 },
        ]);
        assert_eq!(split, whole);
        assert_eq!(whole, InvertedIndex::from_sets(&sets[..4]));
    }

    #[test]
    fn bitset_reset_reuses_words() {
        use crate::bitset::Bitset;
        let mut bits = Bitset::new(100);
        bits.set(5);
        bits.set(99);
        bits.reset(64);
        assert_eq!(bits.len(), 64);
        assert_eq!(bits.count_ones(), 0);
        bits.set(63);
        bits.reset(200);
        assert_eq!(bits.len(), 200);
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn builder_streams_multiple_sources() {
        // Two sources contributing to overlapping nodes, pushed in
        // source order.
        let mut b = InvertedIndexBuilder::new(4);
        b.count(1, 2);
        b.count(3, 1);
        b.count(1, 1);
        let mut f = b.fill();
        f.push(1, 0);
        f.push(1, 2);
        f.push(3, 1);
        f.push(1, 5);
        let inv = f.finish();
        assert_eq!(inv.list(1), &[0, 2, 5]);
        assert_eq!(inv.list(3), &[1]);
        assert_eq!(inv.present(), &[1, 3]);
        // Compact layout: 4 set ids + 3 offsets (2 nodes + 1) + 2 nodes.
        assert_eq!(inv.arena_bytes(), (4 * 4 + 3 * 4 + 2 * 4) as u64);
    }
}
