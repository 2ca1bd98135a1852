//! Algorithm 4 — `QueryIRR`: incremental KB-TIM query processing.
//!
//! The IRR index sorts each keyword's inverted lists by length, so the
//! most impactful users come first. Queries run an NRA-style top-k
//! aggregation (after Fagin et al. \[8\]):
//!
//! * candidates live in a max-priority-queue keyed by an **upper bound**
//!   on their uncovered coverage count;
//! * a keyword's bound for users not yet seen is `kb[w]` — the longest
//!   inverted list in any unloaded partition (clamped to `θ^Q_w`, since a
//!   prefix count can never exceed the prefix);
//! * `IP_w` resolves "missing" partial scores: a user whose first RR-set
//!   occurrence is at or beyond `θ^Q_w` scores 0 on `w` without loading
//!   anything (§5.2's first issue);
//! * scores are refined **lazily**: only the queue's top entry is ever
//!   recomputed (§5.2's second issue); gains shrink monotonically, so a
//!   stale top that recomputes to the same value is safe to accept;
//! * a candidate becomes a seed when its score is exact (`COMPLETE`) and
//!   strictly above `Σ_w kb[w]`, the best any unseen user could do (a
//!   tie could still go to an unseen user with a smaller id), or once
//!   every partition is loaded.
//!
//! Theorem 3: the seeds' coverage scores equal Algorithm 2's. The
//! implementation shares its tie-breaking (score desc, node id asc) with
//! the greedy used by `query_rr`, so the *seed sequences* are identical —
//! property-tested in `tests/`.

use crate::format::{self, IlCsr};
use crate::rr_query::empty_outcome;
use crate::scratch::{KwBufs, QueryScratch};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome, QueryStats};
use kbtim_core::bitset::Bitset;
use kbtim_exec::ExecPool;
use kbtim_graph::NodeId;
use kbtim_topics::Query;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Sentinel for "no value" in the per-slot tables below.
const ABSENT: u32 = u32::MAX;

/// Per-keyword NRA state.
///
/// Per-user lookups go through a *compact slot table*: `bufs.users` holds
/// the keyword's `IP_w` keys (every user occurring in at least one stored
/// RR set, ascending), and all per-slot arrays are sized by that
/// occupancy — not by |V| — so query memory scales with the keyword's
/// pool, exactly like the old hash maps, but flat: a slot is one
/// branch-free binary search away and loaded inverted lists live in one
/// append-only arena (each user's list arrives with exactly one
/// partition, so a `(start, len)` span per slot suffices). The tables
/// themselves ([`KwBufs`]) are leased from the index's scratch pool and
/// returned when the query finishes, so a warmed index rebuilds no
/// per-keyword allocation.
struct KwState<'a> {
    /// `θ^Q_w` — only RR ids below this participate.
    share: u64,
    /// Base offset of this keyword's ids in the global covered bitset.
    base: u64,
    /// How many partitions have been loaded.
    loaded: usize,
    /// Current unseen-user bound for this keyword.
    kb: u64,
    /// Pooled IP table, partition catalog, slot spans and list arena.
    bufs: KwBufs,
    source: &'a kbtim_storage::BlockSource,
}

impl KwState<'_> {
    /// Slot of `v`, if it occurs in this keyword's pool at all.
    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        self.bufs.users.binary_search(&v).ok()
    }

    /// The loaded, truncated list of slot `s` (must be loaded).
    fn list_at(&self, s: usize) -> &[u32] {
        let start = self.bufs.list_start[s] as usize;
        &self.bufs.arena[start..start + self.bufs.list_len[s] as usize]
    }

    /// Exact uncovered count for a loaded list.
    ///
    /// The partition walk probes the covered bitset at data-dependent
    /// positions; a fixed look-ahead prefetch overlaps those misses (see
    /// [`kbtim_core::prefetch`]) without affecting the count.
    fn exact_count(&self, list: &[u32], covered: &Bitset) -> u64 {
        let mut count = 0u64;
        for (i, &id) in list.iter().enumerate() {
            if let Some(&ahead) = list.get(i + kbtim_core::prefetch::COVER_SCAN_AHEAD) {
                covered.prefetch((self.base + ahead as u64) as usize);
            }
            count += u64::from(!covered.get((self.base + id as u64) as usize));
        }
        count
    }

    /// Partial score of `v` on this keyword: `(bound, is_exact)`.
    fn partial(&self, v: NodeId, covered: &Bitset) -> (u64, bool) {
        // Never occurs → exact zero without loading anything.
        let Some(s) = self.slot(v) else { return (0, true) };
        if self.bufs.list_start[s] != ABSENT {
            return (self.exact_count(self.list_at(s), covered), true);
        }
        if (self.bufs.firsts[s] as u64) < self.share {
            (self.kb, false)
        } else {
            // First occurrence beyond the prefix → exact zero (§5.2).
            (0, true)
        }
    }
}

impl KbtimIndex {
    /// The IRR batch entry: answer `query` from a batch's shared
    /// [`crate::scratch::KeywordArena`]. Requires the IRR variant, like
    /// [`KbtimIndex::query_irr`].
    ///
    /// The NRA's whole advantage is loading *few* partitions from disk;
    /// inside a batch the planner has already decoded every query
    /// keyword's complete `L_w` once for the group, so incremental
    /// partition loading has nothing left to save and the top-k
    /// aggregation degenerates to exact greedy over the merged instance.
    /// This entry therefore runs the shared-arena merge + greedy
    /// directly — by Theorem 3 (strengthened to identical sequences by
    /// the shared tie-breaking, see the module docs) the seeds, marginal
    /// gains, coverage, and influence estimate are bit-identical to what
    /// the incremental NRA returns, which `tests/concurrent_equiv.rs`
    /// enforces against the serial [`KbtimIndex::query_irr`] oracle.
    /// Stats reflect batched serving: `rr_sets_loaded` is the θ^Q
    /// budget and `partitions_loaded` is 0 (no partition I/O happened —
    /// the batch decode was charged once, to the group).
    pub fn query_irr_prepared(
        &self,
        query: &Query,
        arena: &crate::scratch::KeywordArena,
    ) -> Result<QueryOutcome, IndexError> {
        let format::IndexVariant::Irr { .. } = self.meta().variant else {
            return Err(IndexError::NotAnIrrIndex);
        };
        self.query_rr_prepared(query, arena)
    }

    /// Answer `query` with Algorithm 4. Requires the IRR variant.
    pub fn query_irr(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        self.query_irr_ctx(query, &QueryCtx::default())
    }

    /// [`KbtimIndex::query_irr`] under an execution context: the
    /// deadline (if any) is checked once per NRA round, aborting with
    /// [`IndexError::DeadlineExceeded`] — never with partial seeds.
    /// The `engine.decode` failpoint fires before any partition load.
    pub fn query_irr_ctx(&self, query: &Query, ctx: &QueryCtx) -> Result<QueryOutcome, IndexError> {
        let format::IndexVariant::Irr { .. } = self.meta().variant else {
            return Err(IndexError::NotAnIrrIndex);
        };
        // Sharded serving lowers IRR to the scatter-gather merged-greedy
        // path, exactly as [`KbtimIndex::query_irr_prepared`] does for
        // batches: the NRA's advantage is loading few partitions from
        // *one* segment, while a sharded query fans per-shard decode out
        // across the pool anyway. By Theorem 3 (strengthened to
        // identical sequences by the shared tie-breaking) the seeds,
        // marginal gains, coverage, and influence estimate are
        // bit-identical to the incremental NRA; stats reflect the
        // scatter-gather execution (`rr_sets_loaded = θ^Q`,
        // `partitions_loaded = 0`), which `tests/shard_equiv.rs`
        // pins against the single-shard oracle.
        if self.num_shards() > 1 {
            return self.query_rr_ctx(query, ctx);
        }
        let started = Instant::now();
        let io_before = self.io_stats().snapshot();
        let (phi_q, budget) = self.query_budget(query);
        if budget.is_empty() {
            return Ok(empty_outcome(started));
        }
        if kbtim_fault::inject("engine.decode") {
            return Err(IndexError::Injected("engine.decode"));
        }
        let codec = self.meta().codec;

        // Every per-query table below leases from the scratch pool
        // (cleared or fully overwritten before use, so reuse cannot
        // affect the answer): the covered bitset, the sorted selected
        // set, the per-keyword KwBufs, the candidate heap's backing store
        // and the fresh-candidate staging buffer.
        let mut outer_scratch = self.scratch.guard();
        let QueryScratch { covered, selected, kw_bufs, nra_heap, nra_fresh, bytes_a, .. } =
            &mut *outer_scratch;

        // Initialize per-keyword state; IP and the partition catalog are
        // read up front (one small read each, as in the paper). Per-slot
        // tables are sized by the keyword's occupancy, never by |V|.
        let mut states: Vec<KwState<'_>> = Vec::with_capacity(budget.len());
        let mut base = 0u64;
        for &(topic, share) in &budget {
            let source = self.source(topic)?;
            let mut bufs = kw_bufs.pop().unwrap_or_default();
            bufs.clear();
            let ip_bytes = source.read_block_in(format::IP_BLOCK, bytes_a)?;
            format::decode_ip_into(ip_bytes, codec, &mut bufs.users, &mut bufs.firsts)?;
            debug_assert!(bufs.users.windows(2).all(|w| w[0] < w[1]), "IP_w users must ascend");
            let pmeta_bytes = source.read_block_in(format::PMETA_BLOCK, bytes_a)?;
            format::decode_partition_meta_into(pmeta_bytes, &mut bufs.partitions)?;
            let max_len = self.meta().keywords[topic as usize].max_list_len as u64;
            let slots = bufs.users.len();
            bufs.list_start.resize(slots, ABSENT);
            bufs.list_len.resize(slots, 0);
            states.push(KwState { share, base, loaded: 0, kb: max_len.min(share), bufs, source });
            base += share;
        }
        let theta_q = base;

        covered.reset(theta_q as usize);
        selected.clear();
        let covered: &mut Bitset = covered;
        let mut pq: BinaryHeap<(u64, Reverse<NodeId>)> = BinaryHeap::from(std::mem::take(nra_heap));
        let mut seeds: Vec<NodeId> = Vec::new();
        let mut marginal_gains: Vec<u64> = Vec::new();
        let mut coverage = 0u64;
        let mut rr_sets_loaded = 0u64;
        let mut partitions_loaded = 0u64;

        // Aggregate upper-bound score of a candidate.
        let score = |v: NodeId, covered: &Bitset, states: &[KwState<'_>]| -> (u64, bool) {
            let mut total = 0u64;
            let mut complete = true;
            for st in states {
                let (s, exact) = st.partial(v, covered);
                total += s;
                complete &= exact;
            }
            (total, complete)
        };

        // Load the next partition of every query keyword — reads and
        // decodes fan out one shard per keyword on the pool, then results
        // apply to the NRA state in keyword order (deterministic for any
        // thread count). Pushes fresh candidates; returns false when
        // everything is exhausted.
        let pool = self.pool();
        let load_more = |states: &mut [KwState<'_>],
                         pq: &mut BinaryHeap<(u64, Reverse<NodeId>)>,
                         covered: &Bitset,
                         selected: &[NodeId],
                         fresh: &mut Vec<NodeId>,
                         rr_sets_loaded: &mut u64,
                         partitions_loaded: &mut u64|
         -> Result<bool, IndexError> {
            // Fan out only when this round moves enough bytes to dwarf the
            // pool's fork/join cost; small rounds (the common case for
            // tight partitions) read inline. The partition catalog gives
            // the sizes before any I/O, and both paths produce identical
            // loads, so the choice cannot affect the answer.
            const PARALLEL_LOAD_MIN_BYTES: u64 = 256 * 1024;
            let pending_bytes: u64 = states
                .iter()
                .filter(|st| st.loaded < st.bufs.partitions.len())
                .map(|st| {
                    let part = &st.bufs.partitions[st.loaded];
                    (part.il_end - part.il_start) + part.ir_prefix_len(st.share)
                })
                .sum();
            let seq = ExecPool::sequential();
            let round_pool = if pending_bytes < PARALLEL_LOAD_MIN_BYTES { &seq } else { pool };

            // Decoded partition of one keyword: inverted lists in CSR
            // form (already truncated to the share) and the loaded RR-set
            // count.
            type PartitionLoad = Option<(IlCsr, u64, u64)>;
            let loads: Vec<Result<PartitionLoad, IndexError>> = round_pool.map_shards_with(
                states.len(),
                || self.scratch.guard(),
                |guard, i| {
                    let s: &mut QueryScratch = &mut *guard;
                    let st = &states[i];
                    if st.loaded >= st.bufs.partitions.len() {
                        return Ok(None);
                    }
                    let part = st.bufs.partitions[st.loaded].clone();
                    let il = st.source.read_range_in(
                        format::ILP_BLOCK,
                        part.il_start,
                        part.il_end - part.il_start,
                        &mut s.bytes_a,
                    )?;
                    format::decode_il_csr_into(il, codec, &mut s.il)?;
                    let full = &s.il;
                    // Only the byte range holding ids < θ^Q_w is read —
                    // sets beyond the query's prefix never touch memory
                    // (the sparse ir_samples table bounds the range).
                    let ir_len = part.ir_prefix_len(st.share);
                    let ir = st.source.read_range_in(
                        format::IRP_BLOCK,
                        part.ir_start,
                        ir_len,
                        &mut s.bytes_b,
                    )?;
                    // RR-set payloads are decoded (and counted) exactly as
                    // the paper's loader does; the lazy NRA only needs ids,
                    // so the members decode into one reused scratch buffer.
                    s.ir_members.clear();
                    let ir_count =
                        format::count_ir_entries(ir, codec, st.share as u32, &mut s.ir_members)?;
                    // Truncate each list to the share, still CSR, into a
                    // pooled output (returned to the pool after apply).
                    let mut truncated = self.scratch.take_csr();
                    for j in 0..full.len() {
                        let list = full.list(j);
                        let cut = list.partition_point(|&id| (id as u64) < st.share);
                        truncated.ids.extend_from_slice(&list[..cut]);
                        truncated.close_list(full.users[j]);
                    }
                    let new_kb = (part.max_len_after as u64).min(st.share);
                    Ok(Some((truncated, ir_count, new_kb)))
                },
            );

            let mut any = false;
            fresh.clear();
            for (st, load) in states.iter_mut().zip(loads) {
                let Some((truncated, ir_count, new_kb)) = load? else {
                    st.kb = 0;
                    continue;
                };
                *rr_sets_loaded += ir_count;
                *partitions_loaded += 1;
                for j in 0..truncated.len() {
                    let user = truncated.users[j];
                    let list = truncated.list(j);
                    let start = st.bufs.arena.len();
                    assert!(start < ABSENT as usize, "IRR list arena exceeds u32 spans");
                    // Every partitioned user has a first occurrence, so a
                    // slot always exists.
                    let s = st.slot(user).expect("partition user missing from IP_w");
                    st.bufs.list_start[s] = start as u32;
                    st.bufs.list_len[s] = list.len() as u32;
                    st.bufs.arena.extend_from_slice(list);
                    if selected.binary_search(&user).is_err() {
                        fresh.push(user);
                    }
                }
                st.loaded += 1;
                st.kb = new_kb;
                any = true;
                self.scratch.put_csr(truncated);
            }
            // Push fresh candidates with bounds computed against the *new*
            // kb values.
            for &v in fresh.iter() {
                let mut total = 0u64;
                for st in states.iter() {
                    total += st.partial(v, covered).0;
                }
                pq.push((total, Reverse(v)));
            }
            Ok(any)
        };

        // Deadline expiry breaks (not returns) so the leased tables
        // below still go back to the scratch pool before erroring.
        let mut deadline_hit = false;
        while (seeds.len() as u32) < query.k() {
            if ctx.expired() {
                deadline_hit = true;
                break;
            }
            let total_kb: u64 = states.iter().map(|st| st.kb).sum();
            match pq.peek().copied() {
                Some((s, Reverse(v))) if s > 0 => {
                    pq.pop();
                    if selected.binary_search(&v).is_ok() {
                        continue;
                    }
                    let (s2, complete) = score(v, covered, &states);
                    if s2 != s {
                        // Stale: refresh and reinsert (lazy update, §5.2).
                        if s2 > 0 {
                            pq.push((s2, Reverse(v)));
                        }
                        continue;
                    }
                    // A tie with the unseen bound is not a win: an unseen
                    // user with a smaller id may still reach `total_kb`
                    // and must come first under the shared (score desc,
                    // id asc) order. Accept a strict win, or any exact
                    // score once every list is loaded (nobody unseen).
                    let exhausted = states.iter().all(|st| st.loaded >= st.bufs.partitions.len());
                    if complete && (s > total_kb || exhausted) {
                        // New seed confirmed.
                        let at = selected.partition_point(|&u| u < v);
                        selected.insert(at, v);
                        seeds.push(v);
                        marginal_gains.push(s);
                        coverage += s;
                        for st in &states {
                            if let Some(s) = st.slot(v) {
                                if st.bufs.list_start[s] != ABSENT {
                                    for &id in st.list_at(s) {
                                        covered.set((st.base + id as u64) as usize);
                                    }
                                }
                            }
                        }
                    } else {
                        // Cannot separate from unseen users yet: reinsert
                        // and deepen the index scan. Once nothing is left
                        // to load, every list is loaded, so every score is
                        // exact and the next round accepts.
                        pq.push((s, Reverse(v)));
                        let loaded = load_more(
                            &mut states,
                            &mut pq,
                            covered,
                            selected,
                            nra_fresh,
                            &mut rr_sets_loaded,
                            &mut partitions_loaded,
                        )?;
                        debug_assert!(loaded || complete, "incomplete candidate after exhaustion");
                    }
                }
                _ => {
                    // No positive candidate in the queue: either deepen the
                    // scan or finish.
                    if total_kb == 0
                        || !load_more(
                            &mut states,
                            &mut pq,
                            covered,
                            selected,
                            nra_fresh,
                            &mut rr_sets_loaded,
                            &mut partitions_loaded,
                        )?
                    {
                        break;
                    }
                }
            }
        }

        // Return the leased tables for the next query: the keyword
        // tables (emptied, capacities kept) and the heap's backing store.
        for st in states {
            let mut bufs = st.bufs;
            bufs.clear();
            kw_bufs.push(bufs);
        }
        let mut heap_store = pq.into_vec();
        heap_store.clear();
        *nra_heap = heap_store;
        if deadline_hit {
            return Err(IndexError::DeadlineExceeded);
        }

        let estimated_influence =
            if theta_q == 0 { 0.0 } else { coverage as f64 / theta_q as f64 * phi_q };
        Ok(QueryOutcome {
            seeds,
            marginal_gains,
            coverage,
            estimated_influence,
            stats: QueryStats {
                theta_q,
                rr_sets_loaded,
                partitions_loaded,
                io: self.io_stats().snapshot().since(&io_before),
                elapsed: started.elapsed(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{IndexBuildConfig, IndexBuilder, ThetaMode};
    use crate::format::IndexVariant;
    use crate::{IndexError, KbtimIndex};
    use kbtim_codec::Codec;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_storage::{IoStats, TempDir};
    use kbtim_topics::Query;

    fn dataset(users: u32, topics: u32, seed: u64) -> Dataset {
        DatasetConfig::family(DatasetFamily::News)
            .num_users(users)
            .num_topics(topics)
            .seed(seed)
            .build()
    }

    fn build_irr(data: &Dataset, dir: &std::path::Path, partition_size: u32) {
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(2000),
                opt_initial_samples: 128,
                opt_max_rounds: 8,
                ..SamplingConfig::fast()
            },
            codec: Codec::Packed,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size },
            threads: 4,
            seed: 13,
            shards: 1,
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    }

    #[test]
    fn irr_matches_rr_seeds_exactly() {
        // Theorem 3, strengthened to identical sequences by shared
        // tie-breaking.
        let data = dataset(500, 6, 31);
        let dir = TempDir::new("irrq-eq").unwrap();
        build_irr(&data, dir.path(), 16);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        for q in [
            Query::new([0], 5),
            Query::new([0, 1], 10),
            Query::new([1, 2, 3], 15),
            Query::new([0, 1, 2, 3, 4, 5], 25),
        ] {
            let rr = index.query_rr(&q).unwrap();
            let irr = index.query_irr(&q).unwrap();
            assert_eq!(rr.seeds, irr.seeds, "query {q:?}");
            assert_eq!(rr.marginal_gains, irr.marginal_gains, "query {q:?}");
            assert_eq!(rr.coverage, irr.coverage);
            assert_eq!(rr.stats.theta_q, irr.stats.theta_q);
        }
    }

    #[test]
    fn irr_loads_fewer_rr_sets_with_small_k() {
        let data = dataset(1200, 6, 37);
        let dir = TempDir::new("irrq-fewer").unwrap();
        build_irr(&data, dir.path(), 25);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 5);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert!(
            irr.stats.rr_sets_loaded < rr.stats.rr_sets_loaded,
            "IRR {} should load fewer sets than RR {}",
            irr.stats.rr_sets_loaded,
            rr.stats.rr_sets_loaded
        );
        assert!(irr.stats.partitions_loaded > 0);
    }

    #[test]
    fn rr_variant_rejects_irr_queries() {
        let data = dataset(300, 4, 41);
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("irrq-notirr").unwrap();
        let config = IndexBuildConfig {
            variant: IndexVariant::Rr,
            sampling: SamplingConfig {
                theta_cap: Some(500),
                opt_initial_samples: 64,
                opt_max_rounds: 4,
                ..SamplingConfig::fast()
            },
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        assert!(matches!(
            index.query_irr(&Query::new([0], 3)).unwrap_err(),
            IndexError::NotAnIrrIndex
        ));
    }

    #[test]
    fn partition_size_one_still_correct() {
        let data = dataset(250, 4, 43);
        let dir = TempDir::new("irrq-p1").unwrap();
        build_irr(&data, dir.path(), 1);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 8);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert_eq!(rr.seeds, irr.seeds);
    }

    #[test]
    fn tie_with_unseen_smaller_id_user_waits_for_its_partition() {
        // Users 113 and 187 both reach gain 49 for the eighth seed. With
        // one user per partition, 187's score is exact while 113 still
        // sits in an unloaded partition and the unseen bound equals 49:
        // accepting on a tie took 187 first, breaking the (gain desc,
        // id asc) order Theorem 3's IRR ≡ RR sequence equality needs.
        let data = dataset(250, 4, 2);
        let dir = TempDir::new("irrq-tie").unwrap();
        build_irr(&data, dir.path(), 1);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([3], 10);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert_eq!(rr.marginal_gains[7], rr.marginal_gains[8], "the instance has the tie");
        assert_eq!(&rr.seeds[7..9], &[113, 187]);
        assert_eq!(irr.seeds, rr.seeds);
        assert_eq!(irr.marginal_gains, rr.marginal_gains);
    }

    #[test]
    fn huge_partition_size_still_correct() {
        // One partition holding everything degenerates IRR to RR.
        let data = dataset(250, 4, 47);
        let dir = TempDir::new("irrq-phuge").unwrap();
        build_irr(&data, dir.path(), 1_000_000);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1, 2], 8);
        let rr = index.query_rr(&q).unwrap();
        let irr = index.query_irr(&q).unwrap();
        assert_eq!(rr.seeds, irr.seeds);
        assert_eq!(irr.stats.partitions_loaded, q.num_topics() as u64);
    }

    #[test]
    fn query_auto_picks_by_k() {
        let data = dataset(400, 4, 59);
        let dir = TempDir::new("irrq-auto").unwrap();
        build_irr(&data, dir.path(), 40); // δ = 40 → IRR for k ≤ 10
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let small = index.query_auto(&Query::new([0, 1], 5)).unwrap();
        let large = index.query_auto(&Query::new([0, 1], 30)).unwrap();
        // IRR path leaves partition traces; RR path does not.
        assert!(small.stats.partitions_loaded > 0, "small k should take IRR");
        assert_eq!(large.stats.partitions_loaded, 0, "large k should take RR");
        // Both remain Theorem-3-identical to the explicit calls.
        assert_eq!(small.seeds, index.query_irr(&Query::new([0, 1], 5)).unwrap().seeds);
        assert_eq!(large.seeds, index.query_rr(&Query::new([0, 1], 30)).unwrap().seeds);
    }

    #[test]
    fn query_auto_on_rr_variant_never_uses_irr() {
        let data = dataset(300, 4, 67);
        let model = IcModel::weighted_cascade(&data.graph);
        let dir = TempDir::new("irrq-auto-rr").unwrap();
        let config = IndexBuildConfig {
            variant: IndexVariant::Rr,
            sampling: SamplingConfig {
                theta_cap: Some(500),
                opt_initial_samples: 64,
                opt_max_rounds: 4,
                ..SamplingConfig::fast()
            },
            ..IndexBuildConfig::default()
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let outcome = index.query_auto(&Query::new([0], 2)).unwrap();
        assert_eq!(outcome.stats.partitions_loaded, 0);
    }

    #[test]
    fn io_counted_per_query() {
        let data = dataset(400, 4, 53);
        let dir = TempDir::new("irrq-io").unwrap();
        build_irr(&data, dir.path(), 10);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let q = Query::new([0, 1], 6);
        let first = index.query_irr(&q).unwrap();
        let second = index.query_irr(&q).unwrap();
        // Stats are per query (deltas), not cumulative.
        assert_eq!(first.stats.io.read_ops, second.stats.io.read_ops);
        assert!(first.stats.io.read_ops > 0);
    }
}
