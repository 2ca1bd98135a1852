//! Algorithm 2 — `QueryRR`: answer a KB-TIM query from the RR index.
//!
//! For each query keyword `w`, load the first `θ^Q_w = θ^Q·p_w` RR sets
//! (a sequential prefix read, ids are ordinals) and the whole inverted
//! list `L_w`; remap per-keyword RR ids into one global id space; run the
//! shared greedy maximum-coverage loop over the merged instance. Lemma 2
//! guarantees the prefix mix is an unbiased WRIS sample, so Theorem 2's
//! approximation bound carries over.
//!
//! Keyword segments load and decode **in parallel** (one job per query
//! keyword × index shard on the index's pool, keyword-major); per-job
//! results carry precomputed global id bases and merge in job order —
//! for each keyword, its shards in shard order — so the assembled
//! coverage instance — and therefore the answer — is identical for
//! every thread count *and every shard count*: users are
//! range-partitioned across shards and keep their global-build rr-id
//! lists, so the shard-order gather is exactly the monolithic decode.
//!
//! The whole data path is flat and zero-copy: block bytes arrive as
//! borrowed [`kbtim_storage::BlockSource`] views (or through pooled
//! staging buffers on the file backend), each keyword's `L_w` decodes
//! straight into a pooled [`format::IlCsr`] arena, and one merge
//! function ([`InvertedIndex::merge`] under the query's budget) k-way
//! merges those sorted CSRs — truncated to each keyword's share
//! and shifted into the global id space on the fly — into a compact
//! [`InvertedIndex`] over the touched users only. Every serving path
//! (per-request, batched, delta, in-memory) merges through it, so a
//! query's merge and greedy cost follows its decoded entries, never
//! `|V|`: no per-user allocation, no table sized by the user space, no
//! hash probes in the greedy loop.

use crate::format::{self, IlCsr};
use crate::scratch::{KeywordArena, QueryScratch};
use crate::{IndexError, KbtimIndex, QueryCtx, QueryOutcome, QueryStats};
use kbtim_core::invindex::InvertedIndex;
use kbtim_core::maxcover::greedy_max_cover_inverted_until;
use kbtim_topics::{Query, TopicId};
use std::time::Instant;

impl KbtimIndex {
    /// Answer `query` with Algorithm 2 (works on both index variants).
    pub fn query_rr(&self, query: &Query) -> Result<QueryOutcome, IndexError> {
        self.query_rr_ctx(query, &QueryCtx::default())
    }

    /// [`KbtimIndex::query_rr`] under an execution context: the
    /// deadline (if any) is checked after the keyword decode and once
    /// per greedy round, aborting with
    /// [`IndexError::DeadlineExceeded`] — never with partial seeds.
    /// The `engine.decode` / `engine.merge` / `engine.greedy`
    /// failpoints fire at the matching stage boundaries.
    pub fn query_rr_ctx(&self, query: &Query, ctx: &QueryCtx) -> Result<QueryOutcome, IndexError> {
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

        // Scatter-gather: one job per (keyword × shard), keyword-major,
        // so gathering in job order is "for each keyword, for each shard
        // in shard order" — the exact concatenation that reproduces the
        // monolithic decode (each user lives in one shard and keeps its
        // global-build rr-id list there). With one shard this is the
        // per-keyword fan-out unchanged.
        let num_shards = self.num_shards();
        let pool = self.pool();
        type KeywordScan = (IlCsr, u64);
        let scans: Vec<Result<KeywordScan, IndexError>> = pool.map_shards_with(
            budget.len() * num_shards,
            || self.scratch.guard(),
            |guard, i| {
                let s: &mut QueryScratch = &mut *guard;
                let (topic, share) = budget[i / num_shards];
                let source = self.source_in(i % num_shards, topic)?;

                // Prefix of the offset table → byte length of the RR prefix.
                let off_bytes =
                    source.read_range_in(format::RR_OFF_BLOCK, share * 8, 8, &mut s.bytes_a)?;
                let prefix_len = u64::from_le_bytes(off_bytes.try_into().expect("8 bytes"));

                // The RR-set prefix itself (bulk-decoded into the pooled
                // arena for faithful query-time cost; greedy itself runs
                // off the inverted lists).
                let rr_bytes =
                    source.read_range_in(format::RR_BLOCK, 0, prefix_len, &mut s.bytes_a)?;
                format::decode_rr_prefix_into(
                    rr_bytes,
                    share,
                    codec,
                    &mut s.rr_members,
                    &mut s.rr_ends,
                )?;
                debug_assert_eq!(s.rr_ends.len() as u64, share + 1);

                // Whole L_w decoded into one pooled CSR arena; the merge
                // truncates it to the prefix and shifts it into the
                // global id space as it reads.
                let il_bytes = source.read_block_in(format::IL_BLOCK, &mut s.bytes_b)?;
                let mut csr = self.scratch.take_csr();
                format::decode_il_csr_into(il_bytes, codec, &mut csr)?;
                // θ^Q_w logical sets load once per keyword, fragmented
                // across the shards — charge the count to one job so
                // `rr_sets_loaded == θ^Q` for every shard count.
                Ok((csr, if i % num_shards == 0 { share } else { 0 }))
            },
        );

        let mut keyword_csrs = Vec::with_capacity(scans.len());
        let mut rr_sets_loaded = 0u64;
        for scan in scans {
            let (csr, share) = scan?;
            rr_sets_loaded += share;
            keyword_csrs.push(csr);
        }

        // Early aborts past this point hand the leased CSRs back so the
        // scratch books survive fault storms without regrowing.
        let recycle = |csrs: Vec<IlCsr>| {
            for csr in csrs {
                self.scratch.put_csr(csr);
            }
        };
        if let Err(e) = ctx.check() {
            recycle(keyword_csrs);
            return Err(e);
        }
        if kbtim_fault::inject("engine.merge") {
            recycle(keyword_csrs);
            return Err(IndexError::Injected("engine.merge"));
        }

        // Keyword-major jobs hand each keyword its shard pieces in shard
        // order, exactly the runs the merge expects.
        let (theta_q, inverted) =
            merge_budget(&budget, |i| &keyword_csrs[i * num_shards..(i + 1) * num_shards]);
        recycle(keyword_csrs);

        if kbtim_fault::inject("engine.greedy") {
            return Err(IndexError::Injected("engine.greedy"));
        }
        let cover =
            greedy_max_cover_inverted_until(&inverted, theta_q, query.k(), pool, &|| ctx.expired());
        let Some(cover) = cover else {
            return Err(IndexError::DeadlineExceeded);
        };
        let estimated_influence =
            if theta_q == 0 { 0.0 } else { cover.covered as f64 / theta_q as f64 * phi_q };
        Ok(QueryOutcome {
            seeds: cover.seeds,
            marginal_gains: cover.marginal_gains,
            coverage: cover.covered,
            estimated_influence,
            stats: QueryStats {
                theta_q,
                rr_sets_loaded,
                partitions_loaded: 0,
                io: self.io_stats().snapshot().since(&io_before),
                elapsed: started.elapsed(),
            },
        })
    }
}

impl KbtimIndex {
    /// Decode each wanted keyword **once** into a shared
    /// [`KeywordArena`] — the batch planner's entry point.
    ///
    /// `wants` pairs each keyword with the widest `θ^Q_w` share any
    /// request in the batch asks of it. Sorted, duplicate-free input is
    /// used as-is; anything else is normalized first (sorted ascending,
    /// duplicate topics merged at their widest share), so the arena's
    /// lookup invariant holds for any caller. Per keyword, one fan-out
    /// shard (on the
    /// index-owned pool) reads and decodes the RR prefix at that widest
    /// share plus the whole inverted list `L_w` into a pool-leased CSR.
    /// The planner then serves any number of requests from the one
    /// arena — [`KbtimIndex::merge_keywords`] once per distinct keyword
    /// set, [`KbtimIndex::query_merged`] once per request
    /// ([`KbtimIndex::query_rr_prepared`] /
    /// [`KbtimIndex::query_irr_prepared`] are the single-request form
    /// of the same pair); return the arena with
    /// [`KbtimIndex::recycle_keywords`] when the batch completes.
    ///
    /// Decoded bytes are identical to what the per-request paths decode,
    /// so prepared answers are bit-identical to unbatched ones.
    pub fn decode_keywords(&self, wants: &[(TopicId, u64)]) -> Result<KeywordArena, IndexError> {
        // KeywordArena::csr binary-searches `topics`, so the build order
        // must be strictly ascending — normalize rather than trust the
        // caller (a silently unsorted arena would misreport healthy
        // keywords as missing).
        let owned: Vec<(TopicId, u64)>;
        let wants = if wants.windows(2).all(|w| w[0].0 < w[1].0) {
            wants
        } else {
            let mut sorted = wants.to_vec();
            sorted.sort_by_key(|&(topic, _)| topic);
            sorted.dedup_by(|next, kept| {
                if next.0 == kept.0 {
                    kept.1 = kept.1.max(next.1);
                    true
                } else {
                    false
                }
            });
            owned = sorted;
            &owned
        };
        if kbtim_fault::inject("engine.decode") {
            return Err(IndexError::Injected("engine.decode"));
        }
        let codec = self.meta().codec;
        // Keyword-major (keyword × shard) fan-out, like `query_rr_ctx`:
        // gathering appends each keyword's shard CSRs in shard order,
        // which reproduces the monolithic `L_w` exactly.
        let num_shards = self.num_shards();
        let scans: Vec<Result<IlCsr, IndexError>> = self.pool().map_shards_with(
            wants.len() * num_shards,
            || self.scratch.guard(),
            |guard, i| {
                let s: &mut QueryScratch = &mut *guard;
                let (topic, share) = wants[i / num_shards];
                let source = self.source_in(i % num_shards, topic)?;
                // RR prefix at the widest share in the batch, decoded
                // once for every consumer (faithful query-time cost, as
                // in `query_rr`; the answers come off the inverted
                // lists).
                if share > 0 {
                    let off_bytes =
                        source.read_range_in(format::RR_OFF_BLOCK, share * 8, 8, &mut s.bytes_a)?;
                    let prefix_len = u64::from_le_bytes(off_bytes.try_into().expect("8 bytes"));
                    let rr_bytes =
                        source.read_range_in(format::RR_BLOCK, 0, prefix_len, &mut s.bytes_a)?;
                    format::decode_rr_prefix_into(
                        rr_bytes,
                        share,
                        codec,
                        &mut s.rr_members,
                        &mut s.rr_ends,
                    )?;
                }
                // The whole L_w into a pool-leased CSR the arena keeps
                // (truncation to each request's share happens at merge
                // time, read-only).
                let il_bytes = source.read_block_in(format::IL_BLOCK, &mut s.bytes_b)?;
                let mut csr = self.scratch.take_csr();
                format::decode_il_csr_into(il_bytes, codec, &mut csr)?;
                Ok(csr)
            },
        );
        let mut arena = KeywordArena::default();
        let mut scans = scans.into_iter();
        for &(topic, share) in wants {
            // Shard 0's CSR absorbs the rest in shard order; users are
            // range-partitioned, so the result is the monolithic block.
            let mut csr = scans.next().expect("one scan per (keyword, shard)")?;
            for _ in 1..num_shards {
                let extra = scans.next().expect("one scan per (keyword, shard)")?;
                csr.append(&extra);
                self.scratch.put_csr(extra);
            }
            arena.topics.push(topic);
            arena.csrs.push(csr);
            arena.rr_sets_decoded += share;
        }
        Ok(arena)
    }

    /// Return a finished batch's arena CSRs to the scratch pool.
    pub fn recycle_keywords(&self, arena: KeywordArena) {
        for csr in arena.csrs {
            self.scratch.put_csr(csr);
        }
    }

    /// Build a keyword set's merged coverage instance from a batch's
    /// shared [`KeywordArena`] — everything of Algorithm 2 that depends
    /// on the keyword set alone.
    ///
    /// The Eqn-11 budget, the per-keyword global id bases, and the
    /// merged [`InvertedIndex`] are all functions of `query.topics()` —
    /// `Q.k` only bounds the greedy loop — so batched requests sharing
    /// a keyword set share one [`MergedQuery`] and differ only in their
    /// [`KbtimIndex::query_merged`] call. The merge is the one every
    /// serving path runs (each keyword's full CSR truncated to its
    /// `θ^Q_w` share and shifted into the query's global id space, in
    /// keyword order), so the instance is bit-identical to the
    /// per-request path's.
    pub fn merge_keywords(
        &self,
        query: &Query,
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        let (phi_q, budget) = self.query_budget(query);
        self.merge_budgeted(phi_q, &budget, arena)
    }

    /// [`KbtimIndex::merge_keywords`] with the Eqn-11 budget already
    /// computed — the batch planner derives each group's budget while
    /// building the decode union and must not pay for it twice, and the
    /// delta tier merges its union arena (base segments plus in-memory
    /// overlays) through here too.
    pub(crate) fn merge_budgeted(
        &self,
        phi_q: f64,
        budget: &[(TopicId, u64)],
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        if kbtim_fault::inject("engine.merge") {
            return Err(IndexError::Injected("engine.merge"));
        }
        MergedQuery::from_arena(phi_q, budget, arena)
    }

    /// Run one request's own greedy over a shared [`MergedQuery`]
    /// instance. Infallible: routing and merge errors surfaced earlier.
    ///
    /// Stats follow the [`MemoryIndex`](crate::MemoryIndex) convention:
    /// `rr_sets_loaded` reports the θ^Q budget; the physical reads were
    /// charged once to the batch when its arena was decoded.
    pub fn query_merged(&self, merged: &MergedQuery, k: u32) -> QueryOutcome {
        self.query_merged_inner(merged, k, &|| false)
            .expect("greedy with a never-firing stop cannot abort")
    }

    /// [`KbtimIndex::query_merged`] under an execution context: the
    /// deadline (if any) is checked on entry and once per greedy round
    /// (and the `engine.greedy` failpoint fires on entry), aborting
    /// with an error instead of partial seeds.
    pub fn query_merged_ctx(
        &self,
        merged: &MergedQuery,
        k: u32,
        ctx: &QueryCtx,
    ) -> Result<QueryOutcome, IndexError> {
        if kbtim_fault::inject("engine.greedy") {
            return Err(IndexError::Injected("engine.greedy"));
        }
        ctx.check()?;
        self.query_merged_inner(merged, k, &|| ctx.expired()).ok_or(IndexError::DeadlineExceeded)
    }

    fn query_merged_inner(
        &self,
        merged: &MergedQuery,
        k: u32,
        should_stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<QueryOutcome> {
        let started = Instant::now();
        if merged.theta_q == 0 {
            return Some(empty_outcome(started));
        }
        let cover = greedy_max_cover_inverted_until(
            &merged.inverted,
            merged.theta_q,
            k,
            self.pool(),
            should_stop,
        )?;
        let estimated_influence = cover.covered as f64 / merged.theta_q as f64 * merged.phi_q;
        Some(QueryOutcome {
            seeds: cover.seeds,
            marginal_gains: cover.marginal_gains,
            coverage: cover.covered,
            estimated_influence,
            stats: QueryStats {
                theta_q: merged.theta_q,
                rr_sets_loaded: merged.theta_q,
                partitions_loaded: 0,
                io: Default::default(),
                elapsed: started.elapsed(),
            },
        })
    }

    /// Release a finished [`MergedQuery`]. Merged instances are
    /// allocated at their exact size and are not pooled, so this is a
    /// drop; it stays as the counterpart of
    /// [`KbtimIndex::merge_keywords`] for callers that pair the two.
    pub fn recycle_merged(&self, merged: MergedQuery) {
        drop(merged);
    }

    /// Algorithm 2 served from a batch's shared [`KeywordArena`] instead
    /// of per-request reads — the RR batch entry
    /// ([`KbtimIndex::merge_keywords`] + [`KbtimIndex::query_merged`]
    /// for one request; the batch planner shares the merge across
    /// same-keyword-set requests too).
    ///
    /// The budget, merge order, and greedy loop are exactly
    /// [`KbtimIndex::query_rr`]'s; only where the decoded `L_w` comes
    /// from differs, so the answer is bit-identical to the unbatched
    /// path (enforced by `tests/concurrent_equiv.rs` proptests).
    pub fn query_rr_prepared(
        &self,
        query: &Query,
        arena: &KeywordArena,
    ) -> Result<QueryOutcome, IndexError> {
        let merged = self.merge_keywords(query, arena)?;
        Ok(self.query_merged(&merged, query.k()))
    }
}

/// A keyword set's merged coverage instance, shared by every batched
/// request over that set (see [`KbtimIndex::merge_keywords`]).
pub struct MergedQuery {
    /// Total tf-idf mass of the query's held keywords (`φ_Q`).
    phi_q: f64,
    /// `θ^Q = Σ_w θ^Q_w` — the global id space of `inverted`.
    theta_q: u64,
    /// The merged, truncated, remapped coverage instance.
    inverted: InvertedIndex,
}

impl MergedQuery {
    /// Merge a batch arena's keywords under an Eqn-11 budget (no
    /// failpoint; see [`KbtimIndex::merge_keywords`] for the public
    /// entry).
    pub(crate) fn from_arena(
        phi_q: f64,
        budget: &[(TopicId, u64)],
        arena: &KeywordArena,
    ) -> Result<MergedQuery, IndexError> {
        let mut pieces = Vec::with_capacity(budget.len());
        for &(topic, _) in budget {
            pieces.push(arena.csr(topic).ok_or_else(|| {
                IndexError::Corrupt(format!("keyword {topic} missing from the batch arena"))
            })?);
        }
        let (theta_q, inverted) = merge_budget(budget, |i| std::slice::from_ref(pieces[i]));
        Ok(MergedQuery { phi_q, theta_q, inverted })
    }

    /// The merged instance's total RR-set budget `θ^Q`.
    pub fn theta_q(&self) -> u64 {
        self.theta_q
    }

    /// Heap bytes held by the merged instance's arenas (their
    /// capacities) — what a cached prepared query keeps resident. Grows
    /// with the merged entries and touched users, never with `|V|`.
    pub fn resident_bytes(&self) -> u64 {
        self.inverted.arena_bytes()
    }

    /// Slice a deeper greedy run over this instance down to its first
    /// `k` seeds.
    ///
    /// CELF selects seeds strictly sequentially and `k` only bounds the
    /// loop, so the `k`-seed answer over a fixed instance *is* the
    /// `k`-prefix of any deeper run: same seeds, same marginal gains,
    /// coverage the same running sum, and the influence estimate the
    /// same arithmetic on those values — bit-identical to calling
    /// [`KbtimIndex::query_merged`] with `k` directly (enforced by the
    /// serving-tier tests). This lets the batch planner serve every
    /// same-keyword-set request from one max-`k` greedy run.
    pub fn prefix_outcome(&self, full: &QueryOutcome, k: u32) -> QueryOutcome {
        let n = (k as usize).min(full.seeds.len());
        let marginal_gains = full.marginal_gains[..n].to_vec();
        let coverage: u64 = marginal_gains.iter().sum();
        let estimated_influence = if self.theta_q == 0 {
            0.0
        } else {
            coverage as f64 / self.theta_q as f64 * self.phi_q
        };
        QueryOutcome {
            seeds: full.seeds[..n].to_vec(),
            marginal_gains,
            coverage,
            estimated_influence,
            stats: QueryStats {
                theta_q: self.theta_q,
                rr_sets_loaded: self.theta_q,
                partitions_loaded: 0,
                io: Default::default(),
                elapsed: full.stats.elapsed,
            },
        }
    }
}

/// Algorithm 2's merge, shared by every serving path: keyword `i` of
/// `budget` contributes the decoded `L_w` pieces `pieces(i)` (its
/// shards' CSRs in shard order, or one whole CSR), each truncated to the
/// keyword's share `θ^Q_w` and shifted by the keyword's global id base
/// (the prefix sum of the earlier shares). Returns `θ^Q` and the compact
/// merged instance; per-user lists concatenate in keyword order, so
/// global ids ascend.
pub(crate) fn merge_budget<'a>(
    budget: &[(TopicId, u64)],
    pieces: impl Fn(usize) -> &'a [IlCsr],
) -> (u64, InvertedIndex) {
    let mut runs = Vec::with_capacity(budget.len());
    let mut base = 0u64;
    for (i, &(_, share)) in budget.iter().enumerate() {
        runs.extend(pieces(i).iter().map(|csr| csr.run(share, base)));
        base += share;
    }
    (base, InvertedIndex::merge(&runs))
}

pub(crate) fn empty_outcome(started: Instant) -> QueryOutcome {
    QueryOutcome {
        seeds: Vec::new(),
        marginal_gains: Vec::new(),
        coverage: 0,
        estimated_influence: 0.0,
        stats: QueryStats { elapsed: started.elapsed(), ..QueryStats::default() },
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{IndexBuildConfig, IndexBuilder, ThetaMode};
    use crate::format::IndexVariant;
    use crate::KbtimIndex;
    use kbtim_codec::Codec;
    use kbtim_core::theta::SamplingConfig;
    use kbtim_core::wris::wris_query;
    use kbtim_datagen::{Dataset, DatasetConfig, DatasetFamily};
    use kbtim_propagation::model::IcModel;
    use kbtim_propagation::spread::monte_carlo_targeted;
    use kbtim_storage::{IoStats, TempDir};
    use kbtim_topics::Query;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        DatasetConfig::family(DatasetFamily::News).num_users(600).num_topics(8).seed(21).build()
    }

    fn build(data: &Dataset, dir: &std::path::Path, codec: Codec) {
        let model = IcModel::weighted_cascade(&data.graph);
        let config = IndexBuildConfig {
            sampling: SamplingConfig {
                theta_cap: Some(3000),
                opt_initial_samples: 128,
                opt_max_rounds: 8,
                ..SamplingConfig::fast()
            },
            codec,
            theta_mode: ThetaMode::Compact,
            variant: IndexVariant::Irr { partition_size: 20 },
            threads: 4,
            seed: 3,
            shards: 1,
        };
        IndexBuilder::new(&model, &data.profiles, config).build(dir).unwrap();
    }

    #[test]
    fn query_returns_seeds_and_stats() {
        let data = dataset();
        let dir = TempDir::new("rrq").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let query = Query::new([0, 1], 10);
        let outcome = index.query_rr(&query).unwrap();
        assert!(!outcome.seeds.is_empty());
        assert!(outcome.seeds.len() <= 10);
        assert!(outcome.estimated_influence > 0.0);
        assert!(outcome.stats.rr_sets_loaded > 0);
        assert_eq!(outcome.stats.rr_sets_loaded, outcome.stats.theta_q);
        assert!(outcome.stats.io.read_ops >= 3, "offsets + rr + il per keyword");
        assert!(outcome.stats.io.bytes_read > 0);
    }

    #[test]
    fn raw_and_packed_codecs_agree() {
        let data = dataset();
        let dir_a = TempDir::new("rrq-raw").unwrap();
        let dir_b = TempDir::new("rrq-packed").unwrap();
        build(&data, dir_a.path(), Codec::Raw);
        build(&data, dir_b.path(), Codec::Packed);
        let a = KbtimIndex::open(dir_a.path(), IoStats::new()).unwrap();
        let b = KbtimIndex::open(dir_b.path(), IoStats::new()).unwrap();
        for q in [Query::new([0], 5), Query::new([1, 2, 3], 8)] {
            let oa = a.query_rr(&q).unwrap();
            let ob = b.query_rr(&q).unwrap();
            assert_eq!(oa.seeds, ob.seeds, "same sampled sets, codec-independent");
            assert_eq!(oa.coverage, ob.coverage);
            // Compression must reduce bytes read.
            assert!(ob.stats.io.bytes_read < oa.stats.io.bytes_read);
        }
    }

    #[test]
    fn influence_estimate_tracks_monte_carlo() {
        let data = dataset();
        let dir = TempDir::new("rrq-mc").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let model = IcModel::weighted_cascade(&data.graph);
        let query = Query::new([0, 1, 2], 10);
        let outcome = index.query_rr(&query).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mc =
            monte_carlo_targeted(&model, &data.profiles, &query, &outcome.seeds, 20_000, &mut rng);
        let rel = (outcome.estimated_influence - mc).abs() / mc.max(1e-9);
        assert!(rel < 0.2, "index estimate {} vs MC {mc} (rel {rel})", outcome.estimated_influence);
    }

    #[test]
    fn index_seeds_quality_comparable_to_online_wris() {
        // Table 7's claim: the disk index loses nothing vs online WRIS.
        let data = dataset();
        let dir = TempDir::new("rrq-vs-wris").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let model = IcModel::weighted_cascade(&data.graph);
        let query = Query::new([0, 1], 10);
        let idx_outcome = index.query_rr(&query).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let config = SamplingConfig { theta_cap: Some(6000), ..SamplingConfig::fast() };
        let online = wris_query(&model, &data.profiles, &query, &config, &mut rng);
        let mut rng = SmallRng::seed_from_u64(10);
        let mc_idx = monte_carlo_targeted(
            &model,
            &data.profiles,
            &query,
            &idx_outcome.seeds,
            20_000,
            &mut rng,
        );
        let mc_online =
            monte_carlo_targeted(&model, &data.profiles, &query, &online.seeds, 20_000, &mut rng);
        let rel = (mc_idx - mc_online).abs() / mc_online.max(1e-9);
        assert!(rel < 0.1, "index spread {mc_idx} vs online {mc_online} (rel {rel})");
    }

    #[test]
    fn unheld_topic_query_is_empty() {
        let data = dataset();
        let dir = TempDir::new("rrq-empty").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        // Find an unheld topic if any; otherwise fabricate one by asking
        // only for a topic id that exists but may be held — fall back to
        // checking the budget logic directly.
        let unheld: Vec<u32> =
            (0..data.profiles.num_topics()).filter(|&w| data.profiles.doc_freq(w) == 0).collect();
        if let Some(&w) = unheld.first() {
            let outcome = index.query_rr(&Query::new([w], 4)).unwrap();
            assert!(outcome.seeds.is_empty());
            assert_eq!(outcome.stats.theta_q, 0);
        }
        let (phi_q, budget) = index.query_budget(&Query::new([0], 4));
        assert!(phi_q > 0.0);
        assert_eq!(budget.len(), 1);
    }

    #[test]
    fn merged_memory_is_independent_of_the_user_space() {
        use crate::format::IlCsr;
        use crate::rr_query::MergedQuery;
        use crate::scratch::KeywordArena;

        // Two keywords' L_w over 600 users — once with ids inside a
        // 1k-user space, once spread over a 10M-user space. The merge
        // takes no user count at all; only the ids differ.
        let arena_over = |spread: u32| {
            let mut arena = KeywordArena::default();
            for topic in 0..2u32 {
                let mut csr = IlCsr::default();
                for u in (0..600u32).filter(|u| (u + topic) % 3 != 0) {
                    csr.ids.extend((0..1 + u % 3).map(|i| u % 150 + i * 150 + topic));
                    csr.close_list(u * spread);
                }
                arena.topics.push(topic);
                arena.csrs.push(csr);
            }
            arena
        };
        let budget = [(0, 300), (1, 250)];
        let small = MergedQuery::from_arena(1.0, &budget, &arena_over(1)).unwrap();
        let wide = MergedQuery::from_arena(1.0, &budget, &arena_over(16_000)).unwrap();

        assert_eq!(small.theta_q(), wide.theta_q());
        assert_eq!(small.resident_bytes(), wide.resident_bytes());
        let (entries, users) = (small.inverted.total_entries(), small.inverted.len());
        assert_eq!(entries, wide.inverted.total_entries());
        assert!(entries > 0 && users > 0);
        // Exact-size arenas: ids, offsets (users + 1) and users, 4 B each
        // — at most 12 B per entry, whatever |V| is.
        assert_eq!(small.resident_bytes(), 4 * (entries + 2 * users + 1) as u64);
        assert!(small.resident_bytes() <= 12 * entries as u64 + 4);
    }

    #[test]
    fn budget_respects_eqn_11() {
        let data = dataset();
        let dir = TempDir::new("rrq-budget").unwrap();
        build(&data, dir.path(), Codec::Packed);
        let index = KbtimIndex::open(dir.path(), IoStats::new()).unwrap();
        let query = Query::new([0, 1, 2, 3], 10);
        let (phi_q, budget) = index.query_budget(&query);
        assert!(phi_q > 0.0);
        for &(topic, share) in &budget {
            let kw = &index.meta().keywords[topic as usize];
            assert!(share <= kw.theta, "θ^Q_w must not exceed the stored pool");
            // p_w-proportionality: share ≈ θ^Q · p_w.
            let p_w = kw.tf_sum * kw.idf / phi_q;
            let theta_q_total: u64 = budget.iter().map(|&(_, s)| s).sum();
            let expected = theta_q_total as f64 * p_w;
            assert!(
                (share as f64 - expected).abs() <= expected * 0.05 + 2.0,
                "topic {topic}: share {share} vs expected {expected:.1}"
            );
        }
    }
}
