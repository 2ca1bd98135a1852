//! Reusable per-query scratch state, pooled per index.
//!
//! The serving tier's steady state answers the same shapes of query over
//! and over; before this pool every query re-allocated its byte staging
//! buffers, per-keyword CSR arenas and the covered bitset. `ScratchPool`
//! keeps those allocations alive between queries, so a warmed index
//! allocates little per query beyond its merge: the merge's working
//! arrays and the merged instance, both sized by the query's entries,
//! not by `|V|`.
//!
//! Why a lock-based pool and not `thread_local!`: scratch must flow
//! across threads. [`kbtim_exec::ExecPool`] workers (persistent or
//! scoped) pick up whichever shard comes next, and a served index takes
//! queries from many client threads at once — a thread-local would pin
//! each warmed buffer to one thread and leak one copy per client. The
//! pool instead hands each worker a `ScratchGuard` (one mutex pop), the
//! worker fills it, and the guard's drop pushes the block back for the
//! next query — on any thread. Concurrent queries simply lease distinct
//! blocks; the pool grows to the high-water concurrency and then stops
//! allocating. Contention is one short lock op per shard batch, noise
//! next to a block decode.
//!
//! Determinism: scratch contents never influence results — every buffer
//! is cleared or fully overwritten before use, which the serving
//! equivalence proptests (same seeds for every backend × thread count)
//! exercise end to end.

use crate::format::{IlCsr, PartitionMeta};
use kbtim_core::bitset::Bitset;
use kbtim_graph::NodeId;
use kbtim_topics::TopicId;
use std::cmp::Reverse;
use std::sync::Mutex;

/// A request group's shared keyword decode: each distinct keyword of a
/// batch decoded **once**, then consumed by any number of requests.
///
/// The serving tier's cross-request batch planner
/// ([`crate::serve::QueryEngine`]) builds one arena per admitted batch
/// via [`crate::KbtimIndex::decode_keywords`]: the full inverted-list
/// CSR of every distinct keyword any batched request needs, plus the RR
/// prefix decode at the *widest* share in the group (for faithful
/// query-time cost). Consumers ([`crate::KbtimIndex::merge_keywords`]
/// per keyword set; [`crate::KbtimIndex::query_rr_prepared`] /
/// [`crate::KbtimIndex::query_irr_prepared`] for single requests) then
/// truncate and remap the shared CSRs against their own Eqn-11
/// budgets — read-only, so any number of requests consume one arena
/// without copies.
///
/// Invariants: `topics` is strictly ascending and parallel to `csrs`;
/// every CSR holds a keyword's *complete* `L_w` (truncation is
/// per-request). The CSR arenas are leased from the index's scratch
/// pool and must go back via
/// [`crate::KbtimIndex::recycle_keywords`] when the batch finishes.
#[derive(Default)]
pub struct KeywordArena {
    /// Distinct decoded keywords, strictly ascending.
    pub(crate) topics: Vec<TopicId>,
    /// Full `L_w` CSR per keyword, parallel to `topics`.
    pub(crate) csrs: Vec<IlCsr>,
    /// RR sets decoded across the arena (each keyword at the widest
    /// share any batched request asked of it) — the books behind the
    /// engine's batching counters.
    pub(crate) rr_sets_decoded: u64,
}

impl KeywordArena {
    /// Number of distinct keywords decoded into this arena.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Whether the arena holds no keywords (a batch of empty-budget or
    /// memory-only requests).
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// RR sets decoded once for the whole batch (Σ per-keyword widest
    /// share).
    pub fn rr_sets_decoded(&self) -> u64 {
        self.rr_sets_decoded
    }

    /// The decoded full CSR of `topic`, if the arena holds it.
    pub(crate) fn csr(&self, topic: TopicId) -> Option<&IlCsr> {
        self.topics.binary_search(&topic).ok().map(|i| &self.csrs[i])
    }
}

/// One IRR query keyword's reusable NRA tables (the `KwState` backing
/// store): the `decode_ip` output, the partition catalog, the per-slot
/// loaded-list spans and the shared list arena. Before these were
/// pooled, every `query_irr` re-allocated all six per keyword — the bulk
/// of irr's ~400 allocations/query vs rr's ~16.
#[derive(Default)]
pub(crate) struct KwBufs {
    /// `IP_w` keys: users with at least one occurrence, ascending.
    pub(crate) users: Vec<NodeId>,
    /// First-occurrence ids, parallel to `users`.
    pub(crate) firsts: Vec<u32>,
    /// Partition catalog (rows and their `ir_samples` reused in place).
    pub(crate) partitions: Vec<PartitionMeta>,
    /// Arena start of each slot's truncated list, parallel to `users`.
    pub(crate) list_start: Vec<u32>,
    /// Truncated list length per slot.
    pub(crate) list_len: Vec<u32>,
    /// Loaded inverted lists, back to back in load order.
    pub(crate) arena: Vec<u32>,
}

impl KwBufs {
    /// Empty the tables, keeping every capacity.
    pub(crate) fn clear(&mut self) {
        self.users.clear();
        self.firsts.clear();
        // Keep the rows: decode_partition_meta_into overwrites in place.
        self.list_start.clear();
        self.list_len.clear();
        self.arena.clear();
    }
}

/// One worker's reusable buffers. All fields are cleared by their users
/// before refilling; only capacities persist between queries.
#[derive(Default)]
pub struct QueryScratch {
    /// Byte staging for file-backend block/range reads (zero-copy
    /// backends never touch it).
    pub(crate) bytes_a: Vec<u8>,
    /// Second staging buffer for when two raw blocks are alive at once
    /// (e.g. an IL block decoded while RR bytes are still borrowed).
    pub(crate) bytes_b: Vec<u8>,
    /// Bulk RR-prefix decode arena (all member lists back to back).
    pub(crate) rr_members: Vec<u32>,
    /// Per-set end boundaries into `rr_members`.
    pub(crate) rr_ends: Vec<u32>,
    /// Inverted-list block decode target.
    pub(crate) il: IlCsr,
    /// IR-entry member decode scratch (the NRA loop only needs counts).
    pub(crate) ir_members: Vec<u32>,
    /// Covered-RR-set bitset of the IRR NRA loop.
    pub(crate) covered: Bitset,
    /// The IRR NRA loop's seeds so far, ascending (membership is a
    /// binary search; nothing per query is sized by `|V|`).
    pub(crate) selected: Vec<NodeId>,
    /// Per-keyword NRA tables, one entry per query keyword (grown to the
    /// widest query seen).
    pub(crate) kw_bufs: Vec<KwBufs>,
    /// Backing store of the NRA candidate heap (capacity survives
    /// between queries via `BinaryHeap::into_vec`).
    pub(crate) nra_heap: Vec<(u64, Reverse<NodeId>)>,
    /// Fresh-candidate staging of the IRR partition loader.
    pub(crate) nra_fresh: Vec<NodeId>,
}

/// Shared pool of [`QueryScratch`] blocks plus recycled per-keyword
/// CSRs. One per opened index.
#[derive(Default)]
pub(crate) struct ScratchPool {
    scratch: Mutex<Vec<QueryScratch>>,
    /// Spare per-keyword CSRs (each query keyword's decoded `L_w`).
    csrs: Mutex<Vec<IlCsr>>,
}

impl ScratchPool {
    pub(crate) fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Borrow a scratch block; returned to the pool when the guard
    /// drops.
    pub(crate) fn guard(&self) -> ScratchGuard<'_> {
        let block = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        ScratchGuard { pool: self, block: Some(block) }
    }

    /// Take a spare per-keyword CSR (empty, capacity preserved).
    pub(crate) fn take_csr(&self) -> IlCsr {
        self.csrs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Return a per-keyword CSR for reuse.
    pub(crate) fn put_csr(&self, mut csr: IlCsr) {
        csr.reset();
        self.csrs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(csr);
    }
}

/// RAII loan of a [`QueryScratch`]; derefs to the block and returns it
/// to the owning pool on drop.
pub(crate) struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    block: Option<QueryScratch>,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = QueryScratch;

    fn deref(&self) -> &QueryScratch {
        self.block.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        self.block.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let block = self.block.take().expect("scratch present until drop");
        self.pool.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_returns_block_to_pool() {
        let pool = ScratchPool::new();
        {
            let mut g = pool.guard();
            g.bytes_a.resize(1024, 0);
        }
        // The same (warm) block comes back.
        let g = pool.guard();
        assert!(g.bytes_a.capacity() >= 1024, "capacity must survive the round trip");
        assert_eq!(pool.scratch.lock().unwrap().len(), 0, "block is out on loan");
    }

    #[test]
    fn concurrent_guards_get_distinct_blocks() {
        let pool = ScratchPool::new();
        let a = pool.guard();
        let b = pool.guard();
        drop(a);
        drop(b);
        assert_eq!(pool.scratch.lock().unwrap().len(), 2);
    }

    #[test]
    fn csr_round_trip_is_reset() {
        let pool = ScratchPool::new();
        let mut csr = pool.take_csr();
        csr.ids.extend([1, 2, 3]);
        csr.close_list(7);
        pool.put_csr(csr);
        let csr = pool.take_csr();
        assert!(csr.is_empty());
        assert_eq!(csr.offsets, vec![0], "reset to the empty-CSR invariant");
    }

    #[test]
    fn kw_bufs_clear_keeps_capacity_and_catalog_rows() {
        let mut bufs = KwBufs::default();
        bufs.users.extend([1, 5, 9]);
        bufs.firsts.extend([0, 2, 7]);
        bufs.list_start.extend([0, 3]);
        bufs.list_len.extend([3, 2]);
        bufs.arena.extend([10, 11, 12, 20, 21]);
        bufs.partitions.push(crate::format::PartitionMeta {
            il_start: 0,
            il_end: 8,
            ir_start: 0,
            ir_end: 4,
            rr_count: 2,
            user_count: 2,
            max_len_after: 1,
            ir_samples: vec![(0, 0)],
        });
        let arena_cap = bufs.arena.capacity();
        bufs.clear();
        assert!(bufs.users.is_empty() && bufs.arena.is_empty() && bufs.list_start.is_empty());
        assert_eq!(bufs.arena.capacity(), arena_cap, "clear must keep capacities");
        // Catalog rows stay: decode_partition_meta_into overwrites them
        // in place so their ir_samples buffers are reused.
        assert_eq!(bufs.partitions.len(), 1);
    }
}
