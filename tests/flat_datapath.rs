//! Property tests for the flat arena data path.
//!
//! The hot stages (sampling → inversion → greedy coverage → index
//! serving) now run on CSR arenas ([`RrBatch`], [`InvertedIndex`]) and a
//! word-packed coverage bitset. These tests pin the two contracts the
//! refactor rests on:
//!
//! 1. the arena representations are *lossless* — they round-trip through
//!    the Vec-of-Vec / HashMap oracles (`RrBatch::to_vecs`,
//!    `maxcover::invert`) on arbitrary instances;
//! 2. the bitset CELF loop is *bit-identical* to the naive full-recount
//!    oracle for every thread count;
//! 3. the serving paths' sparse k-way merge builds exactly the instance
//!    the dense counting-sort merge (a `|V| + 1` offset table indexed by
//!    user id, kept below as a test-only oracle) built, and greedy over
//!    it answers bit-identically for every `k`.

use kbtim::core::invindex::InvertedIndex;
use kbtim::core::maxcover::{
    greedy_max_cover_batch, greedy_max_cover_inverted_with, greedy_max_cover_naive,
    greedy_max_cover_with, invert,
};
use kbtim::index::format::IlCsr;
use kbtim::propagation::RrBatch;
use kbtim_exec::ExecPool;
use proptest::prelude::*;

/// Random RR-set-shaped instances: sorted, deduplicated member lists.
fn rr_instances() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..120, 0..10), 0..150).prop_map(
        |mut sets| {
            for set in &mut sets {
                set.sort_unstable();
                set.dedup();
            }
            sets
        },
    )
}

/// Query keywords: each a pool of RR sets over 30 user slots (shared
/// across keywords) plus the percentage of the pool the query keeps as
/// its share — 0 and 100 included, as are empty pools.
fn keyword_pools() -> impl Strategy<Value = Vec<(Vec<Vec<u32>>, u64)>> {
    let pool = proptest::collection::vec(proptest::collection::vec(0u32..30, 0..6), 0..30);
    proptest::collection::vec((pool, 0u64..=100), 1..5)
}

/// User id of slot `i`: strictly increasing with wide, uneven gaps.
fn gappy(i: u32) -> u32 {
    i * i * 211 + i
}

/// A keyword's `L_w` as the disk index stores it (`IL_BLOCK`): users
/// ascending, each user's rr ids ascending.
fn il_csr(pool: &[Vec<u32>]) -> IlCsr {
    let mut by_user = std::collections::BTreeMap::<u32, Vec<u32>>::new();
    for (rr, set) in pool.iter().enumerate() {
        for &slot in set {
            let list = by_user.entry(gappy(slot)).or_default();
            if list.last() != Some(&(rr as u32)) {
                list.push(rr as u32);
            }
        }
    }
    let mut csr = IlCsr::default();
    for (user, list) in by_user {
        csr.ids.extend(list);
        csr.close_list(user);
    }
    csr
}

/// The users of `csr` in `lo..hi` (one shard of a user-range split).
fn shard(csr: &IlCsr, lo: u32, hi: u32) -> IlCsr {
    let mut part = IlCsr::default();
    for j in (0..csr.len()).filter(|&j| (lo..hi).contains(&csr.users[j])) {
        part.ids.extend_from_slice(csr.list(j));
        part.close_list(csr.users[j]);
    }
    part
}

/// The dense counting-sort merge the serving paths ran before the
/// sparse merge: count each user's truncated entries into a table over
/// every user id, prefix-sum it into `num_users + 1` offsets, then fill
/// keyword by keyword with ids shifted by the keyword's base. Returns
/// the dense offsets and the id arena.
fn dense_merge(num_users: usize, keywords: &[(IlCsr, u64)]) -> (Vec<u32>, Vec<u32>) {
    let cut = |list: &[u32], share: u64| list.partition_point(|&id| u64::from(id) < share);
    let mut counts = vec![0u32; num_users];
    for (csr, share) in keywords {
        for j in 0..csr.len() {
            counts[csr.users[j] as usize] += cut(csr.list(j), *share) as u32;
        }
    }
    let mut offsets = vec![0u32; num_users + 1];
    for v in 0..num_users {
        offsets[v + 1] = offsets[v] + counts[v];
    }
    let mut cursor = offsets[..num_users].to_vec();
    let mut ids = vec![0u32; offsets[num_users] as usize];
    let mut base = 0u64;
    for (csr, share) in keywords {
        for j in 0..csr.len() {
            let list = csr.list(j);
            for &id in &list[..cut(list, *share)] {
                let c = &mut cursor[csr.users[j] as usize];
                ids[*c as usize] = (base + u64::from(id)) as u32;
                *c += 1;
            }
        }
        base += share;
    }
    (offsets, ids)
}

/// Arbitrary instances: unsorted, possibly with duplicate members.
fn messy_instances() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..60, 0..8), 0..80)
}

proptest! {
    #[test]
    fn rr_batch_roundtrips_vec_of_vec(sets in rr_instances()) {
        let batch = RrBatch::from_sets(&sets);
        prop_assert_eq!(batch.len(), sets.len());
        prop_assert_eq!(batch.total_members(), sets.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(batch.to_vecs(), sets);
    }

    #[test]
    fn rr_batch_append_is_concatenation(
        a in rr_instances(),
        b in rr_instances(),
    ) {
        let mut merged = RrBatch::from_sets(&a);
        merged.append(&RrBatch::from_sets(&b));
        let mut both = a;
        both.extend(b);
        prop_assert_eq!(merged, RrBatch::from_sets(&both));
    }

    #[test]
    fn inverted_index_matches_hashmap_oracle(sets in messy_instances()) {
        let inv = InvertedIndex::from_sets(&sets);
        let oracle = invert(&sets);
        prop_assert_eq!(inv.present().len(), oracle.len());
        prop_assert_eq!(
            inv.total_entries(),
            oracle.values().map(Vec::len).sum::<usize>()
        );
        for (&node, list) in &oracle {
            prop_assert_eq!(inv.list(node), list.as_slice(), "node {}", node);
        }
    }

    #[test]
    fn inverted_from_batch_matches_from_sets(sets in rr_instances()) {
        let batch = RrBatch::from_sets(&sets);
        prop_assert_eq!(InvertedIndex::from_batch(&batch), InvertedIndex::from_sets(&sets));
    }

    #[test]
    fn flat_celf_bit_identical_to_naive(sets in messy_instances(), k in 0u32..20) {
        let naive = greedy_max_cover_naive(&sets, k);
        for threads in [1usize, 2, 8] {
            let flat = greedy_max_cover_with(&sets, k, &ExecPool::new(Some(threads)));
            prop_assert_eq!(&flat, &naive, "threads {}", threads);
        }
    }

    #[test]
    fn batch_celf_bit_identical_to_naive(sets in rr_instances(), k in 0u32..20) {
        let batch = RrBatch::from_sets(&sets);
        let naive = greedy_max_cover_naive(&sets, k);
        for threads in [1usize, 4] {
            let flat = greedy_max_cover_batch(&batch, k, &ExecPool::new(Some(threads)));
            prop_assert_eq!(&flat, &naive, "threads {}", threads);
        }
    }

    #[test]
    fn sparse_merge_matches_dense_oracle(pools in keyword_pools()) {
        let keywords: Vec<(IlCsr, u64)> = pools
            .iter()
            .map(|(pool, pct)| (il_csr(pool), pool.len() as u64 * pct / 100))
            .collect();
        let num_users = gappy(30) as usize;
        let theta_q: u64 = keywords.iter().map(|(_, share)| share).sum();
        let (offsets, ids) = dense_merge(num_users, &keywords);
        let dense_list = |v: usize| &ids[offsets[v] as usize..offsets[v + 1] as usize];
        let dense_present: Vec<u32> =
            (0..num_users).filter(|&v| !dense_list(v).is_empty()).map(|v| v as u32).collect();
        // The merged instance's RR sets, for the naive greedy oracle.
        let mut sets = vec![Vec::new(); theta_q as usize];
        for &v in &dense_present {
            for &id in dense_list(v as usize) {
                sets[id as usize].push(v);
            }
        }

        for shards in [1u32, 2, 4] {
            // User-range shards, merged keyword-major in shard order —
            // the sharded index's scatter-gather layout.
            let width = (num_users as u32).div_ceil(shards);
            let pieces: Vec<Vec<IlCsr>> = keywords
                .iter()
                .map(|(csr, _)| (0..shards).map(|s| shard(csr, s * width, (s + 1) * width)).collect())
                .collect();
            let mut runs = Vec::new();
            let mut base = 0u64;
            for ((_, share), parts) in keywords.iter().zip(&pieces) {
                runs.extend(parts.iter().map(|part| part.run(*share, base)));
                base += share;
            }
            let merged = InvertedIndex::merge(&runs);
            prop_assert_eq!(merged.present(), dense_present.as_slice(), "shards {}", shards);
            for &v in &dense_present {
                prop_assert_eq!(merged.list(v), dense_list(v as usize), "user {}", v);
            }
            prop_assert_eq!(merged.total_entries(), ids.len());
            prop_assert_eq!(&merged, &InvertedIndex::from_sets(&sets));

            for k in 0..=dense_present.len() as u32 + 1 {
                let oracle = greedy_max_cover_naive(&sets, k);
                for threads in [1usize, 4] {
                    let pool = ExecPool::new(Some(threads));
                    let sparse = greedy_max_cover_inverted_with(&merged, theta_q, k, &pool);
                    prop_assert_eq!(&sparse, &oracle, "shards {} k {} threads {}", shards, k, threads);
                }
            }
        }
    }
}
