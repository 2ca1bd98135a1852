//! The ingest-mix oracle. The benchmark attaches its own `DeltaIndex` to
//! a copy of the generation-0 index, applies every acknowledged write in
//! the order of the generations the server acknowledged, and checks:
//!
//! * write acks carry generations 1, 2, … with no gap or repeat (every
//!   mutation and every flush advances the generation once), and on
//!   neither connection does the generation go down: no request is
//!   answered at a lower generation than an answer that had arrived
//!   before it was sent (requests in flight together may be answered in
//!   any order on the epoll front end);
//! * every query answer equals the replayed union snapshot at the
//!   generation the answer reports. An answer that instead equals an
//!   earlier generation the client could still observe (not before the
//!   last write it had seen acknowledged) is counted as a lagging
//!   generation label, not as a wrong answer;
//! * `DeltaIndex::verify` passes at the end, and the server's final
//!   on-disk generation answers like the replayed union.
//!
//! The replay also times each apply by verb and each flush, the delta
//! layer's per-layer metrics.

use crate::drive::{Entry, Op};
use crate::oracle::Answer;
use crate::trace::Tracer;
use crate::workload::{Req, Write};
use kbtim_index::{DeltaIndex, DeltaSnapshot, IndexBuildConfig, KbtimIndex, Mutation};
use kbtim_storage::IoStats;
use kbtim_topics::Query;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct IngestCheck {
    pub queries_checked: u64,
    pub mismatches: u64,
    pub label_lag: u64,
    pub problems: Vec<String>,
    /// Mean apply time per verb, ms: set_topic_weight, ingest_edge,
    /// ingest_user.
    pub apply_ms: [f64; 3],
    pub flush_ms: f64,
    pub overlay_keywords: f64,
    pub flushes: u64,
}

/// Replay and check one server's writes and queries.
pub fn check(
    entries: &[Entry],
    base_copy: &Path,
    data_dir: &Path,
    served_root: &Path,
    config: IndexBuildConfig,
    hot_sets: &[Vec<u32>],
    tracer: &mut Tracer,
) -> Result<IngestCheck, String> {
    let mut out = IngestCheck::default();
    // Acked writes, in acknowledged-generation order.
    let mut acks: Vec<(u64, Write, Instant, &Entry)> = Vec::new();
    for e in entries {
        let Op::Write(w) = &e.op else { continue };
        let Some(line) = e.rec.response.as_deref().filter(|_| e.rec.ok()) else { continue };
        let generation = kbtim::serve::Json::parse(line)
            .ok()
            .and_then(|j| j.get("generation").and_then(kbtim::serve::Json::as_u64))
            .ok_or_else(|| format!("write ack without a generation: {line}"))?;
        acks.push((generation, *w, e.at(e.rec.recv), e));
    }
    let acked: Vec<(Instant, Instant, u64)> =
        acks.iter().map(|a| (a.3.at(a.3.rec.sent), a.2, a.0)).collect();
    if let Some((seen, got)) = went_back(acked) {
        out.problems.push(format!("write acked at generation {got} after one at {seen}"));
    }
    acks.sort_by_key(|a| a.0);
    for (i, a) in acks.iter().enumerate() {
        if a.0 != i as u64 + 1 {
            out.problems.push(format!(
                "ack #{} carries generation {} (want {})",
                i + 1,
                a.0,
                i + 1
            ));
            break;
        }
    }

    let base = Arc::new(
        KbtimIndex::open(base_copy, IoStats::new()).map_err(|e| format!("replay open: {e}"))?,
    );
    let (graph, profiles) = crate::load_data(data_dir)?;
    let delta = DeltaIndex::attach(base, &graph, &profiles, config)
        .map_err(|e| format!("replay attach: {e}"))?;

    // Queries grouped by the generation they report.
    let mut queries: Vec<(u64, Instant, &Req, Answer)> = Vec::new();
    let mut answered: Vec<(Instant, Instant, u64)> = Vec::new();
    for e in entries {
        let Op::Query(req) = &e.op else { continue };
        let Some(answer) = e.rec.response.as_deref().and_then(Answer::parse) else { continue };
        let g = answer.generation.ok_or("query answer without a generation on a mutable server")?;
        answered.push((e.at(e.rec.sent), e.at(e.rec.recv), g));
        queries.push((g, e.at(e.rec.sent), req, answer));
    }
    if let Some((seen, got)) = went_back(answered) {
        out.problems.push(format!("query answered at generation {got} after one at {seen}"));
    }
    queries.sort_by_key(|q| q.0);
    // Highest generation acknowledged to the client before `t`.
    let ack_times: Vec<(Instant, u64)> = acks.iter().map(|a| (a.2, a.0)).collect();
    let seen_before = |t: Instant| -> u64 {
        ack_times.iter().filter(|a| a.0 < t).map(|a| a.1).max().unwrap_or(0)
    };

    let mut window: VecDeque<(u64, Arc<DeltaSnapshot>)> = VecDeque::new();
    window.push_back((0, delta.snapshot()));
    let mut memo: HashMap<(u64, Vec<u32>, u32), Answer> = HashMap::new();
    let mut apply_ms: [Vec<f64>; 3] = Default::default();
    let mut flush_ms = Vec::new();
    let mut overlay = Vec::new();
    let mut qi = 0;
    let mut generation = 0u64;
    loop {
        // Check every query reporting the current generation.
        while qi < queries.len() && queries[qi].0 <= generation {
            let (g, sent, req, answer) = &queries[qi];
            qi += 1;
            out.queries_checked += 1;
            let lowest = seen_before(*sent);
            let mut matched = None;
            for (sg, snap) in window.iter().rev().filter(|(sg, _)| *sg <= *g && *sg >= lowest) {
                let key = (*sg, req.topics.clone(), req.k);
                let expected = match memo.get(&key) {
                    Some(a) => a.clone(),
                    None => {
                        let q = Query::new(req.topics.iter().copied(), req.k);
                        let o = snap.query(&q).map_err(|e| format!("replay query: {e}"))?;
                        let a = Answer::from_outcome(&o);
                        memo.insert(key, a.clone());
                        a
                    }
                };
                if expected.same_as(answer) {
                    matched = Some(*sg);
                    break;
                }
            }
            match matched {
                Some(sg) if sg == *g => {}
                Some(_) => out.label_lag += 1,
                None => {
                    out.mismatches += 1;
                    if out.problems.len() < 8 {
                        out.problems.push(format!(
                            "ingest query {:?} k={} at generation {g} differs from the replay",
                            req.topics, req.k
                        ));
                    }
                }
            }
        }
        let Some(&(g, w, _, e)) = acks.get(generation as usize) else { break };
        if g != generation + 1 {
            break; // gap already reported
        }
        let id = e.rec.id;
        match w {
            Write::Flush => {
                let span = tracer.begin("delta.flush", None, id);
                let t = Instant::now();
                delta.flush().map_err(|e| format!("replay flush: {e}"))?;
                flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tracer.end(span);
                out.flushes += 1;
            }
            _ => {
                let (name, slot, m) = match w {
                    Write::SetTopicWeight { user, topic, weight } => (
                        "delta.apply.set_topic_weight",
                        0,
                        Mutation::SetTopicWeight { user, topic, weight },
                    ),
                    Write::IngestEdge { from, to } => {
                        ("delta.apply.ingest_edge", 1, Mutation::IngestEdge { from, to })
                    }
                    _ => ("delta.apply.ingest_user", 2, Mutation::IngestUser),
                };
                let span = tracer.begin(name, None, id);
                let t = Instant::now();
                delta.apply(&[m]).map_err(|e| format!("replay apply: {e}"))?;
                apply_ms[slot].push(t.elapsed().as_secs_f64() * 1e3);
                tracer.end(span);
                overlay.push(delta.stats().overlay_keywords as f64);
            }
        }
        generation = g;
        window.push_back((g, delta.snapshot()));
        if window.len() > 3 {
            window.pop_front();
        }
    }
    for q in &queries[qi..] {
        out.mismatches += 1;
        out.problems.push(format!("query reports generation {} beyond the acked writes", q.0));
    }

    delta.verify().map_err(|e| format!("DeltaIndex::verify failed after the replay: {e}"))?;
    // The server's final generation must answer like the replayed union.
    let served = KbtimIndex::open(served_root, IoStats::new())
        .map_err(|e| format!("open served generation: {e}"))?;
    let snap = delta.snapshot();
    for set in hot_sets {
        let q = Query::new(set.iter().copied(), 25);
        let a = Answer::from_outcome(&served.query_rr(&q).map_err(|e| e.to_string())?);
        let b = Answer::from_outcome(&snap.query(&q).map_err(|e| e.to_string())?);
        if !a.same_as(&b) {
            out.problems
                .push(format!("final served generation differs from the replay on {set:?}"));
        }
    }
    for (slot, v) in apply_ms.iter().enumerate() {
        out.apply_ms[slot] = crate::stats::mean(v);
    }
    out.flush_ms = crate::stats::mean(&flush_ms);
    out.overlay_keywords = crate::stats::mean(&overlay);
    Ok(out)
}

/// Whether the generation went down on one connection: some request,
/// sent after an answer at generation `seen` had arrived, was answered
/// at `got < seen`. Requests in flight together may be answered in any
/// order on the epoll front end, so only answers already received when
/// a request went out bound it. Items are `(sent, received, generation)`.
fn went_back(mut items: Vec<(Instant, Instant, u64)>) -> Option<(u64, u64)> {
    let mut by_recv: Vec<(Instant, u64)> = items.iter().map(|&(_, r, g)| (r, g)).collect();
    by_recv.sort();
    items.sort();
    let (mut next, mut seen) = (0, 0);
    for (sent, _, got) in items {
        while next < by_recv.len() && by_recv[next].0 < sent {
            seen = seen.max(by_recv[next].1);
            next += 1;
        }
        if got < seen {
            return Some((seen, got));
        }
    }
    None
}
