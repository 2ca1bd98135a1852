//! The traced run: per-layer metrics measured from outside the program.
//!
//! 1. Set-up in-process, with spans around `DatasetConfig::build` and
//!    `IndexBuilder::build` (`build.*`).
//! 2. The nominal phase against a `kbtim serve` child, untraced: its
//!    latencies are the reference for the tracing overhead, its drain
//!    line gives `serve.served/shed/failed`, its wire answers give
//!    `irr_query.loaded_ratio`, and on ingest-mix the replay of its writes
//!    gives `delta.*`.
//! 3. The same phase against `serve_epoll` run in this process with the
//!    CLI's settings, a client span per request: `engine.*` from the
//!    `QueryEngine` counters, `storage.*` from `IoStats` deltas, and the
//!    front-end time (client latency minus the answer's `elapsed_us`).
//! 4. A serial replay of the same request stream through the layers'
//!    public functions — `ServeRequest::parse`, `decode_keywords`,
//!    `merge_keywords`, `query_merged`, `query_irr`, `render_outcome` —
//!    one span each, with a 64-entry LRU of merged keyword sets standing
//!    in for the server's merge cache (`serve.*_us`, `rr_query.*`,
//!    `irr_query.query_us`).
//!
//! Every answer of phases 2–4 is checked against the oracle. Spans are
//! written to `.bench_out/` at exit, and self time per span name is
//! reported.

use crate::drive::{Op, Session};
use crate::oracle::Answer;
use crate::server::{Res, Server};
use crate::trace::Tracer;
use crate::workload::{Kind, QueryStream, Spec};
use crate::{stats, Args, Metrics, Report, Setup};
use kbtim::serve::{render_outcome, serve_epoll, EpollConfig, Router, ServeCtx, ServeRequest};
use kbtim_datagen::{DatasetConfig, DatasetFamily};
use kbtim_index::format::{decode_il_csr, keyword_file_name, IL_BLOCK};
use kbtim_index::{
    Algo, DeltaIndex, IndexBuilder, KbtimIndex, MergedQuery, PageCache, QueryEngine, ServingMode,
};
use kbtim_propagation::IcModel;
use kbtim_storage::segment::SegmentReader;
use kbtim_storage::IoStats;
use kbtim_topics::Query;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn run(args: &Args, spec: &Spec) -> Res<Report> {
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();
    let mut lines = Vec::new();
    let mut m = Metrics::default();
    let nominal_secs = 0.4 * args.seconds;
    let config = crate::build_config(spec, args.seed);

    // 1. In-process set-up.
    let s = Setup::new(args.work.join("trace"));
    let _ = std::fs::remove_dir_all(&s.dir);
    std::fs::create_dir_all(&s.data).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let span = tracer.begin("build.gen", None, 0);
    let data = DatasetConfig::family(DatasetFamily::News)
        .num_users(spec.users)
        .num_topics(spec.topics)
        .seed(args.seed)
        .build();
    kbtim_graph::io::write_edge_list(&data.graph, s.data.join("graph.txt"))
        .map_err(|e| e.to_string())?;
    kbtim_topics::io::write_profiles(&data.profiles, s.data.join("profiles.tsv"))
        .map_err(|e| e.to_string())?;
    drop(data);
    tracer.end(span);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = tracer.begin("build.build", None, 0);
    let (graph, profiles) = crate::load_data(&s.data)?;
    let model = IcModel::weighted_cascade(&graph);
    let report = IndexBuilder::new(&model, &profiles, config)
        .build(&s.idx)
        .map_err(|e| format!("build: {e}"))?;
    tracer.end(span);
    let build_s = t.elapsed().as_secs_f64();
    drop(model);
    drop((graph, profiles));
    // Servers get their own copies: ingest-mix mutates what it serves.
    let child_idx = s.dir.join("idx-child");
    let inproc_idx = s.dir.join("idx-inproc");
    let replay_child = s.dir.join("replay-child");
    let replay_inproc = s.dir.join("replay-inproc");
    for dir in [&child_idx, &inproc_idx, &replay_child, &replay_inproc] {
        crate::server::copy_flat_dir(&s.idx, dir)?;
    }
    let hot_sets = QueryStream::new(spec, args.seed).hot_sets();

    // 2. The child server, untraced.
    let srv = Server::start(
        &args.kbtim,
        &crate::serve_args(spec, args.seed, &child_idx, &s.data),
        &s.dir.join("serve.stderr"),
    )?;
    let (child, child_nominal, _) =
        crate::drive_server(srv.addr, spec, args.seed, nominal_secs, None, None)?;
    let drain = srv.stop()?;
    lines.push(format!("child server drain: {drain}"));
    lines.push(format!("child {}", child_nominal.line()));
    let counts = crate::server::drain_counts(&drain);
    let count = |k: &str| counts.iter().find(|(n, _)| n == k).map_or(0.0, |(_, v)| *v as f64);
    let mut mismatches = 0;
    let mut delta_metrics = [0.0f64; 7];
    if spec.kind == Kind::IngestMix {
        let check = crate::ingest::check(
            &child.entries,
            &replay_child,
            &s.data,
            &child_idx,
            config,
            &hot_sets,
            &mut tracer,
        )?;
        mismatches += check.mismatches;
        problems.extend(check.problems);
        let acks = stats::sorted(
            &child
                .entries
                .iter()
                .filter(|e| matches!(e.op, Op::Write(w) if w != crate::workload::Write::Flush))
                .filter(|e| e.rec.ok())
                .map(|e| e.rec.latency_ms())
                .collect::<Vec<_>>(),
        );
        lines.push(format!(
            "ingest replay: {} answers checked, {} lagging generation labels, {} writes acked",
            check.queries_checked,
            check.label_lag,
            acks.len()
        ));
        delta_metrics = [
            check.apply_ms[0],
            check.apply_ms[1],
            check.apply_ms[2],
            check.overlay_keywords,
            check.flush_ms,
            stats::quantile(&acks, 0.5),
            stats::quantile(&acks, 0.9),
        ];
        m.put("delta.generation_label_lag", check.label_lag as f64, "count");
    } else {
        mismatches += crate::check_static(&child, &child_idx, &mut problems)?;
        m.put("delta.generation_label_lag", 0.0, "count");
    }
    let (mut loaded, mut theta) = (0u64, 0u64);
    for e in &child.entries {
        if let (Op::Query(r), Some(a)) = (&e.op, e.rec.response.as_deref().and_then(Answer::parse))
        {
            if r.algo == "irr" {
                loaded += a.rr_sets_loaded;
                theta += a.theta_q;
            }
        }
    }

    // 3. The same phase against an in-process epoll server.
    let inproc = run_inprocess(args, spec, &inproc_idx, &s.data, &mut tracer)?;
    let d = &inproc.session;
    lines.push(format!("in-process {}", inproc.nominal.line()));
    if spec.kind == Kind::IngestMix {
        let check = crate::ingest::check(
            &d.entries,
            &replay_inproc,
            &s.data,
            &inproc_idx,
            config,
            &hot_sets,
            &mut Tracer::new(),
        )?;
        mismatches += check.mismatches;
        problems.extend(check.problems);
    } else {
        mismatches += crate::check_static(d, &inproc_idx, &mut problems)?;
    }
    let mut frontend = Vec::new();
    for e in &d.entries {
        let Some(a) = e.rec.response.as_deref().and_then(Answer::parse) else { continue };
        if e.phase == inproc.nominal_phase {
            frontend.push((e.rec.recv - e.rec.sent) * 1e3 - a.elapsed_us as f64 / 1e3);
        }
        tracer.record("client.request", e.at(e.rec.due), e.at(e.rec.recv), None, e.rec.id);
    }
    let frontend = stats::sorted(&frontend);
    crate::self_check_stream(spec, d, &mut problems);
    let hit_ratio = ratio(inproc.cache_hits, inproc.cache_hits + inproc.cache_misses);
    match spec.kind {
        Kind::HotMix if hit_ratio < 0.8 => {
            problems.push(format!("hot-mix merge-cache hit ratio {hit_ratio:.3} is below 0.8"))
        }
        Kind::ColdWide if hit_ratio > 0.05 => {
            problems.push(format!("cold-wide merge-cache hit ratio {hit_ratio:.3} is above 0.05"))
        }
        _ => {}
    }

    // 4. Serial replay of the nominal request stream through the layers.
    let mut replay = replay_layers(&s.idx, d, inproc.nominal_phase, &mut tracer)?;
    mismatches += replay.mismatches;
    problems.append(&mut replay.problems);
    lines.append(&mut replay.notes);
    let self_times = tracer.self_times();
    let per_request = |name: &str, n: u64| -> f64 {
        self_times.get(name).map_or(0.0, |(_, ns)| *ns as f64 / 1e3 / n.max(1) as f64)
    };
    lines.push(format!(
        "replay: {} requests ({} rr-path, {} irr), {} merges, {} cache hits",
        replay.requests, replay.rr_requests, replay.irr_requests, replay.merges, replay.cache_hits
    ));
    for (name, (n, ns)) in &self_times {
        lines.push(format!("self time {name:<32} n={n:>7} total={:>10.3} ms", *ns as f64 / 1e6));
    }
    let out_dir = Path::new(".bench_out");
    let _ = std::fs::create_dir_all(out_dir);
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    tracer.write_jsonl(&spans_path).map_err(|e| format!("write spans: {e}"))?;
    lines.push(format!("spans: {} written to {}", tracer.len(), spans_path.display()));

    let attempted = (child.entries.len() + d.entries.len() + replay.requests as usize) as u64;
    let errors = child.entries.iter().chain(&d.entries).filter(|e| !e.rec.ok()).count() as u64;
    let failed = errors + mismatches;
    lines.push(format!(
        "requests: attempted={attempted} failed={failed} (errors/drops {errors}, oracle mismatches {mismatches})"
    ));

    m.put("serve.parse_us", per_request("serve.parse", replay.requests), "us");
    m.put("serve.render_us", per_request("serve.render", replay.requests), "us");
    m.put("serve.frontend_p50_ms", stats::quantile(&frontend, 0.5), "ms");
    m.put("serve.frontend_p99_ms", stats::quantile(&frontend, 0.99), "ms");
    m.put("serve.served", count("served"), "count");
    m.put("serve.shed", count("shed"), "count");
    m.put(
        "serve.failed",
        count("failed") + count("deadline_exceeded") + count("panicked"),
        "count",
    );
    m.put("engine.window_mean", ratio(inproc.batched_requests, inproc.batches), "requests");
    m.put("engine.merge_cache_hit_ratio", hit_ratio, "ratio");
    m.put(
        "engine.keywords_decoded_per_query",
        ratio(inproc.keywords_decoded, inproc.batched_requests),
        "keywords",
    );
    m.put(
        "engine.greedy_shared_ratio",
        ratio(inproc.greedy_shared, inproc.batched_requests),
        "ratio",
    );
    m.put("rr_query.decode_us", per_request("rr_query.decode", replay.rr_requests), "us");
    m.put("rr_query.merge_us", per_request("rr_query.merge", replay.rr_requests), "us");
    m.put("rr_query.greedy_us", per_request("rr_query.greedy", replay.rr_requests), "us");
    m.put(
        "rr_query.merged_bytes_per_entry",
        ratio(replay.merged_bytes, replay.merged_entries),
        "B",
    );
    m.put("irr_query.query_us", per_request("irr_query.query", replay.irr_requests), "us");
    m.put("irr_query.loaded_ratio", ratio(loaded, theta), "ratio");
    m.put("irr_query.rr_divergences", replay.irr_divergences as f64, "count");
    let answered = inproc.answered.max(1) as f64;
    m.put("storage.bytes_served_per_query", inproc.io.bytes_served as f64 / answered, "B");
    m.put("storage.reads_per_query", inproc.io.read_ops as f64 / answered, "reads");
    m.put("storage.cache_hits_per_query", inproc.io.cache_hits as f64 / answered, "hits");
    m.put("delta.apply_ms.set_topic_weight", delta_metrics[0], "ms");
    m.put("delta.apply_ms.ingest_edge", delta_metrics[1], "ms");
    m.put("delta.apply_ms.ingest_user", delta_metrics[2], "ms");
    m.put("delta.overlay_keywords", delta_metrics[3], "keywords");
    m.put("delta.flush_ms", delta_metrics[4], "ms");
    m.put("delta.ack_p50_ms", zero_if_nan(delta_metrics[5]), "ms");
    m.put("delta.ack_p90_ms", zero_if_nan(delta_metrics[6]), "ms");
    m.put("build.gen_s", gen_s, "s");
    m.put("build.build_s", build_s, "s");
    m.put("build.rr_sets", report.total_theta as f64, "count");
    m.put("trace.untraced_p50_ms", child_nominal.p50_ms, "ms");
    m.put("trace.untraced_p99_ms", child_nominal.p99_ms, "ms");
    m.put("trace.traced_p50_ms", inproc.nominal.p50_ms, "ms");
    m.put("trace.traced_p99_ms", inproc.nominal.p99_ms, "ms");
    m.put("trace.spans", tracer.len() as f64, "count");
    let _ = std::fs::remove_dir_all(&s.dir);
    Ok(Report { attempted, failed, problems, metrics: m, lines })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn zero_if_nan(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

struct InProcess<'a> {
    session: Session<'a>,
    nominal: crate::drive::Phase,
    nominal_phase: usize,
    batches: u64,
    batched_requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    keywords_decoded: u64,
    greedy_shared: u64,
    io: kbtim_storage::IoSnapshot,
    answered: u64,
}

/// Serve `idx` with `serve_epoll` in this process, configured as
/// `kbtim serve --listen` is (mmap, one thread per query, 200 µs batch
/// window, the workload's merge cache, a delta tier on ingest-mix), and
/// drive the warm-up and nominal phases against it.
fn run_inprocess<'a>(
    args: &Args,
    spec: &'a Spec,
    idx: &Path,
    data: &Path,
    tracer: &mut Tracer,
) -> Res<InProcess<'a>> {
    let span = tracer.begin("serve.start", None, 0);
    let mut index =
        KbtimIndex::open_shared(idx, IoStats::new(), ServingMode::Mmap, PageCache::global())
            .map_err(|e| format!("open: {e}"))?;
    index.set_threads(Some(1));
    let index = Arc::new(index);
    let mut engine = QueryEngine::new(Arc::clone(&index))
        .with_batch_window(Some(Duration::from_micros(200)))
        .with_merge_cache(64);
    let mut delta = None;
    if spec.kind == Kind::IngestMix {
        let (graph, profiles) = crate::load_data(data)?;
        let tier = Arc::new(
            DeltaIndex::attach(
                Arc::clone(&index),
                &graph,
                &profiles,
                crate::build_config(spec, args.seed),
            )
            .map_err(|e| format!("attach: {e}"))?,
        );
        engine = engine.with_delta(Arc::clone(&tier));
        delta = Some(tier);
    }
    let engine = Arc::new(engine);
    let router = Arc::new(Router::single(Arc::clone(&engine)));
    let ctx = Arc::new(ServeCtx::new(1024, None).with_front_end("epoll"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    tracer.end(span);
    let io_before = index.io_stats().snapshot();
    let result = std::thread::scope(|scope| {
        let server = {
            let (router, ctx) = (Arc::clone(&router), Arc::clone(&ctx));
            scope.spawn(move || serve_epoll(listener, router, ctx, EpollConfig::default()))
        };
        let driven = crate::drive_server(addr, spec, args.seed, 0.4 * args.seconds, None, None);
        ctx.begin_shutdown();
        let served = server.join().expect("in-process server panicked");
        served.map_err(|e| format!("serve_epoll: {e}"))?;
        driven
    });
    let (session, nominal, _) = result?;
    if let Some(tier) = &delta {
        // The CLI compacts a dirty tier at drain; so does this server.
        tier.flush().map_err(|e| format!("drain flush: {e}"))?;
    }
    let io = index.io_stats().snapshot().since(&io_before);
    let nominal_phase = session.phases.iter().position(|p| p.name == "nominal").expect("nominal");
    let answered =
        session.entries.iter().filter(|e| e.rec.ok() && matches!(e.op, Op::Query(_))).count();
    Ok(InProcess {
        nominal,
        nominal_phase,
        batches: engine.batches(),
        batched_requests: engine.batched_requests(),
        cache_hits: engine.merge_cache_hits(),
        cache_misses: engine.merge_cache_misses(),
        keywords_decoded: engine.keywords_decoded(),
        greedy_shared: engine.greedy_shared(),
        io,
        answered: answered as u64,
        session,
    })
}

#[derive(Default)]
struct Replay {
    requests: u64,
    rr_requests: u64,
    irr_requests: u64,
    merges: u64,
    cache_hits: u64,
    merged_bytes: u64,
    merged_entries: u64,
    mismatches: u64,
    problems: Vec<String>,
    irr_divergences: u64,
    notes: Vec<String>,
}

/// Serially replay the nominal phase's queries through the layers'
/// public functions, one span per call, on a freshly opened index.
fn replay_layers(idx: &Path, d: &Session, phase: usize, tracer: &mut Tracer) -> Res<Replay> {
    let mut index =
        KbtimIndex::open_shared(idx, IoStats::new(), ServingMode::Mmap, PageCache::global())
            .map_err(|e| format!("replay open: {e}"))?;
    index.set_threads(Some(1));
    let codec = index.meta().codec;
    // Every keyword's rr ids, sorted, so the entries a merge takes from a
    // keyword's θ^Q_w prefix are one binary search.
    let mut ids: HashMap<u32, Vec<u32>> = HashMap::new();
    for kw in index.meta().keywords.iter().filter(|k| k.theta > 0) {
        let reader = SegmentReader::open(idx.join(keyword_file_name(kw.topic)), IoStats::new())
            .map_err(|e| e.to_string())?;
        let bytes = reader.read_block(IL_BLOCK).map_err(|e| e.to_string())?;
        let mut v = decode_il_csr(&bytes, codec).map_err(|e| e.to_string())?.ids;
        v.sort_unstable();
        ids.insert(kw.topic, v);
    }
    let reqs: Vec<&crate::workload::Req> = d
        .entries
        .iter()
        .filter(|e| e.phase == phase)
        .filter_map(|e| match &e.op {
            Op::Query(r) => Some(r),
            _ => None,
        })
        .collect();
    let expected = crate::oracle::expected_answers(idx, &reqs, crate::nproc())?;
    let mut out = Replay::default();
    let mut cache: VecDeque<(Vec<u32>, MergedQuery)> = VecDeque::new();
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        let line = req.line(id);
        out.requests += 1;
        let parsed = tracer
            .span("serve.parse", None, id, || ServeRequest::parse(&line))
            .map_err(|e| format!("replay parse: {e}"))?;
        let query = Query::new(parsed.request.topics.iter().copied(), parsed.request.k);
        let outcome = if parsed.request.algo == Algo::Irr {
            out.irr_requests += 1;
            tracer
                .span("irr_query.query", None, id, || index.query_irr(&query))
                .map_err(|e| format!("replay irr: {e}"))?
        } else {
            out.rr_requests += 1;
            let root = tracer.begin("rr_query", None, id);
            let pos = cache.iter().position(|(t, _)| t == query.topics());
            let entry = match pos {
                Some(p) => {
                    out.cache_hits += 1;
                    cache.remove(p).expect("position is in range")
                }
                None => {
                    let (_, budget) = tracer
                        .span("rr_query.budget", Some(root), id, || index.query_budget(&query));
                    let arena = tracer
                        .span("rr_query.decode", Some(root), id, || index.decode_keywords(&budget))
                        .map_err(|e| format!("replay decode: {e}"))?;
                    let merged = tracer
                        .span("rr_query.merge", Some(root), id, || {
                            index.merge_keywords(&query, &arena)
                        })
                        .map_err(|e| format!("replay merge: {e}"))?;
                    index.recycle_keywords(arena);
                    out.merges += 1;
                    out.merged_bytes += merged.resident_bytes();
                    out.merged_entries += budget
                        .iter()
                        .map(|&(t, share)| ids[&t].partition_point(|&x| (x as u64) < share) as u64)
                        .sum::<u64>();
                    (query.topics().to_vec(), merged)
                }
            };
            let outcome = tracer.span("rr_query.greedy", Some(root), id, || {
                index.query_merged(&entry.1, query.k())
            });
            cache.push_back(entry);
            if cache.len() > 64 {
                let (_, old) = cache.pop_front().expect("non-empty");
                index.recycle_merged(old);
            }
            tracer.end(root);
            outcome
        };
        let want = &expected[&(req.topics.clone(), req.k)];
        let got = Answer::from_outcome(&outcome);
        if !got.same_as(want) {
            let note = format!(
                "replayed {} answer for {:?} k={} differs from query_rr: seeds {:?} gains {:?} coverage {} vs seeds {:?} gains {:?} coverage {}",
                req.algo, req.topics, req.k, got.seeds, got.gains, got.coverage, want.seeds, want.gains, want.coverage
            );
            // Served irr requests take the merged path and are checked as
            // answers; the NRA replayed here is not what the server
            // answers with, so its divergences are counted and printed
            // (irr_query.rr_divergences), while a replayed rr-path answer
            // that differs is a failure.
            if parsed.request.algo == Algo::Irr {
                out.irr_divergences += 1;
                out.notes.push(note);
            } else {
                out.mismatches += 1;
                out.problems.push(note);
            }
        }
        let rendered = tracer.span("serve.render", None, id, || {
            render_outcome(Some(id), None, parsed.request.algo, &outcome, 1, None, Some("epoll"))
        });
        std::hint::black_box(rendered);
    }
    for (_, merged) in cache {
        index.recycle_merged(merged);
    }
    Ok(out)
}
