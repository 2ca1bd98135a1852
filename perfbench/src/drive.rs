//! Phases of a run against one server: warm-up, the nominal phase and the
//! SLO ladder, each an open-loop schedule over two connections. Hot-mix
//! and cold-wide alternate queries between the connections; ingest-mix
//! sends writes on connection 0 and queries on connection 1.

use crate::loadgen::{self, AbortRule, Planned, Record};
use crate::stats;
use crate::workload::{Kind, QueryStream, Req, Spec, Write, WriteStream};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What a request asked for.
#[derive(Debug, Clone)]
pub enum Op {
    Query(Req),
    Write(Write),
}

/// One request of the run with its outcome. Times in `rec` are seconds
/// from `origin`, the start of its phase.
#[derive(Debug, Clone)]
pub struct Entry {
    pub op: Op,
    pub rec: Record,
    pub phase: usize,
    pub origin: Instant,
}

impl Entry {
    pub fn at(&self, secs: f64) -> Instant {
        self.origin + Duration::from_secs_f64(secs.max(0.0))
    }
}

/// Counts and latencies of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub qps: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p90, p95, p98, p99.5 and p99.9, for the report.
    pub tail: [f64; 5],
    pub late_p99_ms: f64,
    pub late_max_ms: f64,
    /// SLO verdict (rungs and the nominal phase).
    pub pass: bool,
    pub why: &'static str,
    /// Answers within the limit per second of the phase.
    pub achieved_qps: f64,
    pub writes_sent: usize,
    pub writes_ok: usize,
    /// CPU time the server process spent over the phase, ms (NaN when
    /// not measured).
    pub server_cpu_ms: f64,
    /// The server's peak resident set at the end of the phase, KiB (0
    /// when not measured).
    pub server_hwm_kib: u64,
}

impl Phase {
    pub fn line(&self) -> String {
        format!(
            "phase {:<14} offered={:>8.1}/s sent={:>6} ok={:>6} failed={:>4} p50={:.3}ms p99={:.3}ms [p90/95/98/99.5/99.9 {:.2?}] late_p99={:.3}ms late_max={:.3}ms achieved={:.1}/s writes={}/{} slo={} ({})",
            self.name,
            self.qps,
            self.sent,
            self.ok,
            self.failed,
            self.p50_ms,
            self.p99_ms,
            self.tail,
            self.late_p99_ms,
            self.late_max_ms,
            self.achieved_qps,
            self.writes_ok,
            self.writes_sent,
            if self.pass { "pass" } else { "miss" },
            self.why,
        )
    }
}

/// Every request of one run against one server, sent over two persistent
/// connections, with the phases' summaries.
pub struct Session<'a> {
    spec: &'a Spec,
    conns: Vec<TcpStream>,
    queries: QueryStream,
    writes: Option<WriteStream>,
    next_id: u64,
    pub entries: Vec<Entry>,
    pub phases: Vec<Phase>,
}

impl<'a> Session<'a> {
    pub fn new(addr: SocketAddr, spec: &'a Spec, seed: u64) -> Result<Session<'a>, String> {
        Ok(Session {
            spec,
            conns: loadgen::connect(addr, 2)?,
            queries: QueryStream::new(spec, seed),
            writes: (spec.kind == Kind::IngestMix).then(|| WriteStream::new(spec, seed)),
            next_id: 1,
            entries: Vec::new(),
            phases: Vec::new(),
        })
    }

    /// Run one open-loop phase of `secs` at `qps` queries per second
    /// (plus the fixed write rate on ingest-mix).
    pub fn phase(
        &mut self,
        name: &str,
        qps: f64,
        secs: f64,
        rule: Option<AbortRule>,
        drain: Duration,
    ) -> &Phase {
        let n = (qps * secs).round() as usize;
        let mut ops = std::collections::HashMap::new();
        let mut plans: Vec<Vec<Planned>> = vec![Vec::new(), Vec::new()];
        if self.spec.kind == Kind::ColdWide && self.queries.cold_left() < n {
            // Cap the phase rather than repeat a keyword set.
            eprintln!("perfbench: cold keyword sets exhausted; phase {name} shortened");
        }
        let n = if self.spec.kind == Kind::ColdWide { n.min(self.queries.cold_left()) } else { n };
        for i in 0..n {
            let req = self.queries.next_req();
            let id = self.next_id;
            self.next_id += 1;
            let conn = if self.writes.is_some() { 1 } else { i % 2 };
            let due = Duration::from_secs_f64(i as f64 / qps);
            plans[conn].push(Planned { id, due, line: req.line(id) });
            ops.insert(id, Op::Query(req));
        }
        if let Some(writes) = &mut self.writes {
            let rate = self.spec.mutation_rate;
            let m = (rate * secs).round() as usize;
            for j in 0..m {
                let w = writes.next_write();
                let id = self.next_id;
                self.next_id += 1;
                let due = Duration::from_secs_f64((j as f64 + 0.5) / rate);
                plans[0].push(Planned { id, due, line: w.line(id) });
                ops.insert(id, Op::Write(w));
            }
        }
        let (origin, records) = loadgen::run_phase(&mut self.conns, plans, rule, drain);
        let index = self.phases.len();
        let first = self.entries.len();
        for rec in records.into_iter().flatten() {
            let op = ops.remove(&rec.id).expect("every record was planned");
            self.entries.push(Entry { op, rec, phase: index, origin });
        }
        let summary = summarize(name, qps, n, &self.entries[first..], self.spec.limit_ms);
        self.phases.push(summary);
        self.phases.last().expect("just pushed")
    }

    /// The SLO ladder: rungs at `ladder_base · 2^(i/16)` qps. The nominal
    /// phase is the first passing rung; probing starts at the workload's
    /// `ladder_start` rung and gallops up 16 rungs (2×) at a time until a
    /// rung misses, then bisects down to adjacent rungs. Returns the
    /// goodput of the highest passing rung.
    pub fn ladder(&mut self, nominal: &Phase, budget_secs: f64) -> f64 {
        let spec = self.spec;
        let rung_secs = (budget_secs / 7.0).clamp(0.5, 3.0);
        let limit = Duration::from_secs_f64(spec.limit_ms / 1e3);
        let started = Instant::now();
        let mut lo = crate::workload::NOMINAL_RUNG;
        if !nominal.pass {
            return 0.0;
        }
        let mut best = nominal.achieved_qps;
        let mut hi: Option<u32> = None;
        let mut probe = spec.ladder_start;
        loop {
            let next = match hi {
                None if probe <= spec.ladder_top => probe,
                None => break,
                Some(h) if h - lo > 1 => (lo + h) / 2,
                Some(_) => break,
            };
            if started.elapsed().as_secs_f64() + rung_secs > budget_secs {
                eprintln!("perfbench: ladder time budget spent; stopping at rung {lo}");
                break;
            }
            let qps = spec.rung_qps(next);
            let planned = (qps * rung_secs).round() as usize;
            let rule = AbortRule { limit, allowed: planned * 3 / 100 };
            let phase = self.phase(
                &format!("rung{next}"),
                qps,
                rung_secs,
                Some(rule),
                Duration::from_millis(500),
            );
            if phase.pass {
                lo = next;
                best = phase.achieved_qps;
                probe = next + 16;
            } else {
                hi = Some(next);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        best
    }
}

fn summarize(name: &str, qps: f64, planned: usize, entries: &[Entry], limit_ms: f64) -> Phase {
    let queries: Vec<&Record> =
        entries.iter().filter(|e| matches!(e.op, Op::Query(_))).map(|e| &e.rec).collect();
    let writes: Vec<&Record> =
        entries.iter().filter(|e| matches!(e.op, Op::Write(_))).map(|e| &e.rec).collect();
    let ok: Vec<&&Record> = queries.iter().filter(|r| r.ok()).collect();
    let lat = stats::sorted(&ok.iter().map(|r| r.latency_ms()).collect::<Vec<_>>());
    let late = stats::sorted(&queries.iter().map(|r| r.late_ms()).collect::<Vec<_>>());
    let miss = |r: &&&Record| !r.ok() || r.latency_ms() > limit_ms;
    let misses = queries.iter().filter(miss).count();
    let within = queries.len() - misses;
    // p99 within the limit in at least three of the phase's four quarters
    // (by due time): one host stall spoils a quarter, not the verdict,
    // while a rate beyond capacity spoils them all.
    let mut by_due = queries.clone();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let quarter = by_due.len().div_ceil(4).max(1);
    let good_quarters =
        by_due.chunks(quarter).filter(|q| q.iter().filter(miss).count() <= q.len() / 100).count();
    // Backlog at the end of the schedule: requests sent but unanswered.
    let end = queries.iter().map(|r| r.due).fold(0.0, f64::max);
    let backlog =
        queries.iter().filter(|r| r.sent <= end && (r.recv.is_nan() || r.recv > end)).count();
    let backlog_allowed = (qps * limit_ms / 1e3).ceil() as usize + 4;
    let late_p99 = stats::quantile(&late, 0.99);
    let span = queries.iter().map(|r| r.recv).filter(|t| t.is_finite()).fold(0.0, f64::max)
        - queries.iter().map(|r| r.sent).fold(f64::INFINITY, f64::min);
    let (pass, why) = if queries.len() < planned {
        (false, "aborted: misses exceeded 3%")
    } else if good_quarters < 3 {
        (false, "p99 over the limit in two or more quarters")
    } else if backlog > backlog_allowed {
        (false, "backlog grew")
    } else if late_p99 > limit_ms / 2.0 {
        (false, "generator fell behind")
    } else {
        (true, "p99 within the limit")
    };
    Phase {
        name: name.to_string(),
        qps,
        sent: queries.len(),
        ok: ok.len(),
        failed: queries.len() - ok.len(),
        p50_ms: stats::quantile(&lat, 0.5),
        p99_ms: windowed_p99(&ok),
        tail: [0.9, 0.95, 0.98, 0.995, 0.999].map(|q| stats::quantile(&lat, q)),
        late_p99_ms: late_p99,
        late_max_ms: late.last().copied().unwrap_or(f64::NAN),
        pass,
        why,
        achieved_qps: if span > 0.0 { within as f64 / span } else { 0.0 },
        writes_sent: writes.len(),
        writes_ok: writes.iter().filter(|r| r.ok()).count(),
        server_cpu_ms: f64::NAN,
        server_hwm_kib: 0,
    }
}

/// Requests per p99 window: the fewest for which p99 has ten samples
/// beyond it.
pub const P99_WINDOW: usize = 1000;

/// p99 latency per consecutive window of [`P99_WINDOW`] answers (in send
/// order), median across windows: one burst of host noise moves one
/// window, not the reported value.
fn windowed_p99(ok: &[&&Record]) -> f64 {
    let mut by_due: Vec<(f64, f64)> = ok.iter().map(|r| (r.due, r.latency_ms())).collect();
    by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lat: Vec<f64> = by_due.into_iter().map(|(_, l)| l).collect();
    let windows = (lat.len() / P99_WINDOW).max(1);
    let per = lat.len().div_ceil(windows);
    let p99s: Vec<f64> =
        lat.chunks(per.max(1)).map(|w| stats::quantile(&stats::sorted(w), 0.99)).collect();
    stats::median(&p99s)
}
