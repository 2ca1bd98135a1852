//! perfbench — the repository's benchmark of `kbtim serve`.
//!
//! ```text
//! perfbench --workload hot-mix|cold-wide|ingest-mix --seed N --seconds S --trace 0|1
//!           --kbtim PATH --work DIR [--commit C] [--source-hash H]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds `kbtim` and this
//! binary first. One run generates the workload's dataset from the seed,
//! sets up the real server (`kbtim gen` → `kbtim build` → `kbtim serve
//! --listen 127.0.0.1:0`, three or more times; the median is `setup_s`),
//! drives it open-loop over loopback TCP from this process (two
//! connections, two threads), checks every answer against an in-process
//! oracle, and prints the end-to-end metrics. `--trace 1` instead prints
//! the per-layer metrics: it times calls into each layer's public
//! functions from here (see `traced.rs`). The last line of standard
//! output is the result object; the lines before it are the
//! human-readable report.

mod drive;
mod ingest;
mod loadgen;
mod oracle;
mod server;
mod stats;
mod trace;
mod traced;
mod workload;

use crate::drive::{Op, Session};
use crate::oracle::Answer;
use crate::server::{Res, Server};
use crate::workload::{Kind, Spec};
use kbtim_core::theta::SamplingConfig;
use kbtim_graph::Graph;
use kbtim_index::{IndexBuildConfig, IndexVariant, KbtimIndex, ThetaMode};
use kbtim_storage::IoStats;
use kbtim_topics::UserProfiles;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, and more (up to
/// `SETUP_MAX_REPS`) until they add up to `SETUP_MIN_SECS`, so a
/// sub-second set-up is the median of many; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 11;
const SETUP_MIN_SECS: f64 = 1.5;
/// Warm-up before the nominal phase (answers checked, not timed).
const WARMUP_SECS: f64 = 1.0;
/// The first query of every set-up: two keywords, so it never collides
/// with a cold-wide keyword set (three to five keywords).
const PROBE: &str = r#"{"id":0,"topics":[0,1],"k":10,"algo":"rr"}"#;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub kbtim: PathBuf,
    pub work: PathBuf,
    pub commit: String,
    pub source_hash: String,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        argv.iter().position(|a| a == key).and_then(|i| argv.get(i + 1)).cloned()
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "--seconds: not a number")?;
    if seconds.is_nan() || seconds < 4.0 {
        return Err("--seconds must be at least 4".into());
    }
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?.parse().map_err(|_| "--seed: not an integer")?,
        seconds,
        trace,
        kbtim: need("--kbtim")?.into(),
        work: need("--work")?.into(),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
        source_hash: get("--source-hash").unwrap_or_else(|| "unknown".into()),
    })
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub lines: Vec<String>,
}

fn main() -> ExitCode {
    if std::env::var_os("KBTIM_FAILPOINTS").is_some() {
        eprintln!("perfbench: KBTIM_FAILPOINTS is set; refusing to measure with failpoints armed");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (have {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))
        .and_then(
            |_| if args.trace { traced::run(&args, &spec) } else { run_untraced(&args, &spec) },
        );
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);

    let fingerprint = fingerprint(&args, &spec);
    println!("fingerprint {fingerprint}");
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics.0 {
        println!("metric {name:<40} {value:>16.6} {unit}");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(*value))
        })
        .collect();
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits (non-finite values, which
/// only a broken run produces, print as -1).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".into()
    }
}

/// Commit, host cores, SIMD tier, serving mode and dataset sizes.
fn fingerprint(args: &Args, spec: &Spec) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd_env = std::env::var("KBTIM_SIMD").map_or("null".into(), |v| format!("\"{v}\""));
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"source_hash\":\"{}\",\"nproc\":{nproc},\"simd\":\"{}\",\"kbtim_simd\":{simd_env},\"serving\":\"mmap\",\"front_end\":\"epoll\",\"server_flags\":\"{}\",\"users\":{},\"topics\":{},\"theta_cap\":{}}}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.commit,
        args.source_hash,
        kbtim_codec::simd::active_level().name(),
        spec.server_flags.join(" "),
        spec.users,
        spec.topics,
        spec.cap,
    )
}

/// The build configuration `kbtim build` uses with this workload's flags.
pub fn build_config(spec: &Spec, seed: u64) -> IndexBuildConfig {
    IndexBuildConfig {
        sampling: SamplingConfig { eps: 0.5, theta_cap: Some(spec.cap), ..SamplingConfig::fast() },
        codec: kbtim_codec::Codec::Packed,
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 100 },
        threads: nproc(),
        seed,
        shards: 1,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read a `kbtim gen` dataset directory back, as `kbtim` does: profiles
/// fix |V|, and the edge list may omit trailing isolated users.
pub fn load_data(dir: &Path) -> Res<(Graph, UserProfiles)> {
    let graph = kbtim_graph::io::read_edge_list(dir.join("graph.txt"), None)
        .map_err(|e| format!("read graph: {e}"))?;
    let profiles = kbtim_topics::io::read_profiles(dir.join("profiles.tsv"))
        .map_err(|e| format!("read profiles: {e}"))?;
    let graph = if graph.num_nodes() < profiles.num_users() {
        let edges: Vec<_> = graph.edges().collect();
        Graph::from_edges(profiles.num_users(), &edges)
    } else {
        graph
    };
    Ok((graph, profiles))
}

/// `kbtim serve` flags for a workload serving `idx` (and, on ingest-mix,
/// the dataset in `data`).
pub fn serve_args(spec: &Spec, seed: u64, idx: &Path, data: &Path) -> Vec<String> {
    let mut args = vec!["--index".to_string(), idx.display().to_string()];
    args.extend(spec.server_flags.iter().map(|s| s.to_string()));
    if spec.kind == Kind::IngestMix {
        for (k, v) in [
            ("--data", data.display().to_string()),
            ("--cap", spec.cap.to_string()),
            ("--seed", seed.to_string()),
        ] {
            args.push(k.to_string());
            args.push(v);
        }
    }
    args
}

/// Paths of one set-up.
pub struct Setup {
    pub dir: PathBuf,
    pub data: PathBuf,
    pub idx: PathBuf,
    /// Copy of the generation-0 index for the ingest-mix replay.
    pub base_copy: PathBuf,
}

impl Setup {
    pub fn new(dir: PathBuf) -> Setup {
        Setup {
            data: dir.join("data"),
            idx: dir.join("idx"),
            base_copy: dir.join("base-copy"),
            dir,
        }
    }
}

/// One timed set-up through the CLI: generate, build, start the server,
/// get the first answer. The ingest-mix base copy is made off the clock.
fn setup_once(args: &Args, spec: &Spec, rep: usize) -> Res<(Setup, Server, f64)> {
    let s = Setup::new(args.work.join(format!("setup-{rep}")));
    let _ = std::fs::remove_dir_all(&s.dir);
    std::fs::create_dir_all(&s.dir).map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let started = Instant::now();
    let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    server::run_cli(
        &args.kbtim,
        &strs(&[
            "gen",
            "--family",
            "news",
            "--users",
            &spec.users.to_string(),
            "--topics",
            &spec.topics.to_string(),
            "--seed",
            &seed,
            "--out",
            &s.data.display().to_string(),
        ]),
    )?;
    server::run_cli(
        &args.kbtim,
        &strs(&[
            "build",
            "--data",
            &s.data.display().to_string(),
            "--out",
            &s.idx.display().to_string(),
            "--cap",
            &spec.cap.to_string(),
            "--threads",
            &nproc().to_string(),
            "--seed",
            &seed,
        ]),
    )?;
    let mut off_clock = Duration::ZERO;
    if spec.kind == Kind::IngestMix {
        let t = Instant::now();
        server::copy_flat_dir(&s.idx, &s.base_copy)?;
        off_clock = t.elapsed();
    }
    let srv = Server::start(
        &args.kbtim,
        &serve_args(spec, args.seed, &s.idx, &s.data),
        &s.dir.join("serve.stderr"),
    )?;
    server::first_answer(srv.addr, PROBE)?;
    let secs = (started.elapsed() - off_clock).as_secs_f64();
    Ok((s, srv, secs))
}

/// Warm-up, nominal phase, and (untraced runs) the SLO ladder. Returns
/// the session holding every request of the run, the nominal phase, and
/// the ladder's `slo_qps`. With `server_pid`, the nominal phase's
/// `server_cpu_ms` is that process's CPU time (user + system) over it and
/// `server_hwm_kib` its peak resident set by the end of it — read before
/// the ladder, whose transient memory depends on how far it climbs.
pub fn drive_server<'a>(
    addr: std::net::SocketAddr,
    spec: &'a Spec,
    seed: u64,
    nominal_secs: f64,
    ladder_secs: Option<f64>,
    server_pid: Option<u32>,
) -> Res<(Session<'a>, drive::Phase, f64)> {
    let mut d = Session::new(addr, spec, seed)?;
    let nominal = spec.nominal_qps();
    d.phase("warmup", nominal, WARMUP_SECS, None, Duration::from_secs(5));
    let cpu_before = server_pid.map(server::cpu_ms).transpose()?;
    let mut phase = d.phase("nominal", nominal, nominal_secs, None, Duration::from_secs(5)).clone();
    if let (Some(pid), Some(before)) = (server_pid, cpu_before) {
        phase.server_cpu_ms = server::cpu_ms(pid)? - before;
        phase.server_hwm_kib = server::vm_hwm_kib(pid)?;
    }
    let slo = match ladder_secs {
        Some(budget) => d.ladder(&phase, budget),
        None => f64::NAN,
    };
    Ok((d, phase, slo))
}

/// Check the static workloads' answers against the oracle; returns the
/// number of mismatches and records the first few.
pub fn check_static(d: &Session, idx: &Path, problems: &mut Vec<String>) -> Res<u64> {
    let reqs: Vec<&workload::Req> = d
        .entries
        .iter()
        .filter_map(|e| match &e.op {
            Op::Query(r) if e.rec.ok() => Some(r),
            _ => None,
        })
        .collect();
    let expected = oracle::expected_answers(idx, &reqs, nproc())?;
    let mut mismatches = 0;
    for e in &d.entries {
        let Op::Query(r) = &e.op else { continue };
        let Some(line) = e.rec.response.as_deref().filter(|_| e.rec.ok()) else { continue };
        let want = &expected[&(r.topics.clone(), r.k)];
        if !Answer::parse(line).is_some_and(|got| got.same_as(want)) {
            mismatches += 1;
            if mismatches <= 5 {
                problems.push(format!(
                    "answer differs from the oracle: {:?} k={} {}: {line}",
                    r.topics, r.k, r.algo
                ));
            }
        }
    }
    Ok(mismatches)
}

/// Workload self-checks on the request stream actually sent.
pub fn self_check_stream(spec: &Spec, d: &Session, problems: &mut Vec<String>) {
    let sets: Vec<&Vec<u32>> = d
        .entries
        .iter()
        .filter_map(|e| match &e.op {
            Op::Query(r) => Some(&r.topics),
            _ => None,
        })
        .collect();
    match spec.kind {
        Kind::ColdWide => {
            let mut seen = HashSet::new();
            if let Some(dup) = sets.iter().find(|s| !seen.insert(**s)) {
                problems.push(format!("cold-wide repeated keyword set {dup:?}"));
            }
        }
        Kind::HotMix | Kind::IngestMix => {
            let distinct: HashSet<&Vec<u32>> = sets.iter().copied().collect();
            if distinct.len() > 64 {
                problems
                    .push(format!("{} keyword sets do not fit --merge-cache 64", distinct.len()));
            }
        }
    }
}

fn run_untraced(args: &Args, spec: &Spec) -> Res<Report> {
    let mut lines = Vec::new();
    let mut setup_secs = Vec::new();
    let mut kept: Option<(Setup, Server)> = None;
    for rep in 0..SETUP_MAX_REPS {
        if let Some((s, srv)) = kept.take() {
            srv.stop()?;
            let _ = std::fs::remove_dir_all(&s.dir);
        }
        let (s, srv, secs) = setup_once(args, spec, rep)?;
        setup_secs.push(secs);
        lines.push(format!("setup {rep}: {secs:.3} s (gen + build + serve + first answer)"));
        kept = Some((s, srv));
        if rep + 1 >= SETUP_MIN_REPS && setup_secs.iter().sum::<f64>() >= SETUP_MIN_SECS {
            break;
        }
    }
    let (setup, srv) = kept.expect("at least one set-up");
    let nominal_secs = 0.5 * args.seconds;
    let (d, nominal, slo_qps) = drive_server(
        srv.addr,
        spec,
        args.seed,
        nominal_secs,
        Some(0.45 * args.seconds),
        Some(srv.pid()),
    )?;
    let drain = srv.stop()?;
    lines.push(format!("server drain: {drain}"));
    for p in &d.phases {
        lines.push(p.line());
    }

    let mut problems = Vec::new();
    self_check_stream(spec, &d, &mut problems);
    let nominal_idx = d.phases.iter().position(|p| p.name == "nominal").expect("nominal phase");
    let mut mismatches = 0;
    if spec.kind == Kind::IngestMix {
        let mut tracer = trace::Tracer::new();
        let check = ingest::check(
            &d.entries,
            &setup.base_copy,
            &setup.data,
            &setup.idx,
            build_config(spec, args.seed),
            &workload::QueryStream::new(spec, args.seed).hot_sets(),
            &mut tracer,
        )?;
        let flushes_in_nominal = d
            .entries
            .iter()
            .filter(|e| e.phase == nominal_idx && e.rec.ok())
            .filter(|e| matches!(e.op, Op::Write(workload::Write::Flush)))
            .count();
        if flushes_in_nominal < 2 {
            problems
                .push(format!("only {flushes_in_nominal} flush(es) landed in the nominal phase"));
        }
        lines.push(format!(
            "ingest oracle: {} answers checked, {} lagging generation labels, {} flushes replayed",
            check.queries_checked, check.label_lag, check.flushes
        ));
        write_ack_lines(&d, &mut lines);
        mismatches += check.mismatches;
        problems.extend(check.problems);
    } else {
        mismatches += check_static(&d, &setup.idx, &mut problems)?;
    }
    // The generation served at the end (ingest-mix compacts at drain).
    let index_bytes = KbtimIndex::open(&setup.idx, IoStats::new())
        .and_then(|i| i.disk_bytes())
        .map_err(|e| e.to_string())?;

    // `attempted` / `failed` cover the warm-up and the nominal phase: the
    // ladder overloads on purpose, and a rung that ends in shed requests
    // is reported as a missed rung (its counts are in its phase line).
    // A wrong answer counts as failed in any phase.
    let fixed_rate = |e: &&drive::Entry| e.phase <= nominal_idx;
    let attempted = d.entries.iter().filter(fixed_rate).count() as u64;
    let errors = d.entries.iter().filter(fixed_rate).filter(|e| !e.rec.ok()).count() as u64;
    let failed = errors + mismatches;
    let ladder_errors = d.entries.iter().filter(|e| e.phase > nominal_idx && !e.rec.ok()).count();
    lines.push(format!(
        "requests at the nominal rate: attempted={attempted} failed={failed} (errors/drops {errors}, oracle mismatches {mismatches}) error_rate={:.6}; ladder errors/sheds {ladder_errors}",
        failed as f64 / attempted.max(1) as f64
    ));
    lines.push(format!(
        "nominal: {} queries at {:.1}/s from {} answers: p50_ms={:.3} p90_ms={:.3} p99_ms={:.3} (median of per-{}-answer-window p99s)",
        nominal.sent, nominal.qps, nominal.ok, nominal.p50_ms, nominal.tail[0], nominal.p99_ms, drive::P99_WINDOW
    ));

    let requests = (nominal.ok + nominal.writes_ok).max(1) as f64;
    lines.push(format!(
        "slo_qps={slo_qps:.1} 1/s (goodput of the highest ladder rung whose p99 stayed within {} ms)",
        spec.limit_ms
    ));
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_secs), "s");
    m.put("p50_ms", nominal.p50_ms, "ms");
    m.put("cpu_ms_per_request", nominal.server_cpu_ms / requests, "ms");
    m.put("rss_mib", nominal.server_hwm_kib as f64 / 1024.0, "MiB");
    m.put("index_mib", index_bytes as f64 / (1024.0 * 1024.0), "MiB");
    Ok(Report { attempted, failed, problems, metrics: m, lines })
}

/// Ack latency of the mutation verbs (reported beside the end-to-end
/// metrics: only ingest-mix writes).
pub fn write_ack_lines(d: &Session, lines: &mut Vec<String>) {
    let acks: Vec<f64> = d
        .entries
        .iter()
        .filter(|e| matches!(e.op, Op::Write(w) if w != workload::Write::Flush) && e.rec.ok())
        .map(|e| e.rec.latency_ms())
        .collect();
    let sorted = stats::sorted(&acks);
    let mut line = format!(
        "mutation acks: n={} mutation_p50_ms={:.3}",
        sorted.len(),
        stats::quantile(&sorted, 0.5)
    );
    // A tail quantile only where the sample supports one.
    let (label, q) = stats::supported_tail(sorted.len());
    if q > 0.5 {
        line += &format!(" mutation_{label}_ms={:.3}", stats::quantile(&sorted, q));
    }
    lines.push(line);
}
