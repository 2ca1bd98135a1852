//! The open-loop load generator: one thread per connection, at most two
//! connections. Each thread sends its requests when they fall due
//! (batching any that are overdue into one write) and reads responses in
//! between, so a slow server never slows the schedule; every request is
//! timed from when it was due.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A request scheduled on one connection.
pub struct Planned {
    pub id: u64,
    /// Offset of the send time from the phase start.
    pub due: Duration,
    pub line: String,
}

/// What happened to one request; times are seconds from the phase start
/// (NaN when it never happened).
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u64,
    pub due: f64,
    pub sent: f64,
    pub recv: f64,
    pub response: Option<String>,
}

impl Record {
    /// An answer that is not an error line.
    pub fn ok(&self) -> bool {
        self.response.as_deref().is_some_and(|r| !r.contains("\"error\""))
    }

    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.recv - self.due) * 1e3
    }

    /// How late the generator sent the request, milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Abort rule of an SLO rung: stop offering load once more than
/// `allowed` requests have missed `limit` (answered late, failed, or
/// still outstanding past it) — the rung has failed, and flooding the
/// server further only delays the next rung. The ladder allows 3% of
/// the rung, above what one host stall costs.
#[derive(Clone, Copy)]
pub struct AbortRule {
    pub limit: Duration,
    pub allowed: usize,
}

struct Shared {
    abort: AtomicBool,
    misses: AtomicUsize,
    overdue: Vec<AtomicUsize>,
    rule: Option<AbortRule>,
}

/// Run one phase: `plans[c]` goes out on `conns[c]`. Returns the phase
/// origin and the records per connection, in plan order (requests never
/// sent, after an abort, are left out). `drain` bounds how long answers
/// are awaited after the last send.
pub fn run_phase(
    conns: &mut [TcpStream],
    plans: Vec<Vec<Planned>>,
    rule: Option<AbortRule>,
    drain: Duration,
) -> (Instant, Vec<Vec<Record>>) {
    assert_eq!(conns.len(), plans.len());
    let shared = Shared {
        abort: AtomicBool::new(false),
        misses: AtomicUsize::new(0),
        overdue: (0..conns.len()).map(|_| AtomicUsize::new(0)).collect(),
        rule,
    };
    // Start a little in the future so both threads see the same origin.
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut plans = plans.into_iter();
    let (first_conn, rest_conns) = conns.split_first_mut().expect("at least one connection");
    let first_plan = plans.next().expect("one plan per connection");
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = rest_conns
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(i, (conn, plan))| {
                let shared = &shared;
                scope.spawn(move || drive(conn, plan, t0, shared, i + 1, drain))
            })
            .collect();
        let mut out = vec![drive(first_conn, first_plan, t0, &shared, 0, drain)];
        for h in handles {
            out.push(h.join().expect("load generator thread panicked"));
        }
        out
    });
    (t0, records)
}

fn since(t0: Instant) -> Duration {
    Instant::now().saturating_duration_since(t0)
}

fn drive(
    stream: &mut TcpStream,
    plan: Vec<Planned>,
    t0: Instant,
    shared: &Shared,
    slot: usize,
    drain: Duration,
) -> Vec<Record> {
    let mut recs: Vec<Record> = plan
        .iter()
        .map(|p| Record {
            id: p.id,
            due: p.due.as_secs_f64(),
            sent: f64::NAN,
            recv: f64::NAN,
            response: None,
        })
        .collect();
    let index: HashMap<u64, usize> = plan.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
    let mut next = 0;
    let mut answered = 0;
    let mut oldest = 0;
    let mut stop_at: Option<Duration> = None;
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut partial: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        let now = since(t0);
        if stop_at.is_none() {
            while next < plan.len() && plan[next].due <= now {
                out.extend_from_slice(plan[next].line.as_bytes());
                out.push(b'\n');
                recs[next].sent = now.as_secs_f64();
                next += 1;
            }
            if next == plan.len() || shared.abort.load(Ordering::Relaxed) {
                stop_at = Some(now + drain);
            }
        }
        // The socket is nonblocking: whatever the kernel does not take
        // now stays queued here and goes out on a later pass.
        while !out.is_empty() {
            match stream.write(&out) {
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return finish(recs, next),
            }
        }
        if let Some(stop) = stop_at {
            if answered == next || now >= stop {
                break;
            }
        }
        let wake = match stop_at {
            None => plan[next].due,
            Some(stop) => stop,
        };
        let cap = if out.is_empty() { Duration::from_millis(20) } else { Duration::from_millis(1) };
        let wait = wake.saturating_sub(now).min(cap);
        let read = if wait.is_zero() || wait_readable(stream, wait) {
            stream.read(&mut rbuf)
        } else {
            Err(std::io::ErrorKind::WouldBlock.into())
        };
        match read {
            Ok(0) => break,
            Ok(n) => {
                let t = since(t0).as_secs_f64();
                partial.extend_from_slice(&rbuf[..n]);
                let mut start = 0;
                while let Some(pos) = partial[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&partial[start..start + pos]).into_owned();
                    start += pos + 1;
                    let Some(&i) = response_id(&line).and_then(|id| index.get(&id)) else {
                        continue;
                    };
                    if recs[i].response.is_some() {
                        continue;
                    }
                    recs[i].recv = t;
                    let miss = shared.rule.is_some_and(|r| {
                        line.contains("\"error\"") || t - recs[i].due > r.limit.as_secs_f64()
                    });
                    recs[i].response = Some(line);
                    answered += 1;
                    if miss {
                        shared.misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
                partial.drain(..start);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
        if let Some(rule) = shared.rule {
            while oldest < next && recs[oldest].response.is_some() {
                oldest += 1;
            }
            let horizon = since(t0).as_secs_f64() - rule.limit.as_secs_f64();
            let overdue = recs[oldest..next]
                .iter()
                .take_while(|r| r.due < horizon)
                .filter(|r| r.response.is_none())
                .count();
            shared.overdue[slot].store(overdue, Ordering::Relaxed);
            let total = shared.misses.load(Ordering::Relaxed)
                + shared.overdue.iter().map(|o| o.load(Ordering::Relaxed)).sum::<usize>();
            if total > rule.allowed {
                shared.abort.store(true, Ordering::Relaxed);
            }
        }
    }
    finish(recs, next)
}

/// Drop the records of requests never sent.
fn finish(mut recs: Vec<Record>, sent: usize) -> Vec<Record> {
    recs.truncate(sent);
    recs
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` is readable or `wait` passes; true when readable.
/// `ppoll` takes a nanosecond timeout on a high-resolution timer, where
/// `SO_RCVTIMEO` would round a sub-millisecond wait up to a scheduler
/// tick and make the generator late.
fn wait_readable(stream: &TcpStream, wait: Duration) -> bool {
    use std::os::unix::io::AsRawFd;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: 0x001, revents: 0 };
    let ts = Timespec { tv_sec: wait.as_secs() as i64, tv_nsec: wait.subsec_nanos() as i64 };
    // SAFETY: `fd` and `ts` are live, properly laid out (`struct pollfd`,
    // `struct timespec` on 64-bit Linux) for the whole call, `nfds` is 1,
    // and a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// The `"id"` a response line starts with (every line the benchmark
/// sends carries one, and the server echoes it on errors too).
pub fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Connect `n` connections to `addr` with Nagle off.
pub fn connect(addr: std::net::SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parse_from_answers_and_errors() {
        assert_eq!(response_id(r#"{"id":42,"algo":"rr"}"#), Some(42));
        assert_eq!(response_id(r#"{"id":7,"error":"x","code":"overloaded"}"#), Some(7));
        assert_eq!(response_id(r#"{"error":"x"}"#), None);
    }
}
