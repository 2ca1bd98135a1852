//! The program under test as child processes: `kbtim gen` / `kbtim build`
//! for set-up and `kbtim serve --listen 127.0.0.1:0` for serving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// Run one `kbtim` subcommand to completion.
pub fn run_cli(kbtim: &Path, args: &[String]) -> Res<()> {
    let out = Command::new(kbtim)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", kbtim.display()))?;
    if !out.status.success() {
        return Err(format!(
            "kbtim {} failed ({}): {}",
            args.first().map_or("", String::as_str),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// A running `kbtim serve` child. Its stderr goes to a file, so no
/// thread of ours has to drain it.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr_path: PathBuf,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `kbtim serve --listen 127.0.0.1:0 <args>` and wait for its
    /// listening banner.
    pub fn start(kbtim: &Path, args: &[String], stderr_path: &Path) -> Res<Server> {
        let stderr = std::fs::File::create(stderr_path).map_err(|e| e.to_string())?;
        let mut child = Command::new(kbtim)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start kbtim serve: {e}"))?;
        let stdin = child.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(stderr_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("kbtim serve: listening on "))
                .and_then(|a| a.trim().parse().ok())
            {
                return Ok(Server { child, stdin, stderr_path: stderr_path.to_path_buf(), addr });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("kbtim serve exited ({status}) before listening: {text}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("kbtim serve did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain the server (stdin EOF), wait for it to exit, and return its
    /// drain line (`served=… shed=… deadline_exceeded=… failed=… …`).
    pub fn stop(mut self) -> Res<String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("kbtim serve did not drain within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let text = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        if !status.success() {
            return Err(format!("kbtim serve exited with {status}: {text}"));
        }
        text.lines()
            .find_map(|l| l.strip_prefix("kbtim serve: drained ("))
            .map(|l| l.trim_end_matches(')').to_string())
            .ok_or_else(|| format!("no drain line from kbtim serve: {text}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a server behind.
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Peak resident set (`VmHWM`) of process `pid` so far, KiB.
pub fn vm_hwm_kib(pid: u32) -> Res<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// CPU time (user + system, all threads) `pid` has used so far, ms.
pub fn cpu_ms(pid: u32) -> Res<f64> {
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().map_err(|e| format!("bad /proc stat field: {e}")))
        .sum::<Res<u64>>()?;
    // SAFETY: sysconf only reads a system constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    Ok(ticks as f64 * 1e3 / hz as f64)
}

/// Parse `served=1 shed=0 …` into (key, value) pairs.
pub fn drain_counts(line: &str) -> Vec<(String, u64)> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// Send one query on a fresh connection and wait for its answer — the end
/// of set-up.
pub fn first_answer(addr: SocketAddr, line: &str) -> Res<String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    (&stream).write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut answer = String::new();
    BufReader::new(&stream).read_line(&mut answer).map_err(|e| e.to_string())?;
    if answer.contains("\"error\"") || answer.is_empty() {
        return Err(format!("first query failed: {answer}"));
    }
    Ok(answer)
}

/// Copy the regular files of `from` (one level) into a new `to`.
pub fn copy_flat_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from).map_err(|e| e.to_string())?.flatten() {
        if e.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
