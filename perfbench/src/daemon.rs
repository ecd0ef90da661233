//! The daemon under test: a real `suu_serviced --tcp` child process with
//! default settings, plus the two observations the benchmark takes of it
//! from outside (a `stats` scrape and the peak resident set size).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's periodic stderr reports never hit a closed
    /// pipe; never read after start-up.
    _stderr: BufReader<ChildStderr>,
    /// The loopback address the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits until it
    /// answers a `stats` verb. Returns the daemon and the seconds from spawn
    /// to that first answer.
    pub fn start(binary: &Path) -> Result<(Self, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .split("listening on ")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .map(str::to_string);
                }
            }
        }
        let mut daemon = Self {
            child,
            _stderr: stderr,
            addr: String::new(),
        };
        daemon.addr = addr.ok_or("daemon exited before announcing its address")?;
        daemon.stats()?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// One `stats` verb over a fresh connection; returns the `stats` object.
    pub fn stats(&self) -> Result<Value, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("stats connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writer
            .write_all(b"{\"id\":0,\"verb\":\"stats\"}\n")
            .map_err(|e| format!("stats send: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("stats read: {e}"))?;
        let value = serde_json::parse(reply.trim_end()).map_err(|e| format!("stats parse: {e}"))?;
        value
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without stats: {reply}"))
    }

    /// The daemon's peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads a non-negative number at `path` (dot-separated keys) of a scraped
/// `stats` object; absent fields read as 0.
pub fn stat(stats: &Value, path: &str) -> f64 {
    path.split('.')
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_number)
        .unwrap_or(0.0)
}
