//! The load drivers: a closed-loop driver (one request outstanding per
//! connection) and an open-loop driver (arrivals on a fixed schedule,
//! latency timed from each request's *intended* send time, so a stalled
//! server cannot hide its queueing delay — no coordinated omission).
//!
//! Each connection runs on its own thread; a response is checked cheaply on
//! arrival (its id must match, it must be `ok`) and only the responses of
//! sampled requests are kept whole for the checks that run off the clock.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use suu_service::{scan_request_id, scan_u64_field};

/// How long a closed-loop client waits for one response before counting a
/// timeout and giving up on the connection.
const CLOSED_LOOP_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the open-loop driver keeps reading after its last send.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(20);

/// The per-response `trace` object of a traced request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trace {
    pub queue_us: u64,
    pub solve_us: u64,
    pub render_us: u64,
    pub flush_us: u64,
}

impl Trace {
    fn scan(line: &str) -> Option<Self> {
        let at = line.find("\"trace\":")?;
        let body = &line[at..];
        let field = |key: &str| scan_u64_field(body, &format!("\"{key}\":")).unwrap_or(0);
        Some(Self {
            queue_us: field("queue_us"),
            solve_us: field("solve_us"),
            render_us: field("render_us"),
            flush_us: field("flush_us"),
        })
    }
}

/// What one pass of one driver observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent (scheduling requests and session verbs alike).
    pub attempted: u64,
    /// `ok` responses whose id matched.
    pub ok: u64,
    /// Error responses other than `busy`.
    pub errors: u64,
    /// `busy` rejections.
    pub busy: u64,
    /// Requests never answered.
    pub timeouts: u64,
    /// Responses whose id did not match the request.
    pub mismatched: u64,
    /// Session verbs among `attempted` (answered outside the `requests`
    /// counter of the service).
    pub verbs: u64,
    /// Every answered request: when its answer arrived, and its
    /// client-observed latency in microseconds (from the send in the closed
    /// loop, from the intended send time in the open loop).
    pub latencies_us: Vec<(Instant, f64)>,
    /// Bytes of every response line, summed.
    pub response_bytes: u64,
    /// Worst lateness of the open-loop generator: actual minus intended
    /// send time, microseconds.
    pub generator_lag_max_us: f64,
    /// Whole response lines of the sampled requests, by request id.
    pub kept: HashMap<u64, String>,
    /// Per-response traces (traced passes only).
    pub traces: Vec<Trace>,
    /// The first error response seen, for diagnostics.
    pub first_error: Option<String>,
}

impl Outcome {
    /// Records one response to request `id`, `latency_us` after it was due.
    pub fn record(&mut self, id: u64, line: &str, latency_us: f64, keep: bool) {
        self.response_bytes += line.len() as u64 + 1;
        self.latencies_us.push((Instant::now(), latency_us));
        if scan_request_id(line) != id {
            self.mismatched += 1;
            self.first_error
                .get_or_insert_with(|| format!("response id mismatch for request {id}"));
        } else if line.starts_with(&format!("{{\"id\":{id},\"ok\":true")) {
            self.ok += 1;
            if let Some(trace) = Trace::scan(line) {
                self.traces.push(trace);
            }
        } else if line.contains("\"error_kind\":\"busy\"") {
            self.busy += 1;
        } else {
            self.errors += 1;
            self.first_error
                .get_or_insert_with(|| line.chars().take(300).collect());
        }
        if keep {
            self.kept.insert(id, line.to_string());
        }
    }

    /// Folds another connection's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.errors += other.errors;
        self.busy += other.busy;
        self.timeouts += other.timeouts;
        self.mismatched += other.mismatched;
        self.verbs += other.verbs;
        self.latencies_us.extend(other.latencies_us);
        self.response_bytes += other.response_bytes;
        self.generator_lag_max_us = self.generator_lag_max_us.max(other.generator_lag_max_us);
        self.kept.extend(other.kept);
        self.traces.extend(other.traces);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Failed requests: errors, `busy`, timeouts and id mismatches.
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.timeouts + self.mismatched
    }
}

/// One blocking NDJSON connection: send a line, read the reply.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLOSED_LOOP_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            buf: Vec::new(),
        })
    }

    /// Sends `line` and returns the next response line (without `\n`).
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// Timed [`call`](Self::call) recorded into `outcome`; `None` when the
    /// connection failed (counted as a timeout).
    pub fn timed_call(
        &mut self,
        outcome: &mut Outcome,
        id: u64,
        line: &str,
        keep: bool,
    ) -> Option<String> {
        outcome.attempted += 1;
        let sent = Instant::now();
        match self.call(line) {
            Ok(reply) => {
                outcome.record(id, &reply, micros(sent.elapsed()), keep);
                Some(reply)
            }
            Err(err) => {
                outcome.timeouts += 1;
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("request {id}: {err}"));
                None
            }
        }
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Closed loop on one connection: `next(i)` yields the `i`-th request of
/// this connection as `(id, line, keep)`; requests are issued back to back
/// until `deadline` (the request in flight at the deadline completes) or
/// until `limit` requests were sent.
pub fn closed_loop(
    addr: &str,
    deadline: Instant,
    limit: usize,
    mut next: impl FnMut(usize) -> (u64, String, bool),
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(err) => {
            outcome.first_error = Some(format!("connect: {err}"));
            outcome.timeouts += 1;
            outcome.attempted += 1;
            return outcome;
        }
    };
    for i in 0..limit {
        if Instant::now() >= deadline {
            break;
        }
        let (id, line, keep) = next(i);
        if conn.timed_call(&mut outcome, id, &line, keep).is_none() {
            break;
        }
    }
    outcome
}

/// The arrival schedule shared by the open-loop connections: arrival `k`
/// is due at `start + k / rate` and goes out on connection `k mod conns`.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    pub start: Instant,
    pub rate: f64,
    pub total: usize,
    pub conns: usize,
}

impl Arrivals {
    fn due(&self, k: usize) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }
}

/// Open loop on connection `conn` of `arrivals`: sends each of its arrivals
/// at its due time (request id `k + 1`), reads responses as they come and
/// times each from its due time. `line(k)` renders arrival `k`; `keep(k)`
/// selects the responses kept whole.
pub fn open_loop(
    addr: &str,
    arrivals: Arrivals,
    conn: usize,
    line: impl Fn(usize) -> String,
    keep: impl Fn(usize) -> bool,
) -> Outcome {
    let mut outcome = Outcome::default();
    tighten_timer_slack();
    let stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
        Ok(stream) => stream,
        Err(err) => {
            outcome.first_error = Some(format!("connect: {err}"));
            return outcome;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(err) => {
            outcome.first_error = Some(format!("connect: {err}"));
            return outcome;
        }
    };
    let mut reader = stream;
    let mut next = conn;
    let mut outstanding = 0u64;
    let mut answered = vec![false; arrivals.total];
    let mut pending: Vec<u8> = Vec::with_capacity(1 << 17);
    let mut chunk = vec![0u8; 1 << 16];
    let mut out = Vec::new();
    let last_due = arrivals.due(arrivals.total);
    loop {
        let now = Instant::now();
        while next < arrivals.total && arrivals.due(next) <= now {
            out.clear();
            out.extend_from_slice(line(next).as_bytes());
            out.push(b'\n');
            let lag = micros(Instant::now().saturating_duration_since(arrivals.due(next)));
            outcome.generator_lag_max_us = outcome.generator_lag_max_us.max(lag);
            outcome.attempted += 1;
            if let Err(err) = writer.write_all(&out) {
                outcome.timeouts += 1;
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("send: {err}"));
            } else {
                outstanding += 1;
            }
            next += arrivals.conns;
        }
        if next >= arrivals.total && outstanding == 0 {
            break;
        }
        let wait = if next < arrivals.total {
            arrivals.due(next).saturating_duration_since(Instant::now())
        } else {
            let give_up = last_due + OPEN_LOOP_GRACE;
            if Instant::now() >= give_up {
                break;
            }
            give_up - Instant::now()
        };
        match wait_readable(&reader, wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(err) => {
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("poll: {err}"));
                break;
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let received = Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some(eol) = pending[consumed..].iter().position(|&b| b == b'\n') {
                    let raw = &pending[consumed..consumed + eol];
                    consumed += eol + 1;
                    let text = String::from_utf8_lossy(raw);
                    let id = scan_request_id(&text);
                    let k = (id as usize).wrapping_sub(1);
                    outstanding = outstanding.saturating_sub(1);
                    // Each response must answer a request this connection
                    // sent and has not seen answered yet.
                    if k >= next || k % arrivals.conns != conn || answered[k] {
                        outcome.mismatched += 1;
                        outcome
                            .first_error
                            .get_or_insert_with(|| format!("unexpected response id {id}"));
                        continue;
                    }
                    answered[k] = true;
                    let latency = micros(received.saturating_duration_since(arrivals.due(k)));
                    outcome.record(id, &text, latency, keep(k));
                }
                pending.drain(..consumed);
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => {
                outcome
                    .first_error
                    .get_or_insert_with(|| format!("read: {err}"));
                break;
            }
        }
    }
    outcome.timeouts += outstanding;
    outcome
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets this thread's timer slack to 1 µs (`PR_SET_TIMERSLACK`). The default
/// 50 µs lets every `ppoll` wake-up, and so every open-loop send, run up to
/// 50 µs late; a send's lateness counts in its latency.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `PR_SET_TIMERSLACK` takes one integer argument and changes
    // only the calling thread's timer slack; the unused arguments are 0.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// Waits until `stream` has data (or EOF) or `timeout` passes; `true` when
/// a read will not block. `ppoll` sleeps on a high-resolution timer, unlike
/// socket read timeouts, which round up to the kernel tick and would make
/// the open-loop generator send late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `pollfd` and
    // `timespec` values for the duration of the call; one descriptor is
    // passed and no signal mask is installed.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}
