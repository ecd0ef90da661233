//! TCP transport: a listener plus a fixed pool of connection worker threads.
//!
//! Each accepted connection is pushed onto a shared queue; workers pop
//! connections and serve them until the client closes. The acceptor never
//! blocks on a slow client. A worker only reads its connection's lines into
//! jobs on the solver pool shared by **all** connections ([`SolverPool`],
//! through [`SchedulerService::serve_lines`]): responses come back out of
//! order, a full queue is rejected with a structured `busy` error, and
//! identical concurrent solves are coalesced by the schedule store.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::pipeline::{PipelineConfig, PoolHandle, SolverPool};
use crate::service::SchedulerService;

/// Connections currently being served, keyed by a registration id so a
/// worker can deregister exactly its own entry when the client disconnects.
#[derive(Default)]
struct ActiveConnections {
    next_id: AtomicU64,
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

impl ActiveConnections {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams
            .lock()
            .expect("active connections poisoned")
            .push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams
            .lock()
            .expect("active connections poisoned")
            .retain(|(other, _)| *other != id);
    }

    /// Forcibly closes every in-flight connection, unblocking workers that
    /// are waiting on idle clients.
    fn close_all(&self) {
        for (_, stream) in self
            .streams
            .lock()
            .expect("active connections poisoned")
            .iter()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// TCP transport configuration.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of connection-serving worker threads (one reader per
    /// connection being served).
    pub workers: usize,
    /// Sizing of the solver pool shared by every connection.
    pub pipeline: PipelineConfig,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Handle to a running TCP service: the bound address plus a clean shutdown.
pub struct ServiceHandle {
    addr: SocketAddr,
    service: Arc<SchedulerService>,
    shutdown: Arc<AtomicBool>,
    active: Arc<ActiveConnections>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The solver pool shared by every connection.
    pool: SolverPool,
}

impl ServiceHandle {
    /// The address the service is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (cache and metrics inspection).
    #[must_use]
    pub fn service(&self) -> &Arc<SchedulerService> {
        &self.service
    }

    /// A handle on the shared solver pool (queue inspection).
    #[must_use]
    pub fn pool(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// Stops accepting, force-closes in-flight connections and joins every
    /// thread. Requests already being solved still get their response written
    /// (the close only interrupts reads that are waiting for the client's
    /// next line).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With no readers left nothing can submit; drain the remaining
        // queued jobs (best effort — their clients are likely gone) and
        // join the solver threads.
        self.pool.join();
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection, then unblock
        // workers parked on idle clients.
        let _ = TcpStream::connect(self.addr);
        self.active.close_all();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        // Best-effort: signal shutdown so detached threads exit; handles that
        // were shut down explicitly have nothing left to do.
        if !self.shutdown.load(Ordering::SeqCst) {
            self.begin_shutdown();
        }
    }
}

/// Spawns the TCP transport for `service`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn spawn_tcp(
    service: Arc<SchedulerService>,
    config: &TcpServerConfig,
) -> std::io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(ActiveConnections::default());
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
    let rx = Arc::new(Mutex::new(rx));
    let pool = SolverPool::spawn(Arc::clone(&service), &config.pipeline);
    let pool_handle = pool.handle();

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let pool_handle = pool_handle.clone();
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the other
                // workers free to pick up the next connection.
                let stream = match rx.lock() {
                    Ok(rx) => rx.recv(),
                    Err(_) => return,
                };
                match stream {
                    Ok(stream) => {
                        // Connections still queued when shutdown begins are
                        // dropped unserved (registering them after close_all
                        // ran would leave a worker stuck on an idle client).
                        if shutdown.load(Ordering::SeqCst) {
                            continue;
                        }
                        // Batched NDJSON writes with Nagle enabled deadlock
                        // against delayed ACKs for tens of milliseconds per
                        // burst; every response is a complete message, so
                        // send segments immediately.
                        let _ = stream.set_nodelay(true);
                        // An unregistrable connection (try_clone failure, e.g.
                        // fd exhaustion) must not be served: close_all could
                        // never reach it, so an idle client would park this
                        // worker past shutdown.
                        let Some(id) = active.register(&stream) else {
                            continue;
                        };
                        // Re-check after registering: begin_shutdown sets the
                        // flag before close_all, so either close_all saw our
                        // entry or we see the flag here — no window in which a
                        // connection is served but unclosable.
                        if shutdown.load(Ordering::SeqCst) {
                            let _ = stream.shutdown(Shutdown::Both);
                        }
                        let reader = match stream.try_clone() {
                            Ok(clone) => BufReader::new(clone),
                            Err(_) => {
                                active.deregister(id);
                                continue;
                            }
                        };
                        let writer = BufWriter::new(stream);
                        // Client disconnects surface as I/O errors; the worker
                        // just moves on to the next connection.
                        let _ = service.serve_lines(reader, writer, &pool_handle);
                        active.deregister(id);
                    }
                    Err(_) => return, // channel closed: shutdown
                }
            })
        })
        .collect();

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // Dropping `tx` here closes the channel and releases the workers.
        })
    };

    Ok(ServiceHandle {
        addr,
        service,
        shutdown,
        active,
        acceptor: Some(acceptor),
        workers,
        pool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::service::ServiceConfig;
    use std::io::{BufRead, Write};
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn start_with(pipeline: PipelineConfig) -> ServiceHandle {
        let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
        spawn_tcp(
            service,
            &TcpServerConfig {
                pipeline,
                ..TcpServerConfig::default()
            },
        )
        .unwrap()
    }

    fn start() -> ServiceHandle {
        start_with(PipelineConfig::default())
    }

    fn request(id: u64, seed: u64) -> String {
        let inst = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, seed))
            .build()
            .unwrap();
        serde_json::to_string(&Request::from_instance(id, &inst)).unwrap()
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(&response).unwrap()
    }

    #[test]
    fn serves_a_request_over_tcp() {
        let handle = start();
        let resp = roundtrip(handle.addr(), &request(1, 31));
        assert!(resp.ok, "error: {:?}", resp.error);
        assert_eq!(resp.id, 1);
        handle.shutdown();
    }

    #[test]
    fn multiple_requests_on_one_connection() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for id in 1..=3 {
            writeln!(writer, "{}", request(id, 32)).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp: Response = serde_json::from_str(&line).unwrap();
            assert!(resp.ok);
            assert_eq!(resp.id, id);
            assert_eq!(resp.cache_hit, id > 1);
        }
        handle.shutdown();
    }

    #[test]
    fn pipelined_burst_answers_every_id_on_one_connection() {
        let handle = start_with(PipelineConfig {
            solver_threads: 2,
            queue_capacity: 64,
        });
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        // Send the whole burst before reading anything.
        for id in 1..=16u64 {
            writeln!(writer, "{}", request(id, 33 + id)).unwrap();
        }
        writer.flush().unwrap();
        let mut ids = Vec::new();
        for _ in 0..16 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp: Response = serde_json::from_str(&line).unwrap();
            assert!(resp.ok, "error: {:?}", resp.error);
            ids.push(resp.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>());
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_no_traffic() {
        let handle = start();
        let addr = handle.addr();
        handle.shutdown();
        // A fresh connection may still be accepted by the OS backlog, but the
        // service no longer serves; at minimum the port is released promptly
        // enough that rebinding elsewhere works.
        let _ = TcpStream::connect(addr);
    }
}
