//! The scheduling daemon.
//!
//! Usage:
//!
//! ```text
//! suu_serviced --stdin                      # serve NDJSON on stdin/stdout
//! suu_serviced --tcp 127.0.0.1:7077        # serve NDJSON over TCP
//!     [--workers N]                         # connection threads (default 4)
//!     [--solver-threads N]                  # solver pool size
//!     [--queue-capacity N]                  # admission-control bound
//!     [--cache-shards N] [--cache-capacity N]
//! ```
//!
//! On both transports requests execute on a shared solver pool: responses
//! may return out of order (match them by `id`), identical concurrent solves
//! are coalesced, and a full queue yields structured `busy` errors.
//!
//! Status and metrics go to stderr; stdout carries only protocol responses.

use std::sync::Arc;

use suu_service::{
    spawn_tcp, CacheConfig, PipelineConfig, SchedulerService, ServiceConfig, SolverPool,
    TcpServerConfig,
};

struct Args {
    stdin: bool,
    tcp: Option<String>,
    workers: usize,
    pipeline: PipelineConfig,
    cache_shards: usize,
    cache_capacity: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let defaults = PipelineConfig::default();
    Args {
        stdin: argv.iter().any(|a| a == "--stdin"),
        tcp: flag_value("--tcp"),
        workers: flag_value("--workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        pipeline: PipelineConfig {
            solver_threads: flag_value("--solver-threads")
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.solver_threads),
            queue_capacity: flag_value("--queue-capacity")
                .and_then(|v| v.parse().ok())
                .unwrap_or(defaults.queue_capacity),
        },
        cache_shards: flag_value("--cache-shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
        cache_capacity: flag_value("--cache-capacity")
            .and_then(|v| v.parse().ok())
            .unwrap_or(128),
    }
}

fn main() {
    let args = parse_args();
    let service = Arc::new(SchedulerService::new(ServiceConfig {
        cache: CacheConfig {
            num_shards: args.cache_shards,
            capacity_per_shard: args.cache_capacity,
        },
        ..ServiceConfig::default()
    }));
    eprintln!(
        "suu_serviced: solvers [{}]",
        service.registry().names().join(", ")
    );

    if args.stdin {
        let stdin = std::io::stdin();
        eprintln!(
            "suu_serviced: serving NDJSON on stdin/stdout until EOF \
             ({} solver threads, queue {})",
            args.pipeline.solver_threads, args.pipeline.queue_capacity
        );
        let pool = SolverPool::spawn(Arc::clone(&service), &args.pipeline);
        let result = service.serve_lines(stdin.lock(), std::io::stdout(), &pool.handle());
        pool.shutdown();
        if let Err(err) = result {
            eprintln!("suu_serviced: transport error: {err}");
            std::process::exit(1);
        }
        eprintln!("{}", service.metrics().snapshot().render());
        return;
    }

    let addr = args.tcp.unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let handle = match spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr,
            workers: args.workers,
            pipeline: args.pipeline.clone(),
        },
    ) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("suu_serviced: bind failed: {err}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "suu_serviced: listening on {} with {} workers, {} solver threads (Ctrl-C to stop)",
        handle.addr(),
        args.workers,
        args.pipeline.solver_threads
    );
    // Serve until killed; the TCP threads own all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!("{}", service.metrics().snapshot().render());
    }
}
