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
//! An unknown flag, a missing value or an unparsable number prints the usage
//! on stderr and exits with status 2.
//!
//! Status and metrics go to stderr; stdout carries only protocol responses.

use std::sync::Arc;

use suu_service::{
    spawn_tcp, CacheConfig, PipelineConfig, SchedulerService, ServiceConfig, SolverPool,
    TcpServerConfig,
};

const USAGE: &str = "usage: suu_serviced (--stdin | --tcp ADDR) [--workers N] \
[--solver-threads N] [--queue-capacity N] [--cache-shards N] [--cache-capacity N]";

struct Args {
    stdin: bool,
    tcp: Option<String>,
    workers: usize,
    pipeline: PipelineConfig,
    cache_shards: usize,
    cache_capacity: usize,
}

/// Parses the command line (without the program name). An unknown flag, a
/// missing value or a value that is not a number is an error.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        stdin: false,
        tcp: None,
        workers: 4,
        pipeline: PipelineConfig::default(),
        cache_shards: 8,
        cache_capacity: 128,
    };
    while let Some(flag) = argv.next() {
        let target = match flag.as_str() {
            "--stdin" => {
                args.stdin = true;
                continue;
            }
            "--tcp" => {
                args.tcp = Some(argv.next().ok_or("`--tcp` needs an address")?);
                continue;
            }
            "--workers" => &mut args.workers,
            "--solver-threads" => &mut args.pipeline.solver_threads,
            "--queue-capacity" => &mut args.pipeline.queue_capacity,
            "--cache-shards" => &mut args.cache_shards,
            "--cache-capacity" => &mut args.cache_capacity,
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        *target = value
            .parse()
            .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))?;
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("suu_serviced: {err}\n{USAGE}");
        std::process::exit(2);
    });
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
