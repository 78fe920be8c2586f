//! nokd — the query daemon.
//!
//! Opens a database directory read-only (structural pool capped at 256
//! frames by default so serving exercises eviction), starts a
//! [`QueryService`] worker pool, and serves TCP connections speaking the
//! pipelined binary protocol (`nok_serve::binproto`, served by
//! `nok_serve::conn`). One thread per connection; all connections share
//! the service's bounded admission queue.
//!
//! ```text
//! nokd <db-dir> [--addr 127.0.0.1:0] [--port-file PATH]
//!      [--workers N] [--queue N] [--timeout-ms N] [--pool-frames N]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (with `--addr
//! 127.0.0.1:0` the kernel picks the port; `--port-file` writes it where
//! scripts can read it).

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nok_core::XmlDb;
use nok_serve::conn::serve_connection;
use nok_serve::{QueryService, ServiceConfig, SERVE_POOL_FRAMES};

struct Args {
    db_dir: String,
    addr: String,
    port_file: Option<String>,
    workers: usize,
    queue: usize,
    timeout_ms: u64,
    pool_frames: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        db_dir: String::new(),
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        workers: 4,
        queue: 128,
        timeout_ms: 10_000,
        pool_frames: SERVE_POOL_FRAMES,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => args.addr = take("--addr")?,
            "--port-file" => args.port_file = Some(take("--port-file")?),
            "--workers" => {
                args.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?;
            }
            "--queue" => {
                args.queue = take("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be an integer".to_string())?;
            }
            "--timeout-ms" => {
                args.timeout_ms = take("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_string())?;
            }
            "--pool-frames" => {
                args.pool_frames = take("--pool-frames")?
                    .parse()
                    .map_err(|_| "--pool-frames must be an integer".to_string())?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: nokd <db-dir> [--addr A] [--port-file F] [--workers N] \
                     [--queue N] [--timeout-ms N] [--pool-frames N]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => {
                if args.db_dir.is_empty() {
                    args.db_dir = positional.to_string();
                } else {
                    return Err(format!("unexpected argument {positional}"));
                }
            }
        }
    }
    if args.db_dir.is_empty() {
        return Err("usage: nokd <db-dir> [flags]".to_string());
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("nokd: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let db = Arc::new(
        XmlDb::open_dir_with_capacity(&args.db_dir, args.pool_frames)
            .map_err(|e| format!("open {}: {e}", args.db_dir))?,
    );
    if let Some(r) = db.recovery_report() {
        if r.was_dirty() {
            eprintln!(
                "nokd: recovered {}: {} txn(s) replayed, {} page(s) restored, \
                 dictionary restored: {}, synopsis restored: {}",
                args.db_dir, r.replayed_txns, r.pages_applied, r.dict_restored, r.stats_restored
            );
        }
    }
    let svc = Arc::new(QueryService::start(
        db,
        ServiceConfig {
            workers: args.workers,
            queue_cap: args.queue,
            default_timeout: Duration::from_millis(args.timeout_ms),
            ..ServiceConfig::default()
        },
    ));

    let listener = TcpListener::bind(&args.addr).map_err(|e| format!("bind {}: {e}", args.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(pf) = &args.port_file {
        std::fs::write(pf, format!("{}\n", local.port()))
            .map_err(|e| format!("write {pf}: {e}"))?;
    }
    println!("listening on {local}");
    let _ = std::io::stdout().flush();

    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nokd: accept: {e}");
                continue;
            }
        };
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name("nokd-conn".to_string())
            .spawn(move || {
                if let Err(e) = serve_connection(&stream, &svc, &stop, local) {
                    // A dropped connection is routine, not fatal.
                    eprintln!("nokd: connection: {e}");
                }
            });
        if let Err(e) = spawned {
            eprintln!("nokd: spawn: {e}");
        }
    }
    eprintln!("nokd: {}", svc.metrics().summary());
    Ok(())
}
