//! The resident inference daemon.
//!
//! ```sh
//! # Speak atlas-serve/1 over stdin/stdout:
//! cargo run --release -p atlas-serve --bin serve
//! # ... or over a Unix socket:
//! cargo run --release -p atlas-serve --bin serve -- --socket /tmp/atlas.sock
//! ```
//!
//! Configuration comes from the `ATLAS_SERVE_*` environment knobs (see
//! `atlas_serve::config`), overridable by flags:
//!
//! * `--library NAME` — registry name of the library under service.
//! * `--samples N` / `--threads N` — budgets.
//! * `--workers N` — service worker-pool size (`0` = auto; the thread
//!   budget clamps it).
//! * `--store ROOT` — closure-sharded store root.
//! * `--shards N` — hot-shard LRU budget.
//! * `--queue N` — request-queue capacity (backpressure bound).
//! * `--flush-every N` — write-behind schedule (`0` = after every edit).
//! * `--max-sessions N` — open-session cap (`atlas-serve/2` `open`).
//! * `--socket PATH` — serve connections on a Unix socket instead of
//!   stdin/stdout (the socket file is replaced if present).
//!
//! Startup writes one human line to stderr, then the daemon answers
//! frames until EOF (stdio mode) or until a `shutdown` request (both
//! modes).  Dirty shards are flushed on shutdown; an orderly EOF also
//! flushes before exit.

use atlas_core::env::Cli;
use atlas_serve::{ServeConfig, Service};
use std::io::BufReader;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;

const USAGE: &str = "serve [--library NAME] [--samples N] [--threads N] [--workers N] \
                     [--store ROOT] [--shards N] [--queue N] [--flush-every N] \
                     [--max-sessions N] [--socket PATH]";

fn main() {
    let mut config = ServeConfig::from_env().unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    let mut socket: Option<PathBuf> = None;
    Cli::new("serve", USAGE).parse(|flag, cli| match flag {
        "--library" => config.library = cli.string(),
        "--samples" => config.samples = cli.value(),
        "--threads" => config.threads = cli.value(),
        "--workers" => config.workers = cli.value(),
        "--max-sessions" => config.max_sessions = cli.value(),
        "--store" => config.store = cli.path(),
        "--shards" => config.shard_budget = cli.value(),
        "--queue" => config.queue_capacity = cli.value(),
        "--flush-every" => config.flush_every = cli.value(),
        "--socket" => socket = Some(cli.path()),
        _ => cli.unknown(),
    });

    let max_frame = config.max_frame;
    eprintln!(
        "serve: {} ({} samples/cluster, threads={}, workers={}, store={}, shards={}, queue={}, \
         flush-every={}, max-sessions={})",
        config.library,
        config.samples,
        config.threads,
        config.workers,
        config.store.display(),
        config.shard_budget,
        config.queue_capacity,
        config.flush_every,
        config.max_sessions,
    );
    let mut service = match Service::spawn(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    };

    match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = service.serve_stream(stdin.lock(), stdout, max_frame) {
                eprintln!("serve: stream error: {e}");
            }
            // Orderly EOF without a shutdown request: flush via the
            // protocol so dirty shards survive.
            let handle = service.handle();
            let _ = handle.request_line("{\"op\":\"shutdown\"}");
            service.join();
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = match UnixListener::bind(&path) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("serve: cannot bind {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            listener
                .set_nonblocking(true)
                .expect("socket nonblocking mode");
            eprintln!("serve: listening on {}", path.display());
            std::thread::scope(|scope| loop {
                if service.is_shutting_down() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream
                            .set_nonblocking(false)
                            .expect("connection blocking mode");
                        let writer = match stream.try_clone() {
                            Ok(writer) => writer,
                            Err(e) => {
                                eprintln!("serve: connection clone failed: {e}");
                                continue;
                            }
                        };
                        let service = &service;
                        scope.spawn(move || {
                            let reader = BufReader::new(stream);
                            if let Err(e) = service.serve_stream(reader, writer, max_frame) {
                                eprintln!("serve: connection error: {e}");
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    Err(e) => {
                        eprintln!("serve: accept error: {e}");
                        break;
                    }
                }
            });
            let _ = std::fs::remove_file(&path);
            service.join();
        }
    }
}
