//! Run the dI/dt characterization server.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--deadline-ms N]
//! ```
//!
//! Binds (default `127.0.0.1:7411`), prints one
//! `didt-serve listening on <addr>` line so scripts can scrape the
//! resolved address (relevant with port 0), then serves until killed.
//! The CI cluster job starts two of these behind `cluster`, drives
//! them with `storm_report --smoke --router`, and kills one mid-storm.

use didt_serve::{ServeConfig, Server, Service};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServeConfig {
        addr: arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7411".to_string()),
        ..ServeConfig::default()
    };
    if let Some(w) = arg_value("--workers") {
        config.workers = w.parse::<usize>()?.max(1);
    }
    if let Some(d) = arg_value("--queue-depth") {
        config.queue_depth = d.parse::<usize>()?.max(1);
    }
    if let Some(ms) = arg_value("--deadline-ms") {
        config.default_deadline_ms = Some(ms.parse::<u64>()?);
    }

    let service = Service::standard()?;
    let workers = config.workers;
    let queue_depth = config.queue_depth;
    let server = Server::start(config, service)?;
    println!("didt-serve listening on {}", server.local_addr());
    println!("workers {workers}, queue depth {queue_depth}");
    // Serving happens on the server's own threads; this thread only
    // keeps the process alive. Lifecycle is external (CI kills the
    // process; the admitted-work drain is exercised by the in-process
    // integration tests, which call Server::shutdown directly).
    loop {
        std::thread::park();
    }
}
