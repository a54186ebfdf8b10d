//! `waymem-serve` — the experiment daemon.
//!
//! Owns one warm trace store and serves experiment requests over the
//! length-prefixed TCP protocol until a client sends `Shutdown`, then
//! drains gracefully and exits 0.
//!
//! ```text
//! usage: waymem-serve [--addr HOST:PORT]
//!
//! env:   WAYMEM_SERVE_ADDR             listen address (default 127.0.0.1:7914)
//!        WAYMEM_SERVE_WORKERS          worker threads (default min(cores, 4))
//!        WAYMEM_SERVE_QUEUE            admission queue depth (default 64)
//!        WAYMEM_SERVE_TIMEOUT_MS       per-request budget (default 60000)
//!        WAYMEM_TRACE_CACHE            persistent store directory (default in-memory)
//!        WAYMEM_TRACE_CACHE_MAX_BYTES  byte cap on that directory (default none)
//!        WAYMEM_FAULT_PLAN             store fault plan, SEED[:PERIOD] (default off)
//! ```
//!
//! The bound address is announced on stdout as `listening on ADDR` —
//! scripts bind port 0 and parse that line.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use waymem_serve::server::{self, ServeConfig};
use waymem_trace::TraceStore;

fn usage() -> ! {
    eprintln!("usage: waymem-serve [--addr HOST:PORT]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    waymem_obs::init_from_env();
    let mut cfg = ServeConfig::from_env();
    if cfg.addr == "127.0.0.1:0" && std::env::var("WAYMEM_SERVE_ADDR").is_err() {
        // Default to the well-known port unless the env chose one; the
        // flag below can still force an ephemeral bind.
        cfg.addr = "127.0.0.1:7914".to_owned();
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => cfg.addr = addr,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let store = TraceStore::from_env();
    let handle = match server::start(cfg, store) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("waymem-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();

    // No async signal handling in a forbid(unsafe_code) workspace: the
    // drain trigger is the protocol's Shutdown frame.
    while !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.join();
    println!("drained");

    match waymem_obs::span::flush() {
        Ok(Some((path, events))) => eprintln!("wrote {events} span events to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("waymem-serve: failed to write span trace: {e}"),
    }
    ExitCode::SUCCESS
}
