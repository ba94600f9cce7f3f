//! The coloring service binary: a long-lived localhost TCP server
//! answering [`dcl_service`] protocol requests for every registered
//! scenario.
//!
//! ```text
//! dcl_serve [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!           [--timeout-ms MS] [--max-nodes N] [--max-edges N]
//!           [--max-threads N]
//! ```
//!
//! Defaults mirror [`ServiceConfig::default`] (loopback with an OS-chosen
//! port, 2 workers). The bound address is printed as `listening on ADDR`
//! once the socket is ready, so harnesses that pass `--addr 127.0.0.1:0`
//! can scrape the port. Runs until killed.

use dcl_service::{scenario_names, Server, ServiceConfig};
use std::process::exit;
use std::slice::Iter;
use std::str::FromStr;
use std::time::Duration;

fn usage_error(message: &str) -> ! {
    eprintln!("dcl_serve: {message}");
    eprintln!(
        "usage: dcl_serve [--addr HOST:PORT] [--workers N] [--max-inflight N] [--timeout-ms MS] \
         [--max-nodes N] [--max-edges N] [--max-threads N]"
    );
    exit(2);
}

fn parse_config(args: &[String]) -> ServiceConfig {
    let mut config = ServiceConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let limits = config.limits;
        config = match flag.as_str() {
            "--addr" => config.with_addr(value(&mut it, flag)),
            "--workers" => config.with_workers(value(&mut it, flag)),
            "--max-inflight" => config.with_max_inflight(value(&mut it, flag)),
            "--timeout-ms" => {
                config.with_request_timeout(Duration::from_millis(value(&mut it, flag)))
            }
            "--max-nodes" => config.with_limits(limits.with_max_nodes(value(&mut it, flag))),
            "--max-edges" => config.with_limits(limits.with_max_edges(value(&mut it, flag))),
            "--max-threads" => config.with_limits(limits.with_max_threads(value(&mut it, flag))),
            other => usage_error(&format!("unknown flag '{other}'")),
        };
    }
    config
}

/// Takes the argument after `flag` and parses it, or exits with a usage
/// error.
fn value<T: FromStr>(it: &mut Iter<'_, String>, flag: &str) -> T {
    let raw = it
        .next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad value '{raw}' for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_config(&args);
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dcl_serve: bind {} failed: {e}", config.addr);
            exit(1);
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    println!("listening on {addr}");
    println!(
        "workers={} max-inflight={} timeout-ms={} max-nodes={} max-edges={} max-threads={} \
         scenarios={}",
        config.workers,
        config.max_inflight,
        config.request_timeout.as_millis(),
        config.limits.max_nodes,
        config.limits.max_edges,
        config.limits.max_threads,
        scenario_names().join(",")
    );
    server.run();
}
