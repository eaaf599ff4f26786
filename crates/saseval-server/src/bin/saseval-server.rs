//! Command-line entry points for the campaign server.
//!
//! ```text
//! saseval-server serve --addr 127.0.0.1:7461 [--cache-dir DIR] [--cache-cap-bytes N]
//!                [--workers N]
//! saseval-server submit --addr 127.0.0.1:7461 --job '<json>' [--id ID] [--pipeline N]
//!                [--expect-cache hit|miss]
//! saseval-server stats --addr 127.0.0.1:7461
//! ```
//!
//! `serve` runs until an in-band `{"control":"shutdown"}` arrives (or
//! the process is killed; the disk cache tolerates that). `submit`
//! sends one job, prints the payload JSON to stdout and the cache
//! disposition to stderr; with `--expect-cache` it exits nonzero when
//! the server answered from the wrong side of the cache, which is what
//! lets `scripts/check.sh` assert hit/miss behavior without a JSON
//! parser in shell. `--pipeline N` submits the job N times on one
//! connection in a single pipelined batch (identical copies coalesce
//! server-side) and fails unless all N payloads come back
//! byte-identical. `stats` prints the server's live counters frame —
//! jobs, executions, coalesced submissions, cancellations, cache
//! hits — one JSON object on stdout, which is what the check.sh
//! coalescing gate reads.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use saseval_server::{Client, Server, ServerConfig};

fn usage() -> &'static str {
    "usage:\n  saseval-server serve --addr HOST:PORT [--cache-dir DIR] [--cache-cap-bytes N] [--workers N]\n  saseval-server submit --addr HOST:PORT --job JSON [--id ID] [--pipeline N] [--expect-cache hit|miss]\n  saseval-server stats --addr HOST:PORT\n  saseval-server shutdown --addr HOST:PORT"
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--cache-dir" => {
                config.cache_dir = Some(it.next().ok_or("--cache-dir needs a value")?.into());
            }
            "--cache-cap-bytes" => {
                config.cache_cap_bytes = Some(
                    it.next()
                        .ok_or("--cache-cap-bytes needs a value")?
                        .parse()
                        .map_err(|e| format!("invalid --cache-cap-bytes: {e}"))?,
                );
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --workers: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("saseval-server listening on {}", server.addr());
    server.join();
    println!("saseval-server stopped");
    Ok(())
}

fn submit(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut job = None;
    let mut id = "cli".to_owned();
    let mut expect_cache: Option<String> = None;
    let mut pipeline = 1usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--job" => job = Some(it.next().ok_or("--job needs a value")?.clone()),
            "--id" => id = it.next().ok_or("--id needs a value")?.clone(),
            "--expect-cache" => {
                expect_cache = Some(it.next().ok_or("--expect-cache needs a value")?.clone());
            }
            "--pipeline" => {
                pipeline = it
                    .next()
                    .ok_or("--pipeline needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --pipeline: {e}"))?;
                if pipeline == 0 {
                    return Err("--pipeline must be at least 1".to_owned());
                }
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let addr = resolve(&addr.ok_or("submit requires --addr")?)?;
    let job = job.ok_or("submit requires --job")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
    let outcome = if pipeline == 1 {
        client.submit(&id, &job).map_err(|e| format!("job failed: {e}"))?
    } else {
        let ids: Vec<String> = (0..pipeline).map(|i| format!("{id}-{i}")).collect();
        let pairs: Vec<(&str, &str)> = ids.iter().map(|id| (id.as_str(), job.as_str())).collect();
        let outcomes =
            client.submit_many(&pairs).map_err(|e| format!("pipelined jobs failed: {e}"))?;
        let first = outcomes.first().cloned().expect("pipeline >= 1");
        for outcome in &outcomes[1..] {
            if outcome.payload_json != first.payload_json || outcome.key != first.key {
                return Err("pipelined responses are not byte-identical".to_owned());
            }
        }
        eprintln!(
            "pipeline={} identical payloads, caches: {}",
            pipeline,
            outcomes.iter().map(|o| o.cache.as_str()).collect::<Vec<_>>().join(",")
        );
        first
    };
    eprintln!("key={} cache={}", outcome.key, outcome.cache);
    println!("{}", outcome.payload_json);
    if let Some(expect) = expect_cache {
        let hit = outcome.cache != "miss";
        let expected_hit = match expect.as_str() {
            "hit" => true,
            "miss" => false,
            other => return Err(format!("--expect-cache must be hit or miss, got {other}")),
        };
        if hit != expected_hit {
            return Err(format!(
                "expected cache {expect}, server answered from {:?}",
                outcome.cache
            ));
        }
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let addr = resolve(&addr.ok_or("stats requires --addr")?)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
    let frame = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    let line = serde_json::to_string(&frame).map_err(|e| format!("stats frame: {e}"))?;
    println!("{line}");
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let addr = resolve(&addr.ok_or("shutdown requires --addr")?)?;
    let mut client = Client::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
    client.request_shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    eprintln!("server at {addr} acknowledged shutdown");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        _ => Err(usage().to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("saseval-server: {message}");
            ExitCode::FAILURE
        }
    }
}
