//! nokq — the query client.
//!
//! Three modes, all emitting the same canonical one-line-per-query format
//! (`path<TAB>count<TAB>dewey;dewey;...`) so outputs diff byte-for-byte:
//!
//! * **server**: `nokq --addr HOST:PORT [query ...]` sends each query over
//!   the wire protocol (reads queries from stdin when none are given, one
//!   per line, `#` comments and blanks skipped).
//! * **offline**: `nokq --offline <db-dir> [query ...]` evaluates the same
//!   queries in-process against the database directory — the e2e oracle.
//! * **workload**: `nokq --workload <dataset>` prints the paper's Q1–Q12
//!   workload paths for a dataset, including the `//` descendant variants,
//!   one per line — pipe it back into either mode above.
//!
//! Extras for scripting: `--stats` and `--shutdown` (server mode only),
//! `--timeout-ms N` per-query deadline, and `--explain` (server and
//! offline modes) which prints each query's plan — one row per operator
//! with estimated vs actual cardinalities — instead of the result line.
//!
//! `--pipeline N` (server mode, default 1) keeps up to `N` queries in
//! flight on the one connection. Responses may return out of order; nokq
//! prints each line once every lower-numbered line is out, so the output
//! stays byte-identical to `--offline` at any depth, and a failing query
//! leaves the lines before it on stdout.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::TcpStream;

use nok_core::{QueryOptions, XmlDb};
use nok_serve::binproto::{BinClient, BinResponse};
use nok_serve::{result_line, Request, WireMatch};

struct Args {
    addr: Option<String>,
    offline: Option<String>,
    workload: Option<String>,
    timeout_ms: Option<u64>,
    stats: bool,
    shutdown: bool,
    explain: bool,
    pipeline: usize,
    queries: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        offline: None,
        workload: None,
        timeout_ms: None,
        stats: false,
        shutdown: false,
        explain: false,
        pipeline: 1,
        queries: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => args.addr = Some(take("--addr")?),
            "--offline" => args.offline = Some(take("--offline")?),
            "--workload" => args.workload = Some(take("--workload")?),
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    take("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms must be an integer".to_string())?,
                );
            }
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            "--explain" => args.explain = true,
            "--pipeline" => {
                args.pipeline = take("--pipeline")?
                    .parse()
                    .map_err(|_| "--pipeline must be an integer".to_string())?;
                if args.pipeline == 0 {
                    return Err("--pipeline must be at least 1".to_string());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: nokq --addr HOST:PORT [--timeout-ms N] [--stats] [--shutdown] [--explain]\n\
                     \x20           [--pipeline N] [query ...]\n\
                     \x20      nokq --offline <db-dir> [--explain] [query ...]\n\
                     \x20      nokq --workload <dataset>   (author|address|catalog|treebank|dblp)\n\
                     queries are read from stdin when none are given"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            q => args.queries.push(q.to_string()),
        }
    }
    let modes =
        args.addr.is_some() as u8 + args.offline.is_some() as u8 + args.workload.is_some() as u8;
    if modes != 1 {
        return Err("pick exactly one of --addr, --offline, --workload".to_string());
    }
    if args.pipeline > 1 && args.addr.is_none() {
        return Err("--pipeline needs server mode (--addr)".to_string());
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("nokq: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(dataset) = &args.workload {
        return print_workload(dataset);
    }
    // No explicit queries: read them from stdin — always for a pipe, and
    // for an interactive terminal only when not doing a pure
    // --stats/--shutdown call.
    let stdin_piped = !std::io::IsTerminal::is_terminal(&std::io::stdin());
    let queries = if args.queries.is_empty() && (stdin_piped || (!args.stats && !args.shutdown)) {
        read_queries_from_stdin()?
    } else {
        args.queries.clone()
    };
    if let Some(dir) = &args.offline {
        return run_offline(dir, &queries, args.explain);
    }
    if let Some(addr) = &args.addr {
        return run_server(addr, &queries, &args);
    }
    Ok(())
}

fn read_queries_from_stdin() -> Result<Vec<String>, String> {
    let stdin = std::io::stdin();
    let mut queries = Vec::new();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        queries.push(line.to_string());
    }
    Ok(queries)
}

fn print_workload(dataset: &str) -> Result<(), String> {
    let kind = nok_datagen::DatasetKind::ALL
        .iter()
        .find(|k| k.name() == dataset)
        .copied()
        .ok_or_else(|| {
            format!("unknown dataset `{dataset}` (try: author address catalog treebank dblp)")
        })?;
    let mut out = std::io::stdout().lock();
    for (_, spec) in nok_datagen::workload(kind) {
        let Some(spec) = spec else { continue };
        writeln!(out, "{}", spec.path).map_err(|e| e.to_string())?;
        if spec.descendant_variant != spec.path {
            writeln!(out, "{}", spec.descendant_variant).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn run_offline(dir: &str, queries: &[String], explain: bool) -> Result<(), String> {
    let db = XmlDb::open_dir(dir).map_err(|e| format!("open {dir}: {e}"))?;
    let mut out = std::io::stdout().lock();
    for q in queries {
        if explain {
            let (matches, plan) = db
                .explain(q, QueryOptions::default())
                .map_err(|e| format!("{q}: {e}"))?;
            writeln!(out, "{q}  ({} matches)\n{plan}", matches.len()).map_err(|e| e.to_string())?;
            continue;
        }
        let matches = db.query(q).map_err(|e| format!("{q}: {e}"))?;
        let wire: Vec<WireMatch> = matches
            .iter()
            .map(|m| WireMatch {
                dewey: m.dewey.to_string(),
                addr: m.addr.to_string(),
            })
            .collect();
        writeln!(out, "{}", result_line(q, &wire)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Server mode: keep up to `--pipeline N` queries in flight and print the
/// exact lines `--offline` prints, in submission order.
fn run_server(addr: &str, queries: &[String], args: &Args) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut client = BinClient::new(stream).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();

    // Query index i travels as request id i+1 (0 is reserved for "id was
    // unreadable" in error frames). `window` holds the answers to queries
    // `printed..next`, `None` while in flight; its front is printed as soon
    // as it arrives, so it never outgrows the pipeline depth.
    let mut window: VecDeque<Option<Result<String, String>>> = VecDeque::new();
    let mut next = 0usize;
    let mut printed = 0usize;
    while printed < queries.len() {
        while next < queries.len() && window.len() < args.pipeline {
            let q = &queries[next];
            let id = next as u64 + 1;
            let req = if args.explain {
                Request::Explain {
                    id,
                    path: q.clone(),
                }
            } else {
                Request::Query {
                    id,
                    path: q.clone(),
                    timeout_ms: args.timeout_ms,
                }
            };
            client.send(&req).map_err(|e| e.to_string())?;
            window.push_back(None);
            next += 1;
        }
        client.flush().map_err(|e| e.to_string())?;
        let resp = client
            .recv()
            .map_err(|e| e.to_string())?
            .ok_or("server closed connection")?;
        let slot = (resp.id() as usize)
            .checked_sub(printed + 1)
            .and_then(|pos| window.get_mut(pos))
            .filter(|slot| slot.is_none())
            .ok_or_else(|| format!("server answered unknown request id {}", resp.id()))?;
        let q = &queries[resp.id() as usize - 1];
        *slot = Some(match resp {
            BinResponse::QueryOk { matches, .. } => Ok(result_line(q, &matches)),
            BinResponse::ExplainOk { count, text, .. } => {
                Ok(format!("{q}  ({count} matches)\n{text}"))
            }
            BinResponse::Error { message, .. } => Err(format!("{q}: {message}")),
            other => Err(format!("{q}: unexpected response {other:?}")),
        });
        while let Some(answer) = window.front_mut().and_then(Option::take) {
            window.pop_front();
            printed += 1;
            writeln!(out, "{}", answer?).map_err(|e| e.to_string())?;
        }
    }

    let mut id = queries.len() as u64;
    if args.stats {
        id += 1;
        client
            .send(&Request::Stats { id })
            .map_err(|e| e.to_string())?;
        client.flush().map_err(|e| e.to_string())?;
        match client.recv().map_err(|e| e.to_string())? {
            Some(BinResponse::StatsOk { json, .. }) => {
                writeln!(out, "{json}").map_err(|e| e.to_string())?;
            }
            other => return Err(format!("stats: unexpected response {other:?}")),
        }
    }
    if args.shutdown {
        id += 1;
        client
            .send(&Request::Shutdown { id })
            .map_err(|e| e.to_string())?;
        client.flush().map_err(|e| e.to_string())?;
        match client.recv().map_err(|e| e.to_string())? {
            Some(BinResponse::Stopping { .. }) => {
                writeln!(out, r#"{{"stopping":true}}"#).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("shutdown: unexpected response {other:?}")),
        }
    }
    Ok(())
}
