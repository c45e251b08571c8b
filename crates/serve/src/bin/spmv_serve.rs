//! `spmv-serve` — the format advisor as a long-lived inference service.
//!
//! Usage:
//!   spmv-serve [--model <advisor.json>] [--addr HOST:PORT]
//!              [--workers N] [--queue-depth N] [--cache-capacity N]
//!              [--max-body-bytes N] [--read-timeout-ms N]
//!              [--keep-alive-max N] [--idle-timeout-ms N]
//!              [--online-retrain-after N] [--online-reservoir N]
//!              [--online-canary-window N] [--online-agree-pct N]
//!              [--online-watchdog-window N] [--online-watchdog-errors N]
//!              [--online-seed N] [--online-artifact-dir DIR]
//!              [--online-corrupt-candidate]
//!              [--trace-out <trace.json>]
//!
//! The `--online-*` family configures the online-learning loop (DESIGN.md
//! §4i): `POST /v1/feedback` events land in a seeded reservoir, every
//! `--online-retrain-after` measured events a background thread retrains
//! a candidate, the candidate shadow-scores `--online-canary-window` live
//! requests and is hot-swapped in only at `--online-agree-pct` percent
//! agreement, after which `--online-watchdog-errors` failures within
//! `--online-watchdog-window` attributed events roll it back.
//! Retraining is **off** by default (`--online-retrain-after 0`).
//! `--online-artifact-dir` persists every candidate's envelope bytes for
//! replay diffing; `--online-corrupt-candidate` is the fault hook proving
//! envelope validation gates promotion.
//!
//! `--workers` is the shard count of the event-driven core: each worker
//! is a shared-nothing epoll loop owning the connections it accepted.
//! Connections are persistent by default (HTTP/1.1 keep-alive, bounded
//! by `--keep-alive-max` requests and `--idle-timeout-ms` of silence);
//! clients sending `Connection: close` get the old one-shot behavior.
//!
//! Boot behavior is the graceful-degradation contract from DESIGN.md §4e
//! applied at process scope: a missing or rejected `--model` artifact
//! does **not** abort the server — it boots in heuristic mode, says so on
//! stderr and in `/healthz`, and every response carries
//! `"source":"heuristic"`. (The one-shot `spmv-advisor` CLI makes the
//! opposite choice — hard exit 4 — because a script asked for *that*
//! artifact; a fleet wants capacity to stay up.)
//!
//! The server prints exactly one `listening on HOST:PORT` line to stdout
//! once it accepts connections, then runs until `POST /admin/shutdown`
//! (or SIGKILL). On orderly shutdown, queued and in-flight requests
//! complete first; with `--trace-out` (or `SPMV_TRACE=PATH`) the run
//! manifest is written at exit.
//!
//! Exit codes (stable, for scripting):
//!   0  orderly shutdown
//!   2  usage error
//!   5  could not bind the listen address

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spmv_core::AdvisorHandle;
use spmv_serve::{Server, ServerConfig};

const EXIT_USAGE: u8 = 2;
const EXIT_BIND: u8 = 5;

const USAGE: &str = "usage: spmv-serve [--model <advisor.json>] [--addr HOST:PORT] \
                     [--workers N] [--queue-depth N] [--cache-capacity N] \
                     [--max-body-bytes N] [--read-timeout-ms N] \
                     [--keep-alive-max N] [--idle-timeout-ms N] \
                     [--handler-delay-ms N] [--online-retrain-after N] \
                     [--online-reservoir N] [--online-canary-window N] \
                     [--online-agree-pct N] [--online-watchdog-window N] \
                     [--online-watchdog-errors N] [--online-seed N] \
                     [--online-artifact-dir DIR] [--online-corrupt-candidate] \
                     [--trace-out <trace.json>]";

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("spmv-serve: error: {msg}");
    ExitCode::from(code)
}

struct Opts {
    config: ServerConfig,
    model: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut args = args;
    let mut config = ServerConfig {
        enable_admin_shutdown: true,
        ..ServerConfig::default()
    };
    let mut model = None;
    let mut trace_out = None;
    fn number(flag: &str, value: Option<String>) -> Result<usize, String> {
        value
            .as_deref()
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("{flag} needs a non-negative integer"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--model" => match args.next() {
                Some(p) => model = Some(PathBuf::from(p)),
                None => return Err("--model needs a path".into()),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => return Err("--trace-out needs a path".into()),
            },
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--workers" => config.workers = number(&a, args.next())?.max(1),
            "--queue-depth" => config.queue_depth = number(&a, args.next())?.max(1),
            "--cache-capacity" => config.cache_capacity = number(&a, args.next())?,
            "--max-body-bytes" => config.max_body_bytes = number(&a, args.next())?,
            "--read-timeout-ms" => config.read_timeout_ms = number(&a, args.next())? as u64,
            "--keep-alive-max" => config.keep_alive_max_requests = number(&a, args.next())?.max(1),
            "--idle-timeout-ms" => config.idle_timeout_ms = number(&a, args.next())? as u64,
            "--handler-delay-ms" => config.handler_delay_ms = number(&a, args.next())? as u64,
            "--online-retrain-after" => config.online.retrain_after = number(&a, args.next())?,
            "--online-reservoir" => {
                config.online.reservoir_capacity = number(&a, args.next())?.max(1)
            }
            "--online-canary-window" => {
                config.online.canary_window = number(&a, args.next())?.max(1) as u64
            }
            "--online-agree-pct" => {
                config.online.canary_agree_pct = number(&a, args.next())?.min(100) as u64
            }
            "--online-watchdog-window" => {
                config.online.watchdog_window = number(&a, args.next())?.max(1) as u64
            }
            "--online-watchdog-errors" => {
                config.online.watchdog_errors = number(&a, args.next())?.max(1) as u64
            }
            "--online-seed" => config.online.seed = number(&a, args.next())? as u64,
            "--online-artifact-dir" => match args.next() {
                Some(p) => config.online.artifact_dir = Some(PathBuf::from(p)),
                None => return Err("--online-artifact-dir needs a path".into()),
            },
            "--online-corrupt-candidate" => config.online.corrupt_candidate = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'; see --help")),
        }
    }
    Ok(Some(Opts {
        config,
        model,
        trace_out,
    }))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{USAGE}");
            return fail(EXIT_USAGE, &msg);
        }
    };

    let trace = spmv_core::TraceSession::start(opts.trace_out.clone());
    if trace.is_none() {
        // No manifest requested: still enable counters so /statz works.
        spmv_observe::enable();
    }

    let handle = match &opts.model {
        Some(path) => AdvisorHandle::from_artifact(path),
        None => AdvisorHandle::heuristic(),
    };
    if let Some(reason) = handle.degraded_reason() {
        eprintln!("spmv-serve: warning: model artifact rejected, serving heuristics ({reason})");
    }
    if trace.is_some() {
        spmv_core::observe::set_provenance("tool", "spmv-serve");
        spmv_core::observe::set_provenance("mode", handle.mode());
        // Online-loop parameters shape the deterministic counters (how
        // many feedbacks schedule a retrain, the reservoir seed), so they
        // are provenance, not timing: two manifests are only comparable
        // when these match.
        spmv_core::observe::set_provenance(
            "online.retrain_after",
            &opts.config.online.retrain_after.to_string(),
        );
        spmv_core::observe::set_provenance("online.seed", &opts.config.online.seed.to_string());
        // Worker count is scheduling, not work: timing-info only, so the
        // deterministic manifest section matches across -w values.
        spmv_core::observe::set_timing_info("workers", &opts.config.workers.to_string());
        spmv_core::observe::set_timing_info("queue_depth", &opts.config.queue_depth.to_string());
    }

    let server = match Server::spawn(opts.config, handle) {
        Ok(server) => server,
        Err(e) => return fail(EXIT_BIND, &format!("binding listener: {e}")),
    };
    println!("spmv-serve: listening on {}", server.addr());

    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("spmv-serve: shutdown requested, draining...");
    server.shutdown();

    if let Some(session) = trace {
        match session.finish() {
            Ok(path) => eprintln!("spmv-serve: wrote run manifest to {}", path.display()),
            Err(e) => eprintln!("spmv-serve: error: could not write run manifest: {e}"),
        }
    }
    ExitCode::SUCCESS
}
