//! `gather-chaos` — a deterministic fault-injecting TCP proxy in front
//! of a `gather-serve` daemon (or anything else speaking newline-
//! delimited frames).
//!
//! ```text
//! gather-chaos --listen HOST:PORT --upstream HOST:PORT
//!              [--plan PLAN.json | --seed N [action flags...]]
//!              [--port-file PATH] [--plan-out PATH]
//! ```
//!
//! Action flags (each arms one fault; all off = transparent relay):
//!
//! ```text
//! --delay-ms FIXED[:JITTER[:PCT]]   frame latency (default PCT 100)
//! --throttle-bps N                  daemon→client bandwidth cap
//! --drop-after-frames K[:PCT]       sever after K frames (default PCT 100)
//! --truncate-pct P                  tear P% of frames mid-line
//! --corrupt-pct P[:BYTES]           NUL-corrupt P% of frames (default 1 byte)
//! --blackhole START:END             stall window, ms since start (repeatable)
//! --randomized                      derive a full random plan from --seed
//! ```
//!
//! `--plan` loads a serialized [`gather_chaos::ChaosPlan`] instead (the
//! flags are then rejected — a plan file is the single source of truth);
//! `--plan-out` writes the effective plan as JSON, so a failed run leaves
//! the exact misbehavior schedule for replay. `--port-file`
//! mirrors `gather-serve`: the bound address is written there once
//! listening, for ephemeral-port orchestration.

use gather_chaos::{ChaosPlan, ChaosProxy};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: gather-chaos --listen HOST:PORT --upstream HOST:PORT\n\
         \x20      [--plan PLAN.json | --seed N [--randomized] [--delay-ms F[:J[:P]]]\n\
         \x20       [--throttle-bps N] [--drop-after-frames K[:P]] [--truncate-pct P]\n\
         \x20       [--corrupt-pct P[:BYTES]] [--blackhole START:END]]\n\
         \x20      [--port-file PATH] [--plan-out PATH]"
    );
    exit(2);
}

fn parse_u64(what: &str, raw: &str) -> u64 {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("gather-chaos: {what} expects a non-negative integer, got `{raw}`");
        usage()
    })
}

/// Splits `raw` on `:` into up to `max` numeric parts.
fn parse_parts(what: &str, raw: &str, max: usize) -> Vec<u64> {
    let parts: Vec<u64> = raw.split(':').map(|p| parse_u64(what, p)).collect();
    if parts.is_empty() || parts.len() > max {
        eprintln!("gather-chaos: {what} takes 1..={max} `:`-separated numbers");
        usage()
    }
    parts
}

fn pct(what: &str, v: u64) -> u8 {
    if v > 100 {
        eprintln!("gather-chaos: {what} percent must be 0..=100, got {v}");
        usage()
    }
    v as u8
}

fn main() {
    let mut listen: Option<String> = None;
    let mut upstream: Option<String> = None;
    let mut plan_file: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut plan_out: Option<String> = None;
    let mut seed: u64 = 0;
    let mut randomized = false;
    let mut flag_plan = ChaosPlan::default();
    let mut any_flag = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("gather-chaos: {what} expects a value");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => listen = Some(value("--listen")),
            "--upstream" => upstream = Some(value("--upstream")),
            "--plan" => plan_file = Some(value("--plan")),
            "--port-file" => port_file = Some(value("--port-file")),
            "--plan-out" => plan_out = Some(value("--plan-out")),
            "--seed" => seed = parse_u64("--seed", &value("--seed")),
            "--randomized" => {
                randomized = true;
                any_flag = true;
            }
            "--delay-ms" => {
                let p = parse_parts("--delay-ms", &value("--delay-ms"), 3);
                let prob = p.get(2).copied().unwrap_or(100);
                flag_plan = flag_plan.with_delay(
                    p[0],
                    p.get(1).copied().unwrap_or(0),
                    pct("--delay-ms", prob),
                );
                any_flag = true;
            }
            "--throttle-bps" => {
                flag_plan =
                    flag_plan.with_throttle(parse_u64("--throttle-bps", &value("--throttle-bps")));
                any_flag = true;
            }
            "--drop-after-frames" => {
                let p = parse_parts("--drop-after-frames", &value("--drop-after-frames"), 2);
                let prob = p.get(1).copied().unwrap_or(100);
                flag_plan = flag_plan.with_drop_after(p[0], pct("--drop-after-frames", prob));
                any_flag = true;
            }
            "--truncate-pct" => {
                let p = parse_u64("--truncate-pct", &value("--truncate-pct"));
                flag_plan = flag_plan.with_truncate(pct("--truncate-pct", p));
                any_flag = true;
            }
            "--corrupt-pct" => {
                let p = parse_parts("--corrupt-pct", &value("--corrupt-pct"), 2);
                let bytes = p.get(1).copied().unwrap_or(1) as usize;
                flag_plan = flag_plan.with_corrupt(pct("--corrupt-pct", p[0]), bytes);
                any_flag = true;
            }
            "--blackhole" => {
                let p = parse_parts("--blackhole", &value("--blackhole"), 2);
                if p.len() != 2 || p[1] <= p[0] {
                    eprintln!("gather-chaos: --blackhole expects START:END with END > START");
                    usage()
                }
                flag_plan = flag_plan.with_blackhole(p[0], p[1]);
                any_flag = true;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gather-chaos: unknown argument `{other}`");
                usage()
            }
        }
    }

    let (Some(listen), Some(upstream)) = (listen, upstream) else {
        eprintln!("gather-chaos: --listen and --upstream are required");
        usage()
    };

    let plan = match plan_file {
        Some(path) => {
            if any_flag || seed != 0 {
                eprintln!("gather-chaos: --plan is exclusive with --seed and action flags");
                usage()
            }
            let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("gather-chaos: cannot read {path}: {e}");
                exit(1);
            });
            serde_json::from_str::<ChaosPlan>(&raw).unwrap_or_else(|e| {
                eprintln!("gather-chaos: {path} is not a chaos plan: {e}");
                exit(1);
            })
        }
        None if randomized => ChaosPlan::randomized(seed),
        None => ChaosPlan { seed, ..flag_plan },
    };

    if let Some(out) = &plan_out {
        let json = serde_json::to_string(&plan).expect("plan serializes");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("gather-chaos: cannot write {out}: {e}");
            exit(1);
        }
    }

    let proxy = match ChaosProxy::bind(listen.as_str(), upstream.clone(), plan) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("gather-chaos: cannot bind {listen}: {e}");
            exit(1);
        }
    };
    let addr = proxy.local_addr().expect("bound address");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("gather-chaos: cannot write port file {path}: {e}");
            exit(1);
        }
    }
    eprintln!("gather-chaos: {addr} -> {upstream}");
    let _handle = proxy.spawn().unwrap_or_else(|e| {
        eprintln!("gather-chaos: accept loop failed to start: {e}");
        exit(1);
    });
    // Serve until killed: the CLI has no in-band shutdown, so park this
    // thread instead of spinning.
    loop {
        std::thread::park();
    }
}
