//! The fault-injecting TCP proxy: accept, dial upstream, pump both
//! directions, misbehave per the [`ChaosPlan`].
//!
//! One listener thread accepts connections; each connection gets two pump
//! threads. The daemon→client direction is pumped **frame-at-a-time**
//! (the sweep protocol is newline-delimited JSON, so one `\n`-terminated
//! line is one frame) and is where delay/throttle/drop/truncate/corrupt
//! decisions apply; the client→daemon direction is pumped as raw bytes
//! (requests are small and rarely interesting to damage) but still honors
//! blackhole windows. Connection indices are assigned in accept order, so
//! against a deterministic client dial sequence the whole injection
//! schedule is reproducible from the plan alone.
//!
//! Everything the proxy does is observable: the `chaos_*` counters in the
//! process-global [`gather_obs::Registry`] count connections, frames,
//! injected delays, severed connections, truncated and corrupted frames,
//! and blackhole stalls.

use crate::plan::ChaosPlan;
use gather_obs::{trace, Counter, Registry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Process-global chaos counters ([`gather_obs::Registry::global`]).
struct ChaosObs {
    connections: Arc<Counter>,
    frames: Arc<Counter>,
    bytes: Arc<Counter>,
    delays: Arc<Counter>,
    drops: Arc<Counter>,
    truncated: Arc<Counter>,
    corrupted: Arc<Counter>,
    stalls: Arc<Counter>,
}

fn chaos_obs() -> &'static ChaosObs {
    static OBS: OnceLock<ChaosObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        ChaosObs {
            connections: r.counter("chaos_connections_total"),
            frames: r.counter("chaos_frames_total"),
            bytes: r.counter("chaos_bytes_total"),
            delays: r.counter("chaos_delays_total"),
            drops: r.counter("chaos_dropped_connections_total"),
            truncated: r.counter("chaos_truncated_frames_total"),
            corrupted: r.counter("chaos_corrupted_frames_total"),
            stalls: r.counter("chaos_blackhole_stalls_total"),
        }
    })
}

/// How long the proxy waits for its upstream dial before giving up on a
/// proxied connection (the client then sees an immediate close — exactly
/// what a dead daemon looks like).
const UPSTREAM_DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound-but-not-yet-serving chaos proxy. [`ChaosProxy::spawn`] starts
/// the accept loop and yields the [`ChaosHandle`] used to stop it.
pub struct ChaosProxy {
    listener: TcpListener,
    upstream: String,
    plan: ChaosPlan,
}

impl ChaosProxy {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral port) in
    /// front of the daemon at `upstream`, injecting per `plan`.
    pub fn bind(
        listen: impl ToSocketAddrs,
        upstream: impl Into<String>,
        plan: ChaosPlan,
    ) -> std::io::Result<ChaosProxy> {
        Ok(ChaosProxy {
            listener: TcpListener::bind(listen)?,
            upstream: upstream.into(),
            plan,
        })
    }

    /// The proxy's bound address — point clients here.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on its own thread.
    pub fn spawn(self) -> std::io::Result<ChaosHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let plan = Arc::new(self.plan);
        let upstream = self.upstream;
        let listener = self.listener;
        let started = Instant::now();
        let join = std::thread::spawn(move || {
            let conn_counter = AtomicU64::new(0);
            for incoming in listener.incoming() {
                if stop_accept.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(client) = incoming else { break };
                let conn = conn_counter.fetch_add(1, Ordering::Relaxed);
                let plan = Arc::clone(&plan);
                let stop = Arc::clone(&stop_accept);
                let upstream = upstream.clone();
                // Connection threads are detached: they die with their
                // sockets (stop() severs nothing retroactively, but test
                // and CLI lifetimes close both endpoints anyway).
                std::thread::spawn(move || {
                    serve_connection(client, &upstream, &plan, conn, started, stop)
                });
            }
        });
        Ok(ChaosHandle { addr, stop, join })
    }
}

/// A running proxy: its address, and the switch that stops it.
pub struct ChaosHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl ChaosHandle {
    /// The proxy's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop.
    /// Existing proxied connections keep running until either endpoint
    /// closes.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        // Poke the blocked accept with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

/// Sleeps `total`, in slices, bailing out early when `stop` flips — so a
/// proxy shutdown never waits out a long blackhole window.
fn chaos_sleep(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Some(left) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return;
        };
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

/// Stalls while inside a blackhole window, counting each stall once.
fn blackhole_gate(plan: &ChaosPlan, started: Instant, stop: &AtomicBool) {
    if let Some(remaining) = plan.blackhole_remaining(started.elapsed()) {
        chaos_obs().stalls.inc();
        chaos_sleep(remaining, stop);
    }
}

/// Severs both directions of a proxied connection.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// One proxied connection: dial upstream, pump client→daemon raw on a
/// side thread, pump daemon→client frame-at-a-time here.
fn serve_connection(
    client: TcpStream,
    upstream: &str,
    plan: &Arc<ChaosPlan>,
    conn: u64,
    started: Instant,
    stop: Arc<AtomicBool>,
) {
    let Some(daemon) = open_legs(&client, upstream) else {
        return;
    };
    chaos_obs().connections.inc();

    let (Ok(client_r), Ok(daemon_w)) = (client.try_clone(), daemon.try_clone()) else {
        sever(&client, &daemon);
        return;
    };
    // Client→daemon: raw bytes, blackhole-gated.
    {
        let plan = Arc::clone(plan);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || pump_raw(client_r, daemon_w, &plan, started, &stop));
    }
    // Daemon→client: frame-aware, where the chaos happens.
    pump_frames(daemon, client, plan, conn, started, &stop);
}

/// Sets `TCP_NODELAY` on the client leg and dials the daemon leg, which
/// [`dial_upstream`] sets it on too. All timing must come from the
/// [`ChaosPlan`]; under Nagle's algorithm the second of two small frames in
/// a row would wait out the peer's delayed ACK (~40 ms), a stall no plan
/// asked for. `None` (the client leg shut down) when either step fails: the
/// client sees an immediate close, exactly like a dead daemon.
fn open_legs(client: &TcpStream, upstream: &str) -> Option<TcpStream> {
    let daemon = match client.set_nodelay(true) {
        Ok(()) => dial_upstream(upstream),
        Err(_) => None,
    };
    if daemon.is_none() {
        let _ = client.shutdown(Shutdown::Both);
    }
    daemon
}

fn dial_upstream(upstream: &str) -> Option<TcpStream> {
    let addrs = upstream.to_socket_addrs().ok()?;
    for addr in addrs {
        if let Ok(stream) = TcpStream::connect_timeout(&addr, UPSTREAM_DIAL_TIMEOUT) {
            return stream.set_nodelay(true).ok().map(|()| stream);
        }
    }
    None
}

/// The raw client→daemon pump: forward bytes, honor blackhole windows.
fn pump_raw(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: &ChaosPlan,
    started: Instant,
    stop: &AtomicBool,
) {
    let mut buf = [0u8; 8 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        blackhole_gate(plan, started, stop);
        chaos_obs().bytes.add(n as u64);
        if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
            break;
        }
    }
    sever(&from, &to);
}

/// The frame-aware daemon→client pump: one `\n`-terminated line at a
/// time, applying the plan's per-frame actions in a fixed order —
/// blackhole, delay, drop-after, truncate, corrupt, forward, throttle.
fn pump_frames(
    daemon: TcpStream,
    mut client: TcpStream,
    plan: &ChaosPlan,
    conn: u64,
    started: Instant,
    stop: &AtomicBool,
) {
    let obs = chaos_obs();
    let drop_after = plan.drop_after(conn);
    let mut reader = BufReader::new(match daemon.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            sever(&daemon, &client);
            return;
        }
    });
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut frame: u64 = 0;
    loop {
        frame_buf.clear();
        match reader.read_until(b'\n', &mut frame_buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        blackhole_gate(plan, started, stop);
        if let Some(latency) = plan.frame_delay(conn, frame) {
            obs.delays.inc();
            chaos_sleep(latency, stop);
        }
        if drop_after.is_some_and(|k| frame >= k) {
            obs.drops.inc();
            trace::event(
                "chaos_drop",
                format_args!("conn={conn} after_frame={frame}"),
            );
            break;
        }
        if plan.truncates(conn, frame) {
            // Forward a strict prefix (never the newline), then sever:
            // the peer sees a torn line ending in connection loss.
            let keep = (frame_buf.len().saturating_sub(1)) / 2;
            obs.truncated.inc();
            trace::event("chaos_truncate", format_args!("conn={conn} frame={frame}"));
            let _ = client.write_all(&frame_buf[..keep]);
            let _ = client.flush();
            break;
        }
        let positions = plan.corrupt_positions(conn, frame, frame_buf.len());
        if !positions.is_empty() {
            obs.corrupted.inc();
            trace::event("chaos_corrupt", format_args!("conn={conn} frame={frame}"));
            for pos in positions {
                frame_buf[pos] = 0;
            }
        }
        obs.frames.inc();
        obs.bytes.add(frame_buf.len() as u64);
        if client.write_all(&frame_buf).is_err() || client.flush().is_err() {
            break;
        }
        if let Some(pause) = plan.throttle_pause(frame_buf.len()) {
            chaos_sleep(pause, stop);
        }
        frame += 1;
    }
    sever(&daemon, &client);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_legs_disable_nagle() {
        let proxy_side = TcpListener::bind("127.0.0.1:0").unwrap();
        let daemon_side = TcpListener::bind("127.0.0.1:0").unwrap();
        let _dialer = TcpStream::connect(proxy_side.local_addr().unwrap()).unwrap();
        let (accepted, _) = proxy_side.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "Nagle is on by default");
        let upstream = daemon_side.local_addr().unwrap().to_string();
        let daemon = open_legs(&accepted, &upstream).expect("daemon reachable");
        assert!(accepted.nodelay().unwrap(), "client leg");
        assert!(daemon.nodelay().unwrap(), "daemon leg");
    }
}
