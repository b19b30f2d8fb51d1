//! Child processes for the tests that drive this workspace's binaries
//! (`env!("CARGO_BIN_EXE_…")`): every child is killed when its handle
//! drops, every wait gives up after [`WAIT`], servers are found through
//! their `--port-file` on an ephemeral port, and scratch files live under
//! `std::env::temp_dir()`.
//!
//! Shared by several test binaries through `#[path]`; each uses a part.

#![allow(dead_code)]

use std::fs;
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::thread::{self, sleep, JoinHandle};
use std::time::{Duration, Instant};

/// The bound on every wait for a child: to write its port file, or to exit.
pub const WAIT: Duration = Duration::from_secs(30);

/// A child process, killed and reaped when dropped.
pub struct Proc(Child);

impl Proc {
    /// Starts `cmd` with stdout discarded and stderr inherited.
    pub fn spawn(cmd: &mut Command) -> Proc {
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("start {cmd:?}: {e}"));
        Proc(child)
    }

    /// The address the child writes to `port_file` once it listens.
    /// Panics if the child exits first or writes nothing within [`WAIT`].
    pub fn addr(&mut self, port_file: &Path) -> SocketAddr {
        let started = Instant::now();
        loop {
            let written = fs::read_to_string(port_file).unwrap_or_default();
            if let Ok(addr) = written.trim().parse() {
                return addr;
            }
            if let Some(status) = self.0.try_wait().expect("poll child") {
                panic!(
                    "child exited ({status}) before writing {}",
                    port_file.display()
                );
            }
            assert!(
                started.elapsed() < WAIT,
                "no address in {} after {WAIT:?}",
                port_file.display()
            );
            sleep(Duration::from_millis(10));
        }
    }

    /// Waits at most [`WAIT`] for the child to exit.
    pub fn wait(&mut self) -> ExitStatus {
        let started = Instant::now();
        loop {
            if let Some(status) = self.0.try_wait().expect("poll child") {
                return status;
            }
            assert!(
                started.elapsed() < WAIT,
                "child still running after {WAIT:?}"
            );
            sleep(Duration::from_millis(10));
        }
    }

    /// True while the child has not exited.
    pub fn is_running(&mut self) -> bool {
        self.0.try_wait().expect("poll child").is_none()
    }

    pub fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Runs `cmd` to completion within [`WAIT`] and returns what it printed.
pub fn run(cmd: &mut Command) -> Output {
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("start {cmd:?}: {e}"));
    let mut proc = Proc(child);
    let stdout = drain(proc.0.stdout.take());
    let stderr = drain(proc.0.stderr.take());
    let status = proc.wait();
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Reads a pipe to its end on a thread of its own, so a chatty child never
/// blocks on a full pipe while [`Proc::wait`] polls it.
fn drain(pipe: Option<impl Read + Send + 'static>) -> JoinHandle<Vec<u8>> {
    let mut pipe = pipe.expect("piped");
    thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        bytes
    })
}

/// The exit code of a finished run, with its stderr on a mismatch.
pub fn assert_exit(output: &Output, code: i32, what: &str) {
    assert_eq!(
        output.status.code(),
        Some(code),
        "{what}: stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// A fresh, empty scratch directory for one test of this process.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gather-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
