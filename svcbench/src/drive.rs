//! The serving processes and the closed-loop clients that drive them.
//!
//! Each workload starts the real `sft serve` binary. A client sends its
//! next request only after the previous answer arrived, writes each
//! request line with a single `write_all`, and (over TCP) connects
//! through [`sft_service::connect`], which sets `TCP_NODELAY`.

use crate::spec::{Frontend, Workload};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A line sent before any work: an unknown op, answered with a parse
/// error once the server has built its network and reads requests.
pub const READY_LINE: &str = "{\"op\":\"ready\"}";

/// Longest wait for a server to become ready or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(120);

/// One request/response channel into a server.
pub struct Link {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    line: String,
}

impl Link {
    /// A new TCP connection to a socket server.
    pub fn connect(addr: &str) -> io::Result<Link> {
        let (reader, writer) = sft_service::connect(addr)?;
        Ok(Link {
            reader: Box::new(BufReader::new(reader)),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and waits for one answer line, returned
    /// without its newline. `request` carries no newline.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the stream",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']))
    }
}

/// A running `sft serve` process.
pub struct Server {
    child: Child,
    frontend: Frontend,
    /// The TCP address of a socket server.
    pub addr: Option<String>,
    /// The first link: the process's pipes, or a first TCP connection.
    pub link: Option<Link>,
}

impl Server {
    /// Starts the workload's server on `frontend` and waits until it
    /// answers [`READY_LINE`]. Returns the server and that set-up time.
    /// The server's standard error goes to `log`.
    pub fn start(
        sft: &Path,
        workload: &Workload,
        frontend: Frontend,
        log: &Path,
    ) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let stderr =
            File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut ready = None;
        let mut command = Command::new(sft);
        command.args(workload.serve_args(frontend)).stderr(stderr);
        let mut server = match frontend {
            Frontend::Socket => {
                let child = command
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", sft.display()))?;
                let mut server = Server {
                    child,
                    frontend,
                    addr: None,
                    link: None,
                };
                let addr = server.wait_for_listen(log, started)?;
                // Listening means the network is built and the server can
                // answer; the first connection's accept then waits on the
                // accept loop's poll interval, which set-up leaves out.
                ready = Some(started.elapsed());
                let link = Link::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                server.addr = Some(addr);
                server.link = Some(link);
                server
            }
            Frontend::Stdin => {
                let mut child = command
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", sft.display()))?;
                let stdin: ChildStdin = child.stdin.take().expect("stdin is piped");
                let stdout: ChildStdout = child.stdout.take().expect("stdout is piped");
                Server {
                    child,
                    frontend,
                    addr: None,
                    link: Some(Link {
                        reader: Box::new(BufReader::new(stdout)),
                        writer: Box::new(stdin),
                        line: String::new(),
                    }),
                }
            }
        };
        let link = server.link.as_mut().expect("link set above");
        let answer = link
            .call(READY_LINE)
            .map_err(|e| format!("readiness probe: {e}"))?;
        if !answer.contains("\"parse_error\"") {
            return Err(format!("unexpected readiness answer: {answer}"));
        }
        Ok((server, ready.unwrap_or_else(|| started.elapsed())))
    }

    /// Polls the server's log for its `listening on <addr>` line.
    fn wait_for_listen(&mut self, log: &Path, started: Instant) -> Result<String, String> {
        loop {
            let mut text = String::new();
            if let Ok(mut f) = File::open(log) {
                let _ = f.read_to_string(&mut text);
            }
            // Only a complete line: the server may be mid-write.
            if let Some((addr, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|r| r.split_once('\n'))
            {
                return Ok(addr.trim().to_string());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited early ({status}): {text}"));
            }
            if started.elapsed() > PROCESS_TIMEOUT {
                return Err("server did not start listening in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the process has used so far, in
    /// seconds, threads that already exited included.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks (USER_HZ,
        // 100 on Linux).
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Peak resident memory of the process so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Stops the server gracefully and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shutdown();
        self.reap();
        result
    }

    fn shutdown(&mut self) -> Result<(), String> {
        match self.frontend {
            Frontend::Socket => {
                let link = self.link.as_mut().ok_or("no link")?;
                let answer = link
                    .call("{\"op\":\"shutdown\"}")
                    .map_err(|e| format!("shutdown: {e}"))?;
                if !answer.contains("\"draining\"") {
                    return Err(format!("unexpected shutdown answer: {answer}"));
                }
                self.link = None;
            }
            Frontend::Stdin => {
                // EOF ends the stream; drain the closing stats block.
                if let Some(mut link) = self.link.take() {
                    drop(std::mem::replace(&mut link.writer, Box::new(io::sink())));
                    let mut rest = String::new();
                    let _ = link.reader.read_to_string(&mut rest);
                }
            }
        }
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("server did not exit in time".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    /// Kills the process if it still runs and waits for it.
    fn reap(&mut self) {
        self.link = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// CPU steal ticks of the whole host so far, from `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}
