//! The client side of the benchmark: spawning `emigre serve`, a persistent
//! HTTP/1.1 client, and a pipelined connection for the open loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server may take to answer its first `/healthz`.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// A request unanswered this long fails the run.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `emigre serve` child. Dropping it kills the process, so no
/// error path leaves a server behind.
pub struct Server {
    child: Option<Child>,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn → first `GET /healthz` 200, in seconds.
    pub setup_s: f64,
}

/// What the server is started on.
pub struct ServeArgs<'a> {
    pub bin: &'a Path,
    /// `--graph FILE` or `--graph-snapshot FILE`.
    pub graph_flag: &'static str,
    pub graph_file: &'a Path,
    pub workers: usize,
    pub event_log: Option<&'a Path>,
}

impl Server {
    /// Spawns the server and waits until it answers `/healthz`.
    pub fn start(args: &ServeArgs) -> Result<Server, String> {
        let mut argv: Vec<String> = vec![
            "serve".into(),
            args.graph_flag.into(),
            args.graph_file.display().to_string(),
            "--port".into(),
            "0".into(),
            "--workers".into(),
            args.workers.to_string(),
            "--parallelism".into(),
            "1".into(),
        ];
        if let Some(log) = args.event_log {
            argv.push("--event-log".into());
            argv.push(log.display().to_string());
        }
        let t0 = Instant::now();
        let mut child = Command::new(args.bin)
            .args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", args.bin.display()))?;
        let stdout = child.stdout.take().ok_or("server has no stdout")?;
        let mut server = Server {
            child: Some(child),
            _stdout: BufReader::new(stdout),
            addr: String::new(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server stdout: {e}"))?;
            if n == 0 {
                return Err("server exited before announcing its address".into());
            }
            if let Some(addr) = line.strip_prefix("emigre-serve listening on ") {
                server.addr = addr.trim().to_owned();
                break;
            }
        }
        loop {
            if let Ok((200, _)) =
                Client::connect(&server.addr).and_then(|mut c| c.request("GET", "/healthz", ""))
            {
                break;
            }
            if t0.elapsed() > SETUP_TIMEOUT {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("server already stopped")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// `POST /shutdown`, then waits for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        let status = Client::connect(&self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", ""))
            .map(|(s, _)| s);
        let mut child = self.child.take().ok_or("server already stopped")?;
        let exit = child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        if status != Ok(200) {
            return Err(format!("POST /shutdown answered {status:?}"));
        }
        if !exit.success() {
            return Err(format!("server exited with {exit}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The server binary: `--server-bin PATH`.
pub fn server_binary(path: Option<&str>) -> Result<PathBuf, String> {
    let p = PathBuf::from(path.ok_or("missing --server-bin PATH")?);
    if p.exists() {
        Ok(p)
    } else {
        Err(format!("server binary {} does not exist", p.display()))
    }
}

fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Reads `Content-Length`-framed responses off a stream, in order; bytes
/// past one response are kept for the next.
struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ResponseReader {
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16384];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection mid-response".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn next(&mut self) -> Result<(u16, String), String> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line: {head:?}"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[start..start + len]).into_owned();
        self.buf.drain(..start + len);
        Ok((status, body))
    }
}

/// A persistent closed-loop connection: one request, then its answer.
pub struct Client {
    stream: TcpStream,
    reader: ResponseReader,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            stream,
            reader: ResponseReader {
                stream: read_half,
                buf: Vec::new(),
            },
        })
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        self.stream
            .write_all(&request_bytes(method, path, body))
            .map_err(|e| format!("send: {e}"))?;
        self.reader.next()
    }
}

/// One request of an open-loop schedule.
pub struct Scheduled<'a> {
    pub due: Instant,
    pub path: &'a str,
    pub body: &'a str,
}

/// One answer of an open-loop schedule, in schedule order.
pub struct OpenAnswer {
    pub status: u16,
    pub body: String,
    /// When the request was actually written.
    pub sent: Instant,
    /// When its answer had been read.
    pub done: Instant,
}

/// Sends `schedule` on one pipelined connection, each request at its due
/// time whatever earlier answers are still outstanding, and reads the
/// answers in order on a second thread.
pub fn open_loop(addr: &str, schedule: &[Scheduled]) -> Result<Vec<OpenAnswer>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut reader = ResponseReader {
        stream: stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
        buf: Vec::new(),
    };
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<Vec<(u16, String, Instant)>, String> {
            let mut answers = Vec::new();
            for _sent in rx.iter() {
                let (status, body) = reader.next()?;
                answers.push((status, body, Instant::now()));
            }
            Ok(answers)
        });
        let mut sent_at = Vec::with_capacity(schedule.len());
        let mut send_err = None;
        for req in schedule {
            let now = Instant::now();
            if req.due > now {
                std::thread::sleep(req.due - now);
            }
            let sent = Instant::now();
            if let Err(e) = stream.write_all(&request_bytes("POST", req.path, req.body)) {
                send_err = Some(format!("open-loop send: {e}"));
                break;
            }
            sent_at.push(sent);
            if tx.send(sent).is_err() {
                break;
            }
        }
        drop(tx);
        let answers = receiver
            .join()
            .map_err(|_| "open-loop reader panicked".to_owned())??;
        if let Some(e) = send_err {
            return Err(e);
        }
        Ok(answers
            .into_iter()
            .zip(sent_at)
            .map(|((status, body, done), sent)| OpenAnswer {
                status,
                body,
                sent,
                done,
            })
            .collect())
    })
}
