//! The server under test as a child process, and a closed-loop client
//! connection to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running `indord-serve`. Dropping it kills the process and waits
/// for it.
pub struct Server {
    child: Child,
    pub addr: String,
    // Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// How the server is started.
pub struct ServerConfig {
    pub binary: PathBuf,
    /// `--data-dir`: every workload serves durably.
    pub data_dir: PathBuf,
}

/// The flush policy of every run (see the README for why).
pub const FSYNC: &str = "os";
pub const THREADS: usize = 2;

impl Server {
    /// Spawns the server on an ephemeral port and returns once it
    /// listens (it recovers its data dir before that).
    pub fn start(cfg: &ServerConfig) -> Result<Server, String> {
        let mut child = Command::new(&cfg.binary)
            .args(["--addr", "127.0.0.1:0", "--threads", &THREADS.to_string()])
            .arg("--data-dir")
            .arg(&cfg.data_dir)
            .args(["--fsync", FSYNC])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("indord-serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                return Ok(Server {
                    child,
                    addr,
                    _stdout: stdout,
                });
            }
        }
    }

    /// `VmHWM` (peak resident set) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A reply: its lines (one, or a framed block through `END`).
pub type Reply = Vec<String>;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            buf: String::with_capacity(256),
        })
    }

    /// Sends one line and waits for its whole reply.
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let first = self.read_line()?;
        let mut reply = vec![first];
        // The one block reply the streams ask for: header, body, `END`.
        if reply[0] == "COUNTERMODEL" {
            loop {
                let l = self.read_line()?;
                let end = l == "END";
                reply.push(l);
                if end {
                    break;
                }
            }
        }
        Ok(reply)
    }

    /// [`Client::call`], failing on an `ERR` reply.
    pub fn expect_ok(&mut self, line: &str) -> Result<Reply, String> {
        let reply = self.call(line)?;
        if reply[0].starts_with("ERR") {
            return Err(format!("`{}` -> {}", clip(line), reply[0]));
        }
        Ok(reply)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut l = String::new();
        match self.reader.read_line(&mut l) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(l.trim_end_matches(['\n', '\r']).to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The first 80 characters of a request line, for messages.
pub fn clip(line: &str) -> String {
    line.chars().take(80).collect()
}

/// The value of `key` in a `STATS` reply.
pub fn stat(reply: &Reply, key: &str) -> Option<u64> {
    reply[0]
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
