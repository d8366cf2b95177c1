//! The benchmark's own HTTP/1.1 client and the daemon it drives.
//!
//! Each request goes out in a single `write_all` on a `TCP_NODELAY`
//! socket, so the client never holds back a segment waiting for an
//! acknowledgement: any Nagle/delayed-ACK stall that shows in the
//! latencies is the server's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// One keep-alive connection; reconnects transparently after the
/// server closes it (the daemon caps requests per connection).
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Responses read on the current socket.
    served: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let mut conn = Conn {
            addr: addr.to_owned(),
            stream: None,
            buf: Vec::with_capacity(16 << 10),
            served: 0,
        };
        conn.ensure_open()?;
        Ok(conn)
    }

    /// Opens the socket if the previous response closed it. Called
    /// before a request's clock starts.
    pub fn ensure_open(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(s);
            self.buf.clear();
            self.served = 0;
        }
        Ok(())
    }

    /// Sends one request. A kept-alive socket the server has meanwhile
    /// closed (its idle timeout) is reopened and the request sent again.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
        let reused = self.stream.is_some() && self.served > 0;
        match self.send(method, path, body) {
            Err(e)
                if reused
                    && matches!(
                        e.kind(),
                        BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof
                    ) =>
            {
                self.send(method, path, body)
            }
            result => result,
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.ensure_open()?;
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body.as_bytes());
        let stream = self.stream.as_mut().expect("socket opened above");
        let response = stream
            .write_all(&msg)
            .and_then(|()| read_response(stream, &mut self.buf));
        self.served += 1;
        if response.as_ref().map_or(true, |r| r.close) {
            self.stream = None;
        }
        response
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Response> {
    let mut chunk = [0u8; 16 << 10];
    let head_end = loop {
        if let Some(p) = find(buf, b"\r\n\r\n") {
            break p;
        }
        match stream.read(&mut chunk)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head",
                ))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let (mut len, mut close) = (0usize, false);
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
    }
    let start = head_end + 4;
    while buf.len() < start + len {
        match stream.read(&mut chunk)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let body = String::from_utf8_lossy(&buf[start..start + len]).into_owned();
    buf.drain(..start + len);
    Ok(Response {
        status,
        body,
        close,
    })
}

/// A `reliab-serve` child process, stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port with default workers and
    /// waits until `/healthz` answers.
    pub fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .map(str::to_owned);
        let mut daemon = Daemon {
            child,
            addr: addr.clone().unwrap_or_default(),
        };
        if read.is_err() || addr.is_none() {
            daemon.kill();
            return Err(format!("daemon did not announce its address: {line:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = Conn::connect(&daemon.addr)
                .and_then(|mut c| c.request("GET", "/healthz", ""))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("daemon never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful shutdown, then reap; kills the process if it lingers.
    pub fn shutdown(mut self) {
        let _ = Conn::connect(&self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
