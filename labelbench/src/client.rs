//! A blocking keep-alive HTTP/1.1 client: one request, then exactly one
//! `Content-Length`-framed response, on the same connection.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Sends `GET path` (or `POST path` with `body`) and returns the status
    /// and the response body once its last byte has arrived.
    pub fn send(&mut self, post: bool, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let mut request = if post {
            format!(
                "POST {path} HTTP/1.1\r\nHost: labelbench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes()
        } else {
            format!("GET {path} HTTP/1.1\r\nHost: labelbench\r\n\r\n").into_bytes()
        };
        request.extend_from_slice(body);
        self.stream.get_mut().write_all(&request)?;
        let response = rf_net::read_one_response(&mut self.stream)?;
        Ok((response.status().unwrap_or(0), response.body))
    }
}

/// `GET /stats` on a fresh connection, parsed.
pub fn stats(addr: SocketAddr) -> Result<serde_json::Value, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let (status, body) = conn
        .send(false, "/stats", b"")
        .map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| format!("/stats: {e}"))
}

/// A counter out of a `/stats` document by its dotted path (`0` when the
/// section is absent, as `disk` is on a memory-only server).
pub fn counter(stats: &serde_json::Value, path: &str) -> u64 {
    path.split('.')
        .try_fold(stats, |value, key| value.get(key))
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0)
}
