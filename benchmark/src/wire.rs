//! The benchmark's HTTP client: pipelined windows of single-query GETs and
//! one-edge `POST /delta` writes over a persistent connection, closed loop
//! (the next request goes out only after the previous reply is read).

use crate::inputs::Change;
use pscc_graph::V;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Name every run registers its graph under.
pub const GRAPH: &str = "g";

pub struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    inbuf: Vec<u8>,
    chunk: Vec<u8>,
}

/// One reply: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client { stream, request: Vec::new(), inbuf: Vec::new(), chunk: vec![0; 64 * 1024] })
    }

    /// Sends `queries` as one pipelined window and reads every reply.
    /// `answers` gets `Some(bit)` per 200 and `None` per other status.
    /// Returns the round trip: first byte written to last byte read.
    pub fn window(
        &mut self,
        queries: &[(V, V)],
        answers: &mut Vec<Option<bool>>,
    ) -> io::Result<Duration> {
        self.request.clear();
        for &(u, v) in queries {
            write!(self.request, "GET /reach/{GRAPH}?u={u}&v={v} HTTP/1.1\r\n\r\n")?;
        }
        answers.clear();
        let started = Instant::now();
        self.stream.write_all(&self.request)?;
        let mut at = 0;
        while answers.len() < queries.len() {
            match split_reply(&self.inbuf[at..]) {
                Some((reply, used)) => {
                    at += used;
                    answers.push(match (reply.status, reply.body.as_slice()) {
                        (200, b"1") => Some(true),
                        (200, b"0") => Some(false),
                        _ => None,
                    });
                }
                None => {
                    self.inbuf.drain(..at);
                    at = 0;
                    self.read_more()?;
                }
            }
        }
        let rtt = started.elapsed();
        self.inbuf.drain(..at);
        Ok(rtt)
    }

    /// Writes one edge through `POST /delta`; returns the acknowledgement
    /// (for a durable graph: after the fsync) and its round trip.
    pub fn delta(&mut self, change: Change) -> io::Result<(Reply, Duration)> {
        let body = match change {
            Change::Insert(u, v) => format!("+ {u} {v}\n"),
            Change::Delete(u, v) => format!("- {u} {v}\n"),
        };
        self.request.clear();
        write!(
            self.request,
            "POST /delta/{GRAPH} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let started = Instant::now();
        self.stream.write_all(&self.request)?;
        loop {
            if let Some((reply, used)) = split_reply(&self.inbuf) {
                let rtt = started.elapsed();
                self.inbuf.drain(..used);
                return Ok((reply, rtt));
            }
            self.read_more()?;
        }
    }

    fn read_more(&mut self) -> io::Result<()> {
        match self.stream.read(&mut self.chunk)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
            got => {
                self.inbuf.extend_from_slice(&self.chunk[..got]);
                Ok(())
            }
        }
    }
}

/// Splits one complete reply off the front of `buf`.
fn split_reply(buf: &[u8]) -> Option<(Reply, usize)> {
    // Both point-query answers share this head and are 39 bytes long.
    const OK_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n";
    if buf.len() > OK_HEAD.len() && buf.starts_with(OK_HEAD) {
        return Some((Reply { status: 200, body: vec![buf[OK_HEAD.len()]] }, OK_HEAD.len() + 1));
    }
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize =
        head.lines().find_map(|l| l.strip_prefix("Content-Length: "))?.trim().parse().ok()?;
    let total = head_end + 4 + length;
    (buf.len() >= total).then(|| (Reply { status, body: buf[head_end + 4..total].to_vec() }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_pipelined_replies() {
        let mut buf = Vec::new();
        buf.extend_from_slice(pscc_server::http::RESP_TRUE);
        buf.extend_from_slice(pscc_server::http::RESP_FALSE);
        pscc_server::http::write_response(&mut buf, 503, "Service Unavailable", b"overloaded\n");
        let (a, used_a) = split_reply(&buf).unwrap();
        assert_eq!((a.status, a.body.as_slice(), used_a), (200, &b"1"[..], 39));
        let (b, used_b) = split_reply(&buf[used_a..]).unwrap();
        assert_eq!((b.status, b.body.as_slice()), (200, &b"0"[..]));
        let (c, used_c) = split_reply(&buf[used_a + used_b..]).unwrap();
        assert_eq!((c.status, c.body.as_slice()), (503, &b"overloaded\n"[..]));
        assert_eq!(used_a + used_b + used_c, buf.len());
        // An incomplete reply is not split.
        assert!(split_reply(&buf[..used_a - 1]).is_none());
        assert!(split_reply(&buf[used_a + used_b..buf.len() - 1]).is_none());
    }
}
