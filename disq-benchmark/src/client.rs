//! A minimal keep-alive HTTP/1.1 client for `POST /query`, plus the
//! response decoding the correctness checks need.

use disq_trace::json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` with Nagle off and a generous read timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one `POST /query` with `body` and reads the whole response:
    /// `(status, body)`.
    pub fn post(&mut self, body: &str) -> io::Result<(u16, String)> {
        let msg = format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(msg.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[start..start + length].to_vec())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((status, body))
    }
}

/// A decoded `/query` answer: objects scanned and `(object, value)` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Objects the daemon scanned.
    pub scanned: u64,
    /// Matching rows in response order.
    pub rows: Vec<(u64, f64)>,
}

/// Decodes a 200 `/query` body; `None` when it does not have the shape.
/// Values come back bit-exact: the daemon writes shortest round-trip
/// floats, which `str::parse::<f64>` inverts.
pub fn decode(body: &str) -> Option<Answer> {
    let doc = json::parse(body).ok()?;
    let scanned = doc.get("scanned")?.as_u64()?;
    let rows = doc
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|r| Some((r.get("object")?.as_u64()?, r.get("value")?.as_f64()?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Answer { scanned, rows })
}

/// An in-process `QueryResult` in the shape of a decoded response, for
/// bit-exact comparison.
pub fn answer_of(result: &disq_core::online::QueryResult) -> Answer {
    Answer {
        scanned: result.scanned as u64,
        rows: result
            .rows
            .iter()
            .map(|r| (r.object.0 as u64, r.values[0]))
            .collect(),
    }
}

/// True when both answers hold the same rows with bit-identical values.
pub fn bit_identical(a: &Answer, b: &Answer) -> bool {
    a.scanned == b.scanned
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_reads_rows_bit_exactly() {
        let v = 0.1 + 0.2;
        let body = format!(
            "{{\"attribute\":\"Bmi\",\"scanned\":40,\"matched\":1,\"plan\":\"memory\",\"rows\":[{{\"object\":7,\"value\":{v}}}]}}"
        );
        let a = decode(&body).unwrap();
        assert_eq!(a.scanned, 40);
        assert_eq!(a.rows, vec![(7, v)]);
        assert_eq!(a.rows[0].1.to_bits(), v.to_bits());
        assert!(decode("{\"error\":\"x\"}").is_none());
        let mut b = a.clone();
        assert!(bit_identical(&a, &b));
        b.rows[0].1 = f64::from_bits(v.to_bits() + 1);
        assert!(!bit_identical(&a, &b));
    }
}
