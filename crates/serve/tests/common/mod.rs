//! Tiny raw-TCP HTTP client used by the serve integration tests: no
//! client library, so the tests exercise exactly the bytes on the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
    // Not every test binary inspects the close flag.
    #[allow(dead_code)]
    pub close: bool,
}

/// Reads one HTTP/1.1 response off `stream`, and not a byte more: the
/// head a byte at a time, then exactly `Content-Length` body bytes, so
/// a pipelined next response stays on the stream.
pub fn read_response(stream: &mut TcpStream) -> HttpResponse {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed before a full response head");
        buf.push(byte[0]);
    }
    let head = std::str::from_utf8(&buf[..buf.len() - 4]).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().expect("content length");
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read response body");
    HttpResponse {
        status,
        body: String::from_utf8(body).expect("UTF-8 body"),
        close,
    }
}

/// Opens a connection to `addr` with a generous client-side timeout.
pub fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Sends one request on an existing connection and reads the response.
pub fn request(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> HttpResponse {
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: disq\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).expect("write request");
    read_response(stream)
}

/// One-shot request on a fresh connection.
pub fn oneshot(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> HttpResponse {
    let mut stream = connect(addr);
    request(&mut stream, method, path, body)
}
