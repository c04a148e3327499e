//! Client half of the wire protocol: one connection per request, used by
//! `raceline client`, the CI gates, and the serve bench. See
//! [`crate::server`] for the framing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use serde::Value;

use crate::json;
use crate::server::{frame, MAX_BODY, MAX_HEADER};

/// A parsed response: the header object plus the raw body bytes (empty
/// when the response carries none).
pub struct Response {
    pub header: Value,
    pub body: Vec<u8>,
}

impl Response {
    pub fn ok(&self) -> bool {
        json::get_bool(&self.header, "ok") == Some(true)
    }

    pub fn error(&self) -> Option<&str> {
        json::get_str(&self.header, "error")
    }
}

/// Send one request (header object + optional raw body) and read the
/// response. Transport and protocol failures come back as `Err`; an
/// `ok:false` response comes back as `Ok` — the caller decides whether
/// that is fatal.
pub fn request(addr: &str, header: &Value, body: Option<&[u8]>) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(&frame(header, body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("{addr}: send failed: {e}"))?;

    // The server's own caps bound what a response may claim, so a broken
    // or hostile server cannot make the client buffer without limit.
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    (&mut reader)
        .take(MAX_HEADER)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("{addr}: read failed: {e}"))?;
    if line.is_empty() {
        return Err(format!("{addr}: connection closed before response"));
    }
    if line.len() as u64 == MAX_HEADER && line.last() != Some(&b'\n') {
        return Err(format!("{addr}: response header exceeds {MAX_HEADER} bytes"));
    }
    let line = String::from_utf8(line).map_err(|_| format!("{addr}: bad response: not UTF-8"))?;
    let resp = json::parse(line.trim_end()).map_err(|e| format!("{addr}: bad response: {e}"))?;
    let mut out = Vec::new();
    if let Some(len) = json::get_u64(&resp, "len") {
        if len > MAX_BODY {
            return Err(format!("{addr}: response body {len} exceeds {MAX_BODY}"));
        }
        out.resize(len as usize, 0);
        reader.read_exact(&mut out).map_err(|e| format!("{addr}: truncated response body: {e}"))?;
    }
    Ok(Response { header: resp, body: out })
}

/// Convenience: a header with just a `cmd` field.
pub fn cmd(name: &str) -> Value {
    Value::Object(vec![("cmd".to_string(), Value::Str(name.to_string()))])
}

/// Convenience: upload one trace.
pub fn submit(addr: &str, build: u64, bytes: &[u8]) -> Result<Response, String> {
    let header = Value::Object(vec![
        ("cmd".to_string(), Value::Str("submit".to_string())),
        ("build".to_string(), Value::UInt(build)),
        ("len".to_string(), Value::UInt(bytes.len() as u64)),
    ]);
    request(addr, &header, Some(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// A one-connection server that reads the request line, writes
    /// `answer` raw, then keeps the connection open until the client hangs
    /// up (or 10 s pass): a client that waited for more than `answer`
    /// holds would stall instead of seeing end-of-stream.
    fn answer_once(answer: Vec<u8>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the client");
            let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
            let mut request = String::new();
            reader.read_line(&mut request).expect("read the request line");
            // The client may hang up before reading all of it.
            let _ = stream.write_all(&answer);
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set a read timeout");
            let _ = reader.read(&mut [0u8; 1]);
        });
        (addr, server)
    }

    #[test]
    fn body_length_beyond_the_cap_is_rejected_before_allocating() {
        let (addr, server) = answer_once(b"{\"ok\":true,\"len\":18446744073709551615}\n".to_vec());
        let err = request(&addr, &cmd("query"), None).err().expect("a hostile length must fail");
        assert_eq!(err, format!("{addr}: response body 18446744073709551615 exceeds {MAX_BODY}"));
        server.join().expect("server thread");
    }

    #[test]
    fn header_without_newline_is_capped() {
        let (addr, server) = answer_once(vec![b'x'; 4 * MAX_HEADER as usize]);
        let err = request(&addr, &cmd("query"), None).err().expect("an endless header must fail");
        assert_eq!(err, format!("{addr}: response header exceeds {MAX_HEADER} bytes"));
        server.join().expect("server thread");
    }
}
