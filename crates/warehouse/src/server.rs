//! The `raceline serve` TCP front end: std-only, thread-per-connection.
//!
//! Wire framing (one TCP connection may carry many requests):
//! - **Request**: one JSON object on a single `\n`-terminated line, e.g.
//!   `{"cmd":"submit","build":3,"len":1234}` — followed by exactly `len`
//!   raw body bytes when the command carries a payload (`submit` only).
//! - **Response**: one JSON object on a single line, `{"ok":true,...}` or
//!   `{"ok":false,"error":"..."}` — followed by exactly `len` body bytes
//!   when the response carries one (`query` and `diff`).
//!
//! Commands: `submit` (framed `.rltrace` upload), `query` (catalogue
//! text), `diff` (regression edges between two builds), `suppress`
//! (fingerprint triage flip), `stats`, `ping`, `shutdown`.
//!
//! Each frame goes out in a single write (see `frame`).
//!
//! A corrupt upload or malformed request degrades to an `ok:false`
//! response (or a dropped connection) — never a panic, never a wedged
//! server. Handler panics are caught per connection as a final backstop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use serde::Value;

use crate::json;
use crate::service::Service;

/// Upload size cap: a header naming a larger body is rejected before any
/// allocation, so a hostile length cannot balloon the server.
pub const MAX_BODY: u64 = 256 * 1024 * 1024;

/// Request header cap: a header line this long without its newline is
/// answered `ok:false` and the connection closed, so a client that never
/// sends a newline cannot balloon the server either.
pub const MAX_HEADER: u64 = 64 * 1024;

/// Accept connections until a `shutdown` command arrives. Each connection
/// gets its own scoped thread; shutdown waits for in-flight handlers to
/// drain, so every committed response is durable before exit.
pub fn serve(service: &Service, listener: TcpListener) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let stop = &stop;
            s.spawn(move || {
                // A panicking handler must not take the process (and the
                // warehouse) down with it; the lock layer tolerates
                // poisoning, so degrading this one connection is safe.
                let r =
                    catch_unwind(AssertUnwindSafe(|| handle_conn(service, stream, stop, local)));
                if r.is_err() {
                    eprintln!("serve: connection handler panicked; connection dropped");
                }
            });
        }
    });
    Ok(())
}

fn handle_conn(service: &Service, stream: TcpStream, stop: &AtomicBool, local: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let mut line = Vec::new();
        match (&mut reader).take(MAX_HEADER).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return,
        }
        if line.len() as u64 == MAX_HEADER && line.last() != Some(&b'\n') {
            let _ = respond_err(
                &mut writer,
                &format!("bad request: header exceeds {MAX_HEADER} bytes"),
            );
            return;
        }
        let Ok(line) = String::from_utf8(line) else { return };
        if line.trim().is_empty() {
            continue;
        }
        let header = match json::parse(line.trim_end()) {
            Ok(v) => v,
            Err(e) => {
                let _ = respond_err(&mut writer, &format!("bad request: {e}"));
                return;
            }
        };
        match dispatch(service, &header, &mut reader, &mut writer) {
            Flow::Continue => {}
            Flow::Close => return,
            Flow::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                // The accept loop may be blocked in `accept`; a throwaway
                // self-connection wakes it so it can observe the flag.
                let _ = TcpStream::connect(local);
                return;
            }
        }
    }
}

enum Flow {
    Continue,
    Close,
    Shutdown,
}

fn dispatch(
    service: &Service,
    header: &Value,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> Flow {
    match json::get_str(header, "cmd") {
        Some("submit") => {
            let Some(build) = json::get_u64(header, "build") else {
                let _ = respond_err(writer, "submit: missing build");
                return Flow::Close;
            };
            let Some(len) = json::get_u64(header, "len") else {
                let _ = respond_err(writer, "submit: missing len");
                return Flow::Close;
            };
            if len > MAX_BODY {
                let _ = respond_err(writer, &format!("submit: body {len} exceeds {MAX_BODY}"));
                return Flow::Close;
            }
            let mut body = vec![0u8; len as usize];
            if reader.read_exact(&mut body).is_err() {
                return Flow::Close;
            }
            match service.submit(build, &body) {
                Ok(o) => {
                    let header = Value::Object(vec![
                        ("ok".to_string(), Value::Bool(true)),
                        ("build".to_string(), Value::UInt(o.build)),
                        ("hash".to_string(), Value::Str(format!("{:016x}", o.hash))),
                        ("duplicate".to_string(), Value::Bool(o.duplicate)),
                        ("events".to_string(), Value::UInt(o.events)),
                        ("warnings".to_string(), Value::UInt(o.warnings)),
                    ]);
                    flow(respond(writer, &header, None))
                }
                Err(e) => flow(respond_err(writer, &e)),
            }
        }
        Some("query") => {
            let body = service.query();
            flow(respond_body(writer, body.as_bytes()))
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (json::get_u64(header, "a"), json::get_u64(header, "b"))
            else {
                let _ = respond_err(writer, "diff: missing a/b builds");
                return Flow::Close;
            };
            let body = service.diff(a, b);
            flow(respond_body(writer, body.as_bytes()))
        }
        Some("suppress") => {
            let Some(fp) = json::get_str(header, "fingerprint") else {
                let _ = respond_err(writer, "suppress: missing fingerprint");
                return Flow::Close;
            };
            let on = json::get_bool(header, "on").unwrap_or(true);
            match service.suppress(fp, on) {
                Ok(changed) => flow(respond(
                    writer,
                    &Value::Object(vec![
                        ("ok".to_string(), Value::Bool(true)),
                        ("changed".to_string(), Value::Bool(changed)),
                    ]),
                    None,
                )),
                Err(e) => flow(respond_err(writer, &e)),
            }
        }
        Some("stats") => {
            let body = service.stats();
            flow(respond_body(writer, body.as_bytes()))
        }
        Some("ping") => flow(respond(
            writer,
            &Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("engine".to_string(), Value::Str(service.engine().to_string())),
            ]),
            None,
        )),
        Some("shutdown") => {
            let _ =
                respond(writer, &Value::Object(vec![("ok".to_string(), Value::Bool(true))]), None);
            Flow::Shutdown
        }
        Some(other) => {
            let _ = respond_err(writer, &format!("unknown command: {other}"));
            Flow::Close
        }
        None => {
            let _ = respond_err(writer, "missing cmd");
            Flow::Close
        }
    }
}

fn flow(r: std::io::Result<()>) -> Flow {
    if r.is_ok() {
        Flow::Continue
    } else {
        Flow::Close
    }
}

fn respond(w: &mut TcpStream, header: &Value, body: Option<&[u8]>) -> std::io::Result<()> {
    w.write_all(&frame(header, body))?;
    w.flush()
}

/// One wire frame: the header line, then the body. Sent with one write:
/// on a reused connection, a separate write for the trailing `\n` would
/// wait (Nagle's algorithm) for the peer's delayed ACK of the header.
pub(crate) fn frame(header: &Value, body: Option<&[u8]>) -> Vec<u8> {
    let mut out = header.to_string().into_bytes();
    out.push(b'\n');
    out.extend_from_slice(body.unwrap_or_default());
    out
}

fn respond_body(w: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    let header = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("len".to_string(), Value::UInt(body.len() as u64)),
    ]);
    respond(w, &header, Some(body))
}

fn respond_err(w: &mut TcpStream, msg: &str) -> std::io::Result<()> {
    let header = Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(msg.to_string())),
    ]);
    respond(w, &header, None)
}
