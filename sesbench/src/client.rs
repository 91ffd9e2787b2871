//! A minimal keep-alive HTTP/1.1 client that can stamp a trace id on each
//! request and keeps the exact request bytes it sent, so the HTTP layer can
//! later be timed over the same bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

/// The request bytes this client sends for one call.
pub fn request_bytes(
    method: &str,
    path: &str,
    host: &str,
    body: &str,
    trace: Option<&str>,
) -> Vec<u8> {
    let trace_header = trace
        .map(|t| format!("x-ses-trace-id: {t}\r\n"))
        .unwrap_or_default();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n{trace_header}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_owned(),
            reader: None,
        }
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    /// A transport error drops the connection; the next call reconnects.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        let result = self.call_inner(request);
        if result.is_err() {
            self.reader = None;
        }
        result
    }

    fn call_inner(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        reader.get_mut().write_all(request)?;
        let mut line = String::new();
        let mut status = 0u16;
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside a response head",
                ));
            }
            let text = line.trim_end();
            if status == 0 {
                status = text
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("bad status line {text:?}")))?;
                continue;
            }
            if text.is_empty() {
                if (100..200).contains(&status) {
                    status = 0; // interim response: read the final one
                    continue;
                }
                break;
            }
            if let Some((name, value)) = text.split_once(':') {
                let value = value.trim();
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        content_length = value
                            .parse()
                            .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                    }
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.reader = None;
        }
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".to_owned()))?;
        Ok((status, body))
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
