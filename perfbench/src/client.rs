//! A keep-alive HTTP/1.1 client over `std::net`, speaking through the
//! serve crate's own client codec (`http::write_request` /
//! `http::read_response`, the functions the replica's fetch loop uses).

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use corroborate_serve::http::{read_response, write_request, HttpError};

/// Socket timeout; a request slower than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Largest response body accepted.
const MAX_BODY: usize = 1 << 20;

/// One response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the request bytes were handed to the socket.
    pub written: Instant,
}

/// One keep-alive connection; reconnects after any transport error.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
    /// The request, encoded whole so it leaves in one write.
    buf: Vec<u8>,
    /// Connections opened after the first.
    pub reconnects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: Vec::new(), reconnects: 0 }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.stream = Some((reader, stream));
        Ok(())
    }

    /// Sends one request and reads its response. A transport error drops
    /// the connection; the next request reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            self.connect()?;
        }
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
            self.reconnects += 1;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let Some((reader, writer)) = self.stream.as_mut() else {
            return Err(io::Error::other("not connected"));
        };
        self.buf.clear();
        write_request(&mut self.buf, method, path, body, true)?;
        writer.write_all(&self.buf)?;
        let written = Instant::now();
        let response = read_response(reader, MAX_BODY).map_err(|e| match e {
            HttpError::Io(e) => e,
            other => io::Error::other(format!("{other:?}")),
        })?;
        if response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok(Response { status: response.status, body: response.body, written })
    }
}
