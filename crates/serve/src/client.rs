//! A small blocking client for the hydra-serve protocol, shared by the
//! `serve_client` load generator, the end-to-end tests, and anyone who
//! wants to talk to a server from Rust without hand-rolling frames.
//!
//! The client is deliberately thin: [`ServeClient::send`] and
//! [`ServeClient::recv`] expose the pipelined request/response streams
//! directly (responses carry request ids, so callers may have many
//! requests in flight), and [`ServeClient::call`] wraps the common
//! one-in-one-out pattern.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::protocol::{
    read_response, write_request, IndexInfo, ProtocolError, Request, Response, ResponseBody,
};

/// A blocking connection to a hydra-serve server.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// The client end of a freshly connected stream.
    fn over(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Connects to `addr`, retrying until `timeout` elapses — for racing a
    /// server that is still booting (e.g. the CI smoke step).
    pub fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Connects to `addr` with a bound on the connection attempt itself —
    /// one `connect(2)` that fails after at most `timeout`, no retries.
    /// The router uses this toward its workers so a dead worker costs a
    /// bounded wait, not a TCP-stack-default hang.
    pub(crate) fn connect_within(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        Self::over(TcpStream::connect_timeout(&addr, timeout)?)
    }

    /// Splits the connection into its buffered read half and its write
    /// half — the router gives the first to a link's reader thread and
    /// writes requests on the second.
    pub(crate) fn into_halves(self) -> (BufReader<TcpStream>, TcpStream) {
        (self.reader, self.writer)
    }

    /// Bounds every subsequent read: a [`recv`](Self::recv) that waits
    /// longer than `timeout` for the next frame fails with
    /// [`ProtocolError::Io`] instead of blocking forever. `None` restores
    /// unbounded reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// A fresh request id (monotonically increasing, never 0 — 0 is the
    /// protocol-error id).
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request without waiting for its response (pipelining).
    pub fn send(&mut self, request: &Request) -> Result<(), ProtocolError> {
        write_request(&mut self.writer, request)
    }

    /// Receives the next response the server wrote. Match it to its
    /// request by `request_id`, not by position: a server answers one
    /// connection's queries in order, but through a router pipelined
    /// answers complete in any order.
    ///
    /// # Errors
    /// [`ProtocolError::Truncated`] if the server closed the stream — once
    /// a request is in flight, end-of-stream is an unanswered request, not
    /// a clean end.
    pub fn recv(&mut self) -> Result<Response, ProtocolError> {
        read_response(&mut self.reader)?.ok_or(ProtocolError::Truncated)
    }

    /// Sends `request` and waits for its response, checking the echoed id.
    pub fn call(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        self.send(request)?;
        let response = self.recv()?;
        if response.request_id != request.request_id() {
            return Err(ProtocolError::Corrupt(format!(
                "response id {} does not match request id {} (call() does not pipeline)",
                response.request_id,
                request.request_id()
            )));
        }
        Ok(response)
    }

    /// Calls with a fresh id for one kind of body: `expect` picks it out of
    /// the response (handing anything else back), and any other answer —
    /// a server-side error included — is [`ProtocolError::Corrupt`] naming
    /// `what` was asked.
    fn ask<T>(
        &mut self,
        what: &str,
        make: impl FnOnce(u64) -> Request,
        expect: impl FnOnce(ResponseBody) -> Result<T, ResponseBody>,
    ) -> Result<T, ProtocolError> {
        let request = make(self.fresh_id());
        expect(self.call(&request)?.body).map_err(|body| {
            ProtocolError::Corrupt(match body {
                ResponseBody::Error { code, message } => {
                    format!("server answered {what} with {code:?}: {message}")
                }
                other => format!("unexpected response body {other:?} to {what}"),
            })
        })
    }

    /// Lists the served indexes.
    pub fn list_indexes(&mut self) -> Result<Vec<IndexInfo>, ProtocolError> {
        self.ask(
            "list-indexes",
            |request_id| Request::ListIndexes { request_id },
            |body| match body {
                ResponseBody::Indexes { indexes } => Ok(indexes),
                other => Err(other),
            },
        )
    }

    /// Asks the server to reload its snapshots and swap to a fresh epoch;
    /// returns the new epoch id once acknowledged.
    ///
    /// # Errors
    /// [`ProtocolError::Corrupt`] when the server answers with an error —
    /// a reload refused (no reload source) or failed (damaged snapshot
    /// directory) — with the server's message included.
    pub fn reload(&mut self) -> Result<u64, ProtocolError> {
        self.ask(
            "reload",
            |request_id| Request::Reload { request_id },
            |body| match body {
                ResponseBody::ReloadAck { epoch } => Ok(epoch),
                other => Err(other),
            },
        )
    }

    /// Scrapes the server's (or router's) metrics registry: one
    /// point-in-time snapshot in the Prometheus text exposition format.
    ///
    /// # Errors
    /// [`ProtocolError::Corrupt`] when the server answers with an error
    /// or an unexpected body.
    pub fn stats(&mut self) -> Result<String, ProtocolError> {
        self.ask(
            "stats",
            |request_id| Request::Stats { request_id },
            |body| match body {
                ResponseBody::Stats { text } => Ok(text),
                other => Err(other),
            },
        )
    }

    /// Asks the server to shut down cleanly; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ProtocolError> {
        self.ask(
            "shutdown",
            |request_id| Request::Shutdown { request_id },
            |body| match body {
                ResponseBody::ShutdownAck => Ok(()),
                other => Err(other),
            },
        )
    }
}
