//! The connection engine the server and the router share: the accept
//! loop, the registry of live connections with the shutdown sweep over
//! it, and the reader/writer thread pair that serves one connection. A
//! role plugs in as a [`Handler`] — what to do with one decoded
//! [`Request`] — and answers through the [`Reply`] it is handed; framing,
//! the protocol-error contract, wire metering and teardown live here once
//! (the threading diagram is in [`crate::server`]).

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hydra_obs::{Counter, MetricsRegistry};

use crate::protocol::{read_request, ErrorCode, Request, Response, ResponseBody};

/// What a role does with the requests of one connection. One handler is
/// made per connection, lives on its reader thread, and is dropped when
/// the connection retires — so it may own per-connection state.
pub(crate) trait Handler: Send + 'static {
    /// Handles one request, answering — now or later, from any thread —
    /// through (a clone of) `reply`.
    fn handle(&mut self, request: Request, reply: &Reply);
}

/// The sending side of one connection's response queue, drained by its
/// writer thread. The connection stays open until every clone is gone, so
/// a request handed to another thread with a `Reply` is always answered
/// before the connection retires.
#[derive(Clone)]
pub(crate) struct Reply(mpsc::Sender<Vec<u8>>);

impl Reply {
    /// Queues one response — the only place a [`Response`] is encoded.
    pub(crate) fn send(&self, request_id: u64, body: ResponseBody) {
        self.send_observed(request_id, body, |_| ());
    }

    /// [`send`](Self::send), telling `observe` how long the encoding took
    /// *before* the frame is queued: whatever `observe` records is visible
    /// to any scrape the client issues after reading this response.
    pub(crate) fn send_observed(
        &self,
        request_id: u64,
        body: ResponseBody,
        observe: impl FnOnce(Duration),
    ) {
        let t0 = Instant::now();
        let frame = Response { request_id, body }.encode();
        observe(t0.elapsed());
        // A failed send means the writer (and so the peer) is gone.
        let _ = self.0.send(frame);
    }
}

/// A [`Read`] pass-through that counts bytes into a [`Counter`], metering
/// a connection's receive side.
struct CountingReader {
    inner: TcpStream,
    bytes: Counter,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.add(n as u64);
        Ok(n)
    }
}

/// The socket write timeout of every accepted stream. A client that
/// pipelines queries but stops reading responses eventually fills the
/// kernel send buffer and parks its writer thread in `write_all`;
/// shutdown only closes *read* halves (so queued responses, including the
/// shutdown ack, still flush), so this timeout is what bounds how long
/// such a stalled connection can delay the owner's `join`.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

pub(crate) struct Listener {
    socket: TcpListener,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Handles of every *live* connection, keyed by connection id, so
    /// shutdown can unblock readers that would otherwise sit in
    /// `read_request` forever. Entries are removed when their connection
    /// thread retires — a lingering clone would hold the socket open (the
    /// peer would never see EOF) and leak one fd per connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// Wire-level counters, all connections summed.
    connections_total: Counter,
    protocol_errors: Counter,
    rx_bytes: Counter,
    rx_frames: Counter,
    tx_bytes: Counter,
    tx_frames: Counter,
}

impl Listener {
    /// Binds `addr` (port 0 for an ephemeral port), metering the wire into
    /// `registry` as `<family>_{connections,protocol_errors,rx_bytes,
    /// rx_frames,tx_bytes,tx_frames}_total`.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        registry: &MetricsRegistry,
        family: &str,
    ) -> std::io::Result<Arc<Self>> {
        let socket = TcpListener::bind(addr)?;
        let counter = |what: &str| registry.counter(&format!("{family}_{what}_total"), &[]);
        Ok(Arc::new(Self {
            addr: socket.local_addr()?,
            socket,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            connections_total: counter("connections"),
            protocol_errors: counter("protocol_errors"),
            rx_bytes: counter("rx_bytes"),
            rx_frames: counter("rx_frames"),
            tx_bytes: counter("tx_bytes"),
            tx_frames: counter("tx_frames"),
        }))
    }

    /// The address actually bound (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub(crate) fn connections(&self) -> u64 {
        self.connections_total.get()
    }

    /// Tracks a live connection for shutdown. Closing the *read* half on
    /// shutdown turns a blocked reader's next `read` into EOF (a clean
    /// hangup) while letting its writer flush responses already queued —
    /// including the shutdown ack itself.
    ///
    /// If the tracking clone cannot be made (fd exhaustion), the
    /// connection is refused outright — an untracked reader would be one
    /// that shutdown can never unblock.
    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        match stream.try_clone() {
            Ok(clone) => {
                self.conns.lock().expect("conns lock").insert(id, clone);
            }
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // A connection accepted while begin_shutdown was sweeping would
        // miss the sweep; re-checking after registration closes the race.
        if self.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        id
    }

    /// Releases the shutdown-sweep handle of a retiring connection.
    fn deregister(&self, id: u64) {
        self.conns.lock().expect("conns lock").remove(&id);
    }

    /// Stops accepting and unblocks every reader; idempotent.
    pub(crate) fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Unblock the acceptor with a throwaway connection; the accept
            // loop re-checks the flag before serving it. A wildcard bind
            // (0.0.0.0 / ::) is not connectable on every platform, so aim
            // the wake-up at loopback on the bound port instead.
            let mut target = self.addr;
            if target.ip().is_unspecified() {
                target.set_ip(match target {
                    SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(target);
            // Unblock every idle reader: without this, one lingering
            // connection would park the owner's `join` forever.
            for conn in self.conns.lock().expect("conns lock").values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
    }

    /// Starts the acceptor thread: it accepts until shutdown, serving each
    /// connection on a thread of its own with a fresh handler from
    /// `new_handler`, and ends once every connection thread has been
    /// joined; `new_handler` — and whatever it captured — is dropped
    /// before that wait.
    pub(crate) fn spawn<H: Handler>(
        self: &Arc<Self>,
        new_handler: impl FnMut() -> H + Send + 'static,
    ) -> JoinHandle<()> {
        let engine = Arc::clone(self);
        std::thread::spawn(move || engine.accept_loop(new_handler))
    }

    fn accept_loop<H: Handler>(self: &Arc<Self>, mut new_handler: impl FnMut() -> H) {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.socket.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap retired connection threads as we go: a forever-running
            // server must not accumulate one joinable-thread carcass per
            // connection it ever served.
            readers = readers
                .into_iter()
                .filter_map(|handle| {
                    if handle.is_finished() {
                        let _ = handle.join();
                        None
                    } else {
                        Some(handle)
                    }
                })
                .collect();
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    // Persistent accept failures (fd exhaustion, EMFILE) would
                    // otherwise busy-spin this loop at 100% CPU on the one
                    // binary designed to run forever; back off briefly.
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            self.connections_total.inc();
            // Responses are small frames written one by one, and a peer
            // with several requests in flight (a router link, a pipelining
            // client) gets several back to back: Nagle would hold each
            // behind its predecessor's ACK, which a peer that has nothing
            // to send delays by tens of milliseconds.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let conn_id = self.register(&stream);
            let (engine, handler) = (Arc::clone(self), new_handler());
            readers.push(std::thread::spawn(move || {
                engine.connection_loop(stream, conn_id, handler);
            }));
        }
        drop(new_handler);
        for reader in readers {
            let _ = reader.join();
        }
    }

    /// One connection's reader: decodes requests and hands them to
    /// `handler` in order, each handled before the next is read. A
    /// malformed frame gets one typed protocol-error response on id 0 and a
    /// hangup — after a framing error the stream position is unknowable,
    /// so continuing could misparse every later byte.
    fn connection_loop<H: Handler>(&self, stream: TcpStream, conn_id: u64, mut handler: H) {
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                // No write half, no service — release the tracking clone (the
                // invariant at `Listener::conns`) and hang up.
                self.deregister(conn_id);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
        let reply = Reply(reply_tx);
        let writer = {
            let (tx_bytes, tx_frames) = (self.tx_bytes.clone(), self.tx_frames.clone());
            std::thread::spawn(move || writer_loop(write_half, &reply_rx, &tx_bytes, &tx_frames))
        };
        let mut reader = BufReader::new(CountingReader {
            inner: stream,
            bytes: self.rx_bytes.clone(),
        });
        loop {
            match read_request(&mut reader) {
                Ok(None) => break,
                Ok(Some(request)) => {
                    self.rx_frames.inc();
                    handler.handle(request, &reply);
                }
                Err(e) => {
                    self.protocol_errors.inc();
                    let (code, message) = (ErrorCode::Protocol, e.to_string());
                    reply.send(0, ResponseBody::Error { code, message });
                    break;
                }
            }
        }
        // Requests handed to other threads still hold `Reply` clones; the
        // writer drains them and exits once the last one is answered, so
        // joining here guarantees every accepted request was answered
        // before the connection thread retires.
        drop(reply);
        let _ = writer.join();
        // Release the shutdown-sweep handle (it would otherwise hold the
        // socket open past this thread's life) and hang up explicitly.
        self.deregister(conn_id);
        let _ = reader.into_inner().inner.shutdown(Shutdown::Both);
    }
}

/// One connection's writer: puts queued response frames on the wire until
/// every [`Reply`] clone is gone.
fn writer_loop(
    mut stream: TcpStream,
    replies: &mpsc::Receiver<Vec<u8>>,
    tx_bytes: &Counter,
    tx_frames: &Counter,
) {
    while let Ok(frame) = replies.recv() {
        if stream
            .write_all(&frame)
            .and_then(|()| stream.flush())
            .is_err()
        {
            // The peer is gone; sends to the dropped receiver fail from
            // here on and are ignored.
            break;
        }
        tx_bytes.add(frame.len() as u64);
        tx_frames.inc();
    }
}
