//! The accepting half the server and the router share: the accept loop,
//! the registry of live connections, and the shutdown sweep over it.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use hydra_obs::Counter;

pub(crate) struct Listener {
    addr: SocketAddr,
    /// Applied to every accepted stream (`None`/zero: writes never time out).
    write_timeout: Option<Duration>,
    shutdown: AtomicBool,
    /// Handles of every *live* connection, keyed by connection id, so
    /// shutdown can unblock readers that would otherwise sit in
    /// `read_request` forever. Entries are removed when their connection
    /// thread retires — a lingering clone would hold the socket open (the
    /// peer would never see EOF) and leak one fd per connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    connections: AtomicU64,
    connections_total: Counter,
}

impl Listener {
    /// The accepting state of a listener bound to `addr`; `connections_total`
    /// is the owner's scrapeable accepted-connections counter.
    pub(crate) fn new(
        addr: SocketAddr,
        write_timeout: Option<Duration>,
        connections_total: Counter,
    ) -> Self {
        Self {
            addr,
            write_timeout,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            connections_total,
        }
    }

    /// Connections accepted so far.
    pub(crate) fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
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
    pub(crate) fn deregister(&self, id: u64) {
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

    /// Accepts until shutdown, handing each registered stream and its
    /// connection id to `serve`, which spawns the connection's thread (and
    /// must [`Listener::deregister`] the id when it retires). Returns once
    /// every connection thread has been joined; `serve` — and whatever it
    /// captured — is dropped before that wait.
    pub(crate) fn accept_loop(
        &self,
        listener: &TcpListener,
        mut serve: impl FnMut(TcpStream, u64) -> JoinHandle<()>,
    ) {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
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
            self.connections.fetch_add(1, Ordering::Relaxed);
            self.connections_total.inc();
            if let Some(timeout) = self.write_timeout.filter(|t| !t.is_zero()) {
                let _ = stream.set_write_timeout(Some(timeout));
            }
            let conn_id = self.register(&stream);
            readers.push(serve(stream, conn_id));
        }
        drop(serve);
        for reader in readers {
            let _ = reader.join();
        }
    }
}
