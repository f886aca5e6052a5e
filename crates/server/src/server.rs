//! The network front-end.
//!
//! A deliberately boring threaded TCP server in the shape of Pelikan's
//! `pingserver`: one acceptor, a fixed pool of worker threads fed
//! through a channel, and an admin listener on a second port (see
//! [`crate::admin`]). Each connection has Pelikan's read buffer and
//! write buffer: a [`FrameBuffer`] so reads can stop at arbitrary byte
//! boundaries, and an output buffer that collects the answers to every
//! frame one read delivered, in request order. Workers decode frames,
//! hand them to the shared [`ServiceCore`], and send each read's
//! answers back with **one write per read** — a client that pipelines
//! 32 requests into one write gets 32 answers in one write, not 64
//! syscalls. A worker never blocks in `read` while it holds answers.
//! All engine logic lives behind the core's mutex, none in the network
//! layer.
//!
//! Everything polls a shared shutdown flag on short timeouts instead
//! of blocking forever, so `GET /shutdown` on the admin port (or
//! [`Server::shutdown`]) unwinds the whole scope cleanly.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use crate::admin;
use crate::protocol::{
    decode_request, encode_response, write_frame, ErrorCode, FrameBuffer, Request, Response,
};
use crate::service::ServiceCore;

/// How long blocking points (accept polls, worker channel waits,
/// connection reads) wait before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-port bind address (`127.0.0.1:0` picks a free port).
    pub addr: SocketAddr,
    /// Admin-port bind address.
    pub admin_addr: SocketAddr,
    /// Worker threads serving data connections (at least 1).
    pub workers: usize,
    /// How long a graceful drain (`/drain` or [`Server::drain`]) waits
    /// for in-flight connections to finish before forcing shutdown.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            admin_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Monotone counters the admin endpoint reports.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Data connections accepted.
    pub accepted: AtomicU64,
    /// Request frames decoded and handled.
    pub frames: AtomicU64,
    /// Protocol failures of either kind (`frame_errors` +
    /// `decode_errors`), kept as a single headline counter.
    pub protocol_errors: AtomicU64,
    /// Connections dropped on malformed framing (bad length prefix).
    pub frame_errors: AtomicU64,
    /// Well-framed payloads that failed to decode as a request.
    pub decode_errors: AtomicU64,
    /// Data-socket reads that returned bytes.
    pub reads: AtomicU64,
    /// Answer buffers written to data sockets, the shutdown goodbye
    /// included. Outside shutdown a read yields at most one write.
    pub writes: AtomicU64,
}

/// A bound (but not yet running) server.
///
/// Binding is split from running so tests and the binary can bind port
/// 0, read the real addresses back, and only then start serving:
///
/// ```no_run
/// # use coserve_server::server::{Server, ServerConfig};
/// # fn demo(core: &coserve_server::service::ServiceCore<'_>) -> std::io::Result<()> {
/// let server = Server::bind(&ServerConfig::default())?;
/// println!("data on {}, admin on {}", server.data_addr()?, server.admin_addr()?);
/// server.run(core)?; // blocks until /shutdown
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    data: TcpListener,
    admin: TcpListener,
    workers: usize,
    shutdown: AtomicBool,
    /// Graceful-drain flag: stop accepting, serve out what's open.
    draining: AtomicBool,
    /// Data connections currently inside `serve_connection`.
    active_conns: AtomicU64,
    drain_grace: Duration,
    counters: ServerCounters,
}

impl Server {
    /// Binds the data and admin listeners.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        Ok(Server {
            data: TcpListener::bind(config.addr)?,
            admin: TcpListener::bind(config.admin_addr)?,
            workers: config.workers.max(1),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            drain_grace: config.drain_grace,
            counters: ServerCounters::default(),
        })
    }

    /// The bound data address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn data_addr(&self) -> io::Result<SocketAddr> {
        self.data.local_addr()
    }

    /// The bound admin address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn admin_addr(&self) -> io::Result<SocketAddr> {
        self.admin.local_addr()
    }

    /// Requests shutdown; [`Server::run`] returns once in-flight
    /// connections notice (bounded by the internal poll interval).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: the acceptor stops taking new
    /// connections, open connections keep being served — `Pump`,
    /// `Poll` and `Finish` still work, so clients can flush their
    /// pending completions — but new `Submit`s are rejected with
    /// [`ErrorCode::Shutdown`]. Once every connection has finished (or
    /// the configured grace period elapses) the server shuts down.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a graceful drain has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Data connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.active_conns.load(Ordering::SeqCst)
    }

    /// The server's monotone counters.
    #[must_use]
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// Serves until shutdown: accepts data connections, fans them out
    /// to the worker pool, and answers admin requests. Blocks the
    /// calling thread; the engine session inside `core` borrows state
    /// on the caller's stack, which is why the whole pool lives in a
    /// [`std::thread::scope`].
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection I/O
    /// errors only drop that connection.
    pub fn run(&self, core: &ServiceCore<'_>) -> io::Result<()> {
        self.data.set_nonblocking(true)?;
        self.admin.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);

        let mut spawn_err: Option<io::Error> = None;
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let rx = &rx;
                let spawned = std::thread::Builder::new()
                    .name(format!("coserve-worker-{worker}"))
                    .spawn_scoped(scope, move || self.worker_loop(core, rx));
                if let Err(e) = spawned {
                    spawn_err = Some(e);
                    self.shutdown();
                    return;
                }
            }
            let spawned = std::thread::Builder::new()
                .name("coserve-admin".into())
                .spawn_scoped(scope, move || self.admin_loop(core));
            if let Err(e) = spawned {
                spawn_err = Some(e);
                self.shutdown();
                return;
            }

            // The acceptor runs on the calling thread.
            while !self.is_shutting_down() && !self.is_draining() {
                match self.data.accept() {
                    Ok((stream, _peer)) => {
                        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            // Graceful drain: wait for the open connections to finish
            // (bounded by the grace period), then force the shutdown
            // flag so the workers unwind.
            if self.is_draining() && !self.is_shutting_down() {
                let deadline = std::time::Instant::now() + self.drain_grace;
                while self.active_connections() > 0 && std::time::Instant::now() < deadline {
                    std::thread::sleep(POLL_INTERVAL);
                }
                self.shutdown();
            }
            drop(tx); // workers drain the queue, then see the hangup
        });
        match spawn_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn worker_loop(&self, core: &ServiceCore<'_>, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
        loop {
            let next = {
                // A panic in a sibling worker poisons the lock but
                // leaves the receiver intact; keep serving.
                let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                rx.recv_timeout(POLL_INTERVAL)
            };
            match next {
                Ok(stream) => self.serve_connection(core, stream),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.is_shutting_down() {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Serves one data connection to EOF: Pelikan-style per-session
    /// receive buffer, short read timeouts so the shutdown flag is
    /// polled even while a frame is partially received.
    ///
    /// One write per read: the answer to every frame a read completed
    /// is framed into `out`, in request order, and `out` goes to the
    /// socket in one `write_all` before the worker blocks in `read`
    /// again — never later, so no answer waits on bytes that may never
    /// come (a half-sent frame behind it, say) — and before the
    /// connection closes after a framing error or a draining `Finish`.
    fn serve_connection(&self, core: &ServiceCore<'_>, mut stream: TcpStream) {
        self.active_conns.fetch_add(1, Ordering::SeqCst);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_nodelay(true);
        let mut frames = FrameBuffer::new();
        let mut out = Vec::new();
        let mut conn: Option<u32> = None;
        let mut read_buf = [0u8; 16 * 1024];

        'conn: loop {
            if self.is_shutting_down() {
                let bye = Response::Error {
                    code: ErrorCode::Shutdown,
                    message: "server shutting down".into(),
                };
                let _ = write_frame(&mut out, &encode_response(&bye));
                break;
            }
            let n = match stream.read(&mut read_buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            };
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = read_buf.get(..n) else {
                break;
            };
            frames.extend(chunk);
            loop {
                let payload = match frames.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(_) => {
                        self.counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                        break 'conn;
                    }
                };
                let mut finishing = false;
                let response = match decode_request(&payload) {
                    // A draining server flushes what's in flight but
                    // takes no new work: submits are refused with a
                    // typed Shutdown error while Pump/Poll/Finish keep
                    // working so the client can collect its
                    // completions and leave.
                    Ok(Request::Submit { .. }) if self.is_draining() => {
                        self.counters.frames.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            code: ErrorCode::Shutdown,
                            message: "server draining".into(),
                        }
                    }
                    Ok(request) => {
                        self.counters.frames.fetch_add(1, Ordering::Relaxed);
                        finishing = matches!(request, Request::Finish);
                        core.handle(&mut conn, request)
                    }
                    Err(e) => {
                        self.counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        }
                    }
                };
                if write_frame(&mut out, &encode_response(&response)).is_err() {
                    break 'conn;
                }
                // On a draining server a `Finish` is goodbye: close
                // so the drain can complete without waiting for the
                // client to hang up.
                if finishing && self.is_draining() {
                    break 'conn;
                }
            }
            if !self.send(&mut stream, &mut out) {
                break;
            }
        }
        // Whatever made the loop end, answers already framed still go
        // out before the close: the frames ahead of a bad length
        // prefix, a draining `Finish`, the shutdown goodbye.
        self.send(&mut stream, &mut out);
        // A connection that vanished without `Finish` still releases
        // its session state (and orphans its undelivered completions).
        if let Some(id) = conn {
            core.disconnect(id);
        }
        self.active_conns.fetch_sub(1, Ordering::SeqCst);
    }

    /// Writes the framed answers in `out` to `stream` in one
    /// `write_all` and empties `out`; `false` when the socket failed.
    fn send(&self, stream: &mut TcpStream, out: &mut Vec<u8>) -> bool {
        if out.is_empty() {
            return true;
        }
        let sent = stream.write_all(out).is_ok();
        out.clear();
        if sent {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
        }
        sent
    }

    fn admin_loop(&self, core: &ServiceCore<'_>) {
        while !self.is_shutting_down() {
            match self.admin.accept() {
                Ok((stream, _peer)) => admin::serve_admin_connection(self, core, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
    }
}

/// Blocking wire client used by the load generator and the tests; one
/// request frame out, one response frame back. A call costs one write
/// syscall and, through a buffered reader over a clone of the socket,
/// usually one read.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server's data port.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads the matching response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a server-closed connection is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn call(&mut self, request: &crate::protocol::Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &crate::protocol::encode_request(request))?;
        let payload = crate::protocol::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        Ok(crate::protocol::decode_response(&payload)?)
    }
}
