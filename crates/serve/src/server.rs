//! The TCP front end: an acceptor, one thread per connection, and
//! graceful stop.
//!
//! The acceptor owns the listener. It admits a connection only while
//! fewer than [`ServerConfig::max_connections`] are live and gives it
//! a thread of its own; past the cap (or if the thread cannot be
//! spawned) it answers a typed `503` with `Retry-After` and closes.
//!
//! A connection thread owns its read buffer for the life of the
//! socket. Before each request it blocks on the socket for at most
//! [`ServerConfig::keep_alive_timeout`]: the request's first bytes
//! wake it at once, and a socket idle past the timeout is closed and
//! counted. Pipelined requests (bytes already buffered behind the
//! previous request) are served without touching the socket. Idle
//! keep-alive sockets therefore cost a blocked thread and a slot under
//! the cap, and no polling.
//!
//! [`ServerConfig::workers`] bounds how many requests run inside
//! [`Service::handle`] at once, whatever the number of open
//! connections.
//!
//! Shutdown is cooperative and needs no platform signal plumbing: a
//! shared flag is raised (by [`ServerHandle::shutdown`] or by a
//! `POST /shutdown` request), a throwaway self-connection wakes the
//! blocking `accept`, and the acceptor stops accepting and shuts the
//! read side of every live connection. Idle connections see EOF at
//! once; a request already read still gets its full response.
//! [`ServerHandle::join`] returns when every connection has closed.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use warped_sim::parallel::worker_count;

use crate::http::{read_request, HttpError};
use crate::service::{Fail, Handled, Service, ServiceConfig};

/// Transport configuration for [`spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Requests served concurrently (inside [`Service::handle`]); more
    /// connections may be open, their requests wait their turn.
    pub workers: usize,
    /// Per-read timeout inside a request (a stalled client cannot
    /// hold its connection forever). Must not be zero.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout. Must not be zero.
    pub write_timeout: Option<Duration>,
    /// How long a connection may wait for its next request before it
    /// is closed as idle. Must not be zero.
    pub keep_alive_timeout: Duration,
    /// Live connections (idle keep-alive sockets included) before the
    /// acceptor sheds with a `503`; `None` sizes it
    /// `max(workers * 4, 64)` — the floor keeps normal connection
    /// churn on a small box from reading as overload.
    pub max_connections: Option<usize>,
    /// The service behind the transport.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: worker_count(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            keep_alive_timeout: Duration::from_secs(5),
            max_connections: None,
            service: ServiceConfig::default(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live connections, keyed by admission number. Each entry is a
/// clone of the connection's socket, kept so shutdown can close its
/// read side.
#[derive(Debug, Default)]
struct Conns {
    live: Mutex<Live>,
    drained: Condvar,
}

#[derive(Debug, Default)]
struct Live {
    admitted: u64,
    streams: HashMap<u64, TcpStream>,
}

impl Conns {
    /// Registers `stream` unless `cap` connections are already live.
    fn admit(&self, stream: &TcpStream, cap: usize) -> Option<u64> {
        let mut live = lock(&self.live);
        if live.streams.len() >= cap {
            return None;
        }
        let clone = stream.try_clone().ok()?;
        live.admitted += 1;
        let id = live.admitted;
        live.streams.insert(id, clone);
        Some(id)
    }

    /// Unregisters a connection, returning its socket clone.
    fn release(&self, id: u64) -> Option<TcpStream> {
        let mut live = lock(&self.live);
        let stream = live.streams.remove(&id);
        if live.streams.is_empty() {
            self.drained.notify_all();
        }
        stream
    }

    /// Ends reading on every live connection: idle readers see EOF.
    fn close_reads(&self) {
        for stream in lock(&self.live).streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn wait_drained(&self) {
        let mut live = lock(&self.live);
        while !live.streams.is_empty() {
            live = self
                .drained
                .wait(live)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A counting gate: at most `limit` holders of a [`Pass`] at once.
#[derive(Debug)]
struct Gate {
    busy: Mutex<usize>,
    freed: Condvar,
    limit: usize,
}

impl Gate {
    fn enter(&self) -> Pass<'_> {
        let mut busy = lock(&self.busy);
        while *busy >= self.limit {
            busy = self
                .freed
                .wait(busy)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *busy += 1;
        Pass(self)
    }
}

/// One place in a [`Gate`], given back on drop (unwinding included).
struct Pass<'a>(&'a Gate);

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        *lock(&self.0.busy) -= 1;
        self.0.freed.notify_one();
    }
}

/// What the acceptor and every connection thread share.
#[derive(Debug)]
struct Ctx {
    service: Arc<Service>,
    shutdown: AtomicBool,
    conns: Conns,
    gate: Gate,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    keep_alive_timeout: Duration,
    addr: SocketAddr,
}

impl Ctx {
    /// Raises the shutdown flag and wakes the blocking `accept` with a
    /// throwaway connection (if the listener is already gone, there
    /// is nothing to wake).
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`shutdown`](ServerHandle::shutdown) or [`join`](ServerHandle::join).
#[derive(Debug)]
pub struct ServerHandle {
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The service behind the transport (for in-process inspection).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.ctx.service
    }

    /// Stops accepting and blocks until every connection has closed:
    /// idle ones at once, busy ones after their in-flight response.
    pub fn shutdown(&mut self) {
        self.ctx.stop();
        self.join();
    }

    /// Blocks until the server stops (e.g. via `POST /shutdown`) and
    /// every connection has closed.
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.ctx.conns.wait_drained();
    }
}

/// Binds the listener and spawns the acceptor thread.
///
/// # Errors
///
/// Returns `InvalidInput` naming the field for a zero timeout (a
/// socket cannot wait zero time), or the bind error if the address is
/// unavailable.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    for (field, timeout) in [
        ("read_timeout", config.read_timeout),
        ("write_timeout", config.write_timeout),
        ("keep_alive_timeout", Some(config.keep_alive_timeout)),
    ] {
        if timeout == Some(Duration::ZERO) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ServerConfig::{field} must not be zero"),
            ));
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    let workers = config.workers.max(1);
    let ctx = Arc::new(Ctx {
        service: Arc::new(Service::new(config.service)),
        shutdown: AtomicBool::new(false),
        conns: Conns::default(),
        gate: Gate {
            busy: Mutex::new(0),
            freed: Condvar::new(),
            limit: workers,
        },
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        keep_alive_timeout: config.keep_alive_timeout,
        addr: listener.local_addr()?,
    });
    let max_connections = config.max_connections.unwrap_or((workers * 4).max(64));
    let acceptor = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("warped-serve-accept".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if ctx.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        admit(&ctx, stream, max_connections);
                    }
                }
                ctx.conns.close_reads();
            })?
    };
    Ok(ServerHandle {
        ctx,
        acceptor: Some(acceptor),
    })
}

/// Gives an accepted connection its own thread, or sheds it when the
/// cap is reached or no thread can be spawned.
fn admit(ctx: &Arc<Ctx>, stream: TcpStream, max_connections: usize) {
    let Some(id) = ctx.conns.admit(&stream, max_connections) else {
        return shed(&ctx.service, stream);
    };
    // Detached: the registry, not a `JoinHandle`, tracks the thread,
    // and `Slot` gives its place back even if it panics.
    let conn_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name("warped-serve-conn".to_owned())
        .spawn(move || {
            let _slot = Slot(&conn_ctx, id);
            let _ = serve_connection(&conn_ctx, stream);
        });
    // The closure (and its socket) is gone; answer on the registry's
    // clone instead.
    if spawned.is_err() {
        if let Some(stream) = ctx.conns.release(id) {
            shed(&ctx.service, stream);
        }
    }
}

/// A connection's place under the cap, released when its thread
/// exits (unwinding included).
struct Slot<'a>(&'a Ctx, u64);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.conns.release(self.1);
    }
}

/// Sheds one connection the server has no room for: a typed `503`
/// with `Retry-After` on a best-effort write, then close. The client
/// learns to back off instead of hanging in the backlog.
fn shed(service: &Service, stream: TcpStream) {
    service
        .metrics
        .shed_requests
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = Fail::new(503, "overloaded", "connection limit reached; retry shortly").answer(
        &service.metrics,
        &mut BufWriter::new(stream),
        &[("Retry-After", "1")],
        false,
    );
}

/// Serves requests off one connection until it closes, idles past the
/// keep-alive timeout, or asks for shutdown.
fn serve_connection(ctx: &Ctx, stream: TcpStream) -> io::Result<()> {
    stream.set_write_timeout(ctx.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let metrics = &ctx.service.metrics;
    let mut served = 0u64;
    loop {
        if reader.buffer().is_empty() {
            // Wait for the next request's first byte, at most the
            // keep-alive timeout; then read the rest under the
            // per-request timeout.
            reader
                .get_ref()
                .set_read_timeout(Some(ctx.keep_alive_timeout))?;
            match reader.fill_buf() {
                Ok([]) => return Ok(()),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    metrics.reaped_idle_sockets.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
            reader.get_ref().set_read_timeout(ctx.read_timeout)?;
        } else if served > 0 {
            // The request sat in the buffer behind the previous one.
            metrics.pipelined_requests.fetch_add(1, Ordering::Relaxed);
        }
        match read_request(&mut reader) {
            // Clean close between requests — e.g. the shutdown probe.
            Ok(None) => return Ok(()),
            Ok(Some(request)) => {
                served += 1;
                if served == 2 {
                    metrics.connections_reused.fetch_add(1, Ordering::Relaxed);
                }
                let pass = ctx.gate.enter();
                // Promise reuse only if the client wants it and the
                // server is not stopping.
                let keep_alive = request.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                let handled = ctx.service.handle(&request, &mut writer, keep_alive)?;
                writer.flush()?;
                drop(pass);
                if handled == Handled::ShutdownRequested {
                    ctx.stop();
                    return Ok(());
                }
                if !keep_alive {
                    return Ok(());
                }
            }
            Err(HttpError::Bad(status, reason)) => {
                // Framing is broken; answer and close (no way to know
                // where the next request starts).
                return Fail::new(status, "bad_request", reason).answer(
                    metrics,
                    &mut writer,
                    &[],
                    false,
                );
            }
            // The peer vanished mid-request; nothing to answer.
            Err(HttpError::Io(e)) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero(field: &str, config: ServerConfig) {
        let err = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..config
        })
        .expect_err("a zero timeout is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(field), "{err}");
    }

    #[test]
    fn zero_read_timeout_is_invalid_input() {
        zero(
            "read_timeout",
            ServerConfig {
                read_timeout: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
    }

    #[test]
    fn zero_write_timeout_is_invalid_input() {
        zero(
            "write_timeout",
            ServerConfig {
                write_timeout: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
    }

    #[test]
    fn zero_keep_alive_timeout_is_invalid_input() {
        zero(
            "keep_alive_timeout",
            ServerConfig {
                keep_alive_timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
        );
    }
}
