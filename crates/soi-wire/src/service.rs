//! Service-side connection plumbing: a framed TCP listener for
//! long-lived daemons (`soi serve`), built on the same framing and error
//! taxonomy as the rank transport.
//!
//! What this adds over a bare `TcpListener`:
//!
//! * **Idle deadlines on the read side.** A server reader thread waits
//!   at most `idle` for the client's next frame; a stalled client
//!   surfaces as [`WireError::Timeout`] (op `"recv"`) and a dead one —
//!   EOF, reset, broken pipe — as [`WireError::PeerLost`]. Either way
//!   the reader thread gets its loop back instead of being pinned
//!   forever by a half-open connection.
//! * **A cloneable, locked writer half.** Responses are produced on an
//!   executor thread while rejections are produced on the reader
//!   thread; [`ServiceWriter`] serializes whole frames under one lock so
//!   the two never interleave bytes on the stream.
//! * **A shutdown token that wakes `accept`.** A blocking accept has no
//!   deadline; [`ShutdownToken::fire`] sets the stop flag and then pokes
//!   the listener with a throwaway self-connection so the accept loop
//!   observes the flag promptly instead of waiting for the next real
//!   client.

use crate::error::{classify_io, WireError};
use crate::frame::{read_frame_into, write_frame};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A framed service listener with a cooperative shutdown token.
#[derive(Debug)]
pub struct ServiceListener {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    op_timeout: Duration,
}

impl ServiceListener {
    /// Bind on `addr` (`host:0` picks a free port). `op_timeout` bounds
    /// every frame write on connections this listener accepts.
    pub fn bind(addr: &str, op_timeout: Duration) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| WireError::Bootstrap(format!("service bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| WireError::Bootstrap(format!("service local_addr: {e}")))?;
        Ok(Self {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            op_timeout,
        })
    }

    /// The bound address (resolved port included).
    pub fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    /// A token that unblocks [`Self::accept`] from any thread.
    pub fn shutdown_token(&self) -> ShutdownToken {
        ShutdownToken {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Block for the next client connection. Returns `Ok(None)` once the
    /// shutdown token has fired — including when the wake-up arrives as
    /// the token's own throwaway connection.
    pub fn accept(&self) -> Result<Option<ServiceConn>, WireError> {
        if self.stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let (stream, _) = self
            .listener
            .accept()
            .map_err(|e| WireError::Io(format!("service accept: {e}")))?;
        if self.stop.load(Ordering::SeqCst) {
            // The shutdown token's wake-up poke (or a client racing
            // the shutdown); either way, stop accepting.
            return Ok(None);
        }
        ServiceConn::new(stream, self.op_timeout).map(Some)
    }
}

/// Wakes a [`ServiceListener`] out of a blocking accept. Cloneable and
/// idempotent.
#[derive(Debug, Clone)]
pub struct ShutdownToken {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownToken {
    /// Set the stop flag and poke the listener awake.
    pub fn fire(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Best effort: if the listener is already gone the flag alone
        // suffices.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Whether the token has fired.
    pub fn fired(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The read half of one accepted connection, plus a handle to its
/// shared writer. Owned by the connection's reader thread.
#[derive(Debug)]
pub struct ServiceConn {
    read: TcpStream,
    writer: ServiceWriter,
    buf: Vec<u8>,
    idle: Option<Duration>,
}

impl ServiceConn {
    fn new(stream: TcpStream, op_timeout: Duration) -> Result<Self, WireError> {
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::Io(format!("service nodelay: {e}")))?;
        let write = stream
            .try_clone()
            .map_err(|e| WireError::Io(format!("service clone stream: {e}")))?;
        Ok(Self {
            read: stream,
            writer: ServiceWriter {
                stream: Arc::new(Mutex::new(write)),
                op_timeout,
            },
            buf: Vec::new(),
            idle: None,
        })
    }

    /// A cloneable writer for this connection (hand it to the executor).
    pub fn writer(&self) -> ServiceWriter {
        self.writer.clone()
    }

    /// Read the next frame, waiting at most `idle` for it to *start*
    /// arriving (and for each subsequent chunk). An idle or stalled
    /// client returns [`WireError::Timeout`]; a disconnected one
    /// [`WireError::PeerLost`]. The payload borrow is valid until the
    /// next call.
    pub fn read(&mut self, idle: Duration) -> Result<(u8, &[u8]), WireError> {
        let idle = idle.max(Duration::from_millis(1));
        if self.idle != Some(idle) {
            self.read
                .set_read_timeout(Some(idle))
                .map_err(|e| WireError::Io(format!("service read timeout: {e}")))?;
            self.idle = Some(idle);
        }
        let tag = read_frame_into(&mut self.read, &mut self.buf, None, idle)?;
        Ok((tag, self.buf.as_slice()))
    }
}

/// The locked write half of a connection: whole frames go out atomically
/// under the lock, so the reader thread (rejections, stats) and the
/// executor thread (responses) can both reply to one client.
#[derive(Debug, Clone)]
pub struct ServiceWriter {
    stream: Arc<Mutex<TcpStream>>,
    op_timeout: Duration,
}

impl ServiceWriter {
    /// Send one frame, bounded by the listener's `op_timeout`.
    pub fn send(&self, tag: u8, payload: &[u8]) -> Result<(), WireError> {
        let mut s = self.stream.lock().expect("service writer poisoned");
        s.set_write_timeout(Some(self.op_timeout))
            .map_err(|e| classify_io(e, None, "send", self.op_timeout))?;
        write_frame(&mut *s, tag, payload, None, self.op_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, TAG_DATA, TAG_RESULT};
    use std::time::Instant;

    const OP: Duration = Duration::from_secs(5);

    fn listener() -> ServiceListener {
        ServiceListener::bind("127.0.0.1:0", OP).unwrap()
    }

    #[test]
    fn frames_roundtrip_through_an_accepted_connection() {
        let l = listener();
        let addr = l.local_addr();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, TAG_DATA, b"ping", None, OP).unwrap();
            s.set_read_timeout(Some(OP)).unwrap();
            let (tag, payload) = read_frame(&mut s, None, OP).unwrap();
            assert_eq!((tag, payload.as_slice()), (TAG_RESULT, b"pong".as_slice()));
        });
        let mut conn = l.accept().unwrap().expect("one connection");
        let (tag, payload) = conn.read(OP).unwrap();
        assert_eq!((tag, payload), (TAG_DATA, b"ping".as_slice()));
        conn.writer().send(TAG_RESULT, b"pong").unwrap();
        client.join().unwrap();
    }

    #[test]
    fn idle_client_surfaces_as_timeout_not_a_pinned_thread() {
        let l = listener();
        let addr = l.local_addr();
        let _quiet = TcpStream::connect(addr).unwrap();
        let mut conn = l.accept().unwrap().expect("one connection");
        let t0 = Instant::now();
        let e = conn.read(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(e, WireError::Timeout { op: "recv", .. }), "{e}");
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn disconnected_client_surfaces_as_peer_lost() {
        let l = listener();
        let addr = l.local_addr();
        let c = TcpStream::connect(addr).unwrap();
        let mut conn = l.accept().unwrap().expect("one connection");
        drop(c); // clean close: zero-byte read at the header
        let e = conn.read(OP).unwrap_err();
        assert!(matches!(e, WireError::PeerLost { .. }), "{e}");
    }

    #[test]
    fn mid_frame_disconnect_is_peer_lost() {
        let l = listener();
        let addr = l.local_addr();
        let mut c = TcpStream::connect(addr).unwrap();
        let mut conn = l.accept().unwrap().expect("one connection");
        // Header promises 64 bytes; deliver 3 and vanish.
        let mut partial = vec![TAG_DATA];
        partial.extend_from_slice(&64u64.to_le_bytes());
        partial.extend_from_slice(b"abc");
        std::io::Write::write_all(&mut c, &partial).unwrap();
        drop(c);
        let e = conn.read(OP).unwrap_err();
        assert!(matches!(e, WireError::PeerLost { .. }), "{e}");
    }

    #[test]
    fn shutdown_token_unblocks_accept() {
        let l = listener();
        let token = l.shutdown_token();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.fire();
        });
        let t0 = Instant::now();
        assert!(l.accept().unwrap().is_none());
        assert!(t0.elapsed() < Duration::from_secs(5));
        waker.join().unwrap();
        // Once fired, accept keeps returning None without blocking.
        assert!(l.shutdown_token().fired());
        assert!(l.accept().unwrap().is_none());
    }
}
