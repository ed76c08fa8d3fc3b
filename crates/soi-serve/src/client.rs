//! Client side of the serve protocol: a blocking request/reply handle
//! plus a split mode for pipelined (open-loop) traffic.

use crate::proto::{
    Reject, Request, Response, StatsSnapshot, TAG_BYE, TAG_REJECT, TAG_REQUEST, TAG_RESPONSE,
    TAG_SHUTDOWN, TAG_STATS, TAG_STATS_REQUEST,
};
use soi_wire::frame::{read_frame_into, write_frame};
use soi_wire::WireError;
use std::net::TcpStream;
use std::time::Duration;

/// One frame from the server, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The requested bins.
    Ok(Response),
    /// A typed rejection.
    Rejected(Reject),
    /// A stats snapshot.
    Stats(StatsSnapshot),
    /// The server's goodbye (shutdown ack).
    Bye,
}

fn decode_reply(tag: u8, payload: &[u8]) -> Result<Reply, WireError> {
    match tag {
        TAG_RESPONSE => Ok(Reply::Ok(Response::decode(payload)?)),
        TAG_REJECT => Ok(Reply::Rejected(Reject::decode(payload)?)),
        TAG_STATS => Ok(Reply::Stats(StatsSnapshot::decode(payload)?)),
        TAG_BYE => Ok(Reply::Bye),
        other => Err(WireError::Protocol(format!(
            "unexpected reply tag {other:#04x}"
        ))),
    }
}

/// A blocking connection to a serve daemon.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Duration,
}

impl ServeClient {
    /// Connect to `addr`; `timeout` bounds every send and receive.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| WireError::Bootstrap(format!("serve connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::Io(format!("serve client nodelay: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| WireError::Io(format!("serve client read timeout: {e}")))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| WireError::Io(format!("serve client write timeout: {e}")))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            timeout,
        })
    }

    /// Fire a request without waiting for the reply (pipelining).
    pub fn send_request(&mut self, req: &Request) -> Result<(), WireError> {
        write_frame(&mut self.stream, TAG_REQUEST, &req.encode(), None, self.timeout)
    }

    /// Receive the next reply frame (responses come back in request
    /// order, but an admission reject can overtake them; correlate by id).
    pub fn recv(&mut self) -> Result<Reply, WireError> {
        let tag = read_frame_into(&mut self.stream, &mut self.buf, None, self.timeout)?;
        decode_reply(tag, &self.buf)
    }

    /// Send one request and wait for one reply.
    pub fn call(&mut self, req: &Request) -> Result<Reply, WireError> {
        self.send_request(req)?;
        self.recv()
    }

    /// Fetch a stats snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        write_frame(&mut self.stream, TAG_STATS_REQUEST, &[], None, self.timeout)?;
        match self.recv()? {
            Reply::Stats(s) => Ok(s),
            other => Err(WireError::Protocol(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain and exit; waits for the BYE ack.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        write_frame(&mut self.stream, TAG_SHUTDOWN, &[], None, self.timeout)?;
        loop {
            // Drain any still-in-flight replies until the ack.
            match self.recv()? {
                Reply::Bye => return Ok(()),
                _ => continue,
            }
        }
    }

    /// Clean goodbye: the server releases the connection without
    /// counting a lost peer.
    pub fn bye(&mut self) -> Result<(), WireError> {
        write_frame(&mut self.stream, TAG_BYE, &[], None, self.timeout)
    }

    /// Split into independently owned send and receive halves so one
    /// thread can keep offering load while another drains replies — the
    /// open-loop shape the latency bench needs.
    pub fn split(self) -> Result<(RequestSink, ReplyStream), WireError> {
        let write = self
            .stream
            .try_clone()
            .map_err(|e| WireError::Io(format!("serve client clone stream: {e}")))?;
        Ok((
            RequestSink {
                stream: write,
                timeout: self.timeout,
            },
            ReplyStream {
                stream: self.stream,
                buf: self.buf,
                timeout: self.timeout,
            },
        ))
    }
}

/// The send half of a split client.
#[derive(Debug)]
pub struct RequestSink {
    stream: TcpStream,
    timeout: Duration,
}

impl RequestSink {
    /// Fire a request.
    pub fn send_request(&mut self, req: &Request) -> Result<(), WireError> {
        write_frame(&mut self.stream, TAG_REQUEST, &req.encode(), None, self.timeout)
    }

    /// Clean goodbye (after the receive half has drained).
    pub fn bye(&mut self) -> Result<(), WireError> {
        write_frame(&mut self.stream, TAG_BYE, &[], None, self.timeout)
    }
}

/// The receive half of a split client.
#[derive(Debug)]
pub struct ReplyStream {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Duration,
}

impl ReplyStream {
    /// Receive the next reply frame.
    pub fn recv(&mut self) -> Result<Reply, WireError> {
        let tag = read_frame_into(&mut self.stream, &mut self.buf, None, self.timeout)?;
        decode_reply(tag, &self.buf)
    }
}
