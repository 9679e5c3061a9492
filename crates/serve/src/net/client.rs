//! A std-only blocking `BIQP` client with optional pipelining.
//!
//! One [`NetClient`] owns one TCP connection. The simple path is
//! [`NetClient::request`] (send one, wait for its answer); load
//! generators use [`NetClient::send`] / [`NetClient::recv`] to keep many
//! requests in flight on the same connection — the server answers a
//! connection's requests in submission order, correlated by `req_id`.

use crate::net::wire::{self, Message, OpInfo, RejectCode, WireError};
use biq_matrix::{ColMatrix, Matrix};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// Transport or codec failure (the connection is unusable).
    Wire(WireError),
    /// The server answered with a reject frame; `Busy` is retryable.
    Rejected {
        /// The request's correlation id.
        req_id: u64,
        /// Why.
        code: RejectCode,
        /// Server-side detail.
        msg: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::Rejected { code, msg, .. } => write!(f, "rejected ({code}): {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Wire(WireError::Io(e))
    }
}

/// What [`NetClient::recv`] resolves a pipelined request to.
#[derive(Debug)]
pub enum Outcome {
    /// The request's `m × cols` row-major result.
    Reply(Matrix),
    /// The request was refused; [`RejectCode::Busy`] is retryable.
    Rejected {
        /// Why.
        code: RejectCode,
        /// Server-side detail.
        msg: String,
    },
}

/// One connection to a [`crate::net::NetServer`].
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    /// Reused frame-encode scratch: steady-state sends allocate nothing.
    scratch: Vec<u8>,
}

impl NetClient {
    /// Connects to a serving daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream, next_id: 1, scratch: Vec::new() })
    }

    /// The peer address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Asks the server for a live metrics snapshot (the `Stats` admin
    /// verb). Answered from the daemon's counters without touching a
    /// worker, so it is safe to poll while a load test is in flight.
    pub fn stats(&mut self) -> Result<Vec<biq_obs::Sample>, NetError> {
        self.call(&Message::Stats, |m| match m {
            Message::StatsReply(samples) => Ok(samples),
            other => Err(other),
        })
    }

    /// Asks the server for its rolling per-interval time-series (the
    /// `History` admin verb): one point per sampling tick, oldest first.
    /// `max_points == 0` asks for every retained point. Answered from the
    /// daemon's series ring without touching a worker.
    pub fn history(&mut self, max_points: u16) -> Result<Vec<biq_obs::SeriesPoint>, NetError> {
        self.call(&Message::History { max_points }, |m| match m {
            Message::HistoryReply(points) => Ok(points),
            other => Err(other),
        })
    }

    /// Asks the server for its slowest-request records (the `SlowLog`
    /// admin verb), slowest first, each with its full phase breakdown.
    /// `max == 0` asks for the whole reservoir.
    pub fn slow_log(&mut self, max: u16) -> Result<Vec<biq_obs::SlowHit>, NetError> {
        self.call(&Message::SlowLog { max }, |m| match m {
            Message::SlowLogReply(hits) => Ok(hits),
            other => Err(other),
        })
    }

    /// Asks the daemon to load (or swap) the BIQM artifact at `path` —
    /// a path on the **daemon's** filesystem — under `name` (the
    /// `LoadModel` admin verb). Returns the resulting
    /// [`Message::ModelLoaded`] fields `(version, mem_bytes, ops,
    /// evicted)`. Refusals (bad artifact, op collision, memory budget)
    /// come back as [`NetError::Rejected`] with
    /// [`RejectCode::Refused`]; the connection stays usable.
    pub fn load_model(
        &mut self,
        name: &str,
        path: &str,
    ) -> Result<(u32, u64, u32, Vec<String>), NetError> {
        self.call(&Message::LoadModel { name: name.into(), path: path.into() }, |m| match m {
            Message::ModelLoaded { version, mem_bytes, ops, evicted, .. } => {
                Ok((version, mem_bytes, ops, evicted))
            }
            other => Err(other),
        })
    }

    /// Asks the daemon to retire a model version online (the
    /// `UnloadModel` admin verb); `version == 0` retires the live
    /// version. Returns `(version retired, ops retired)`. In-flight
    /// requests against the retired version still complete
    /// (drain-on-retire).
    pub fn unload_model(&mut self, name: &str, version: u32) -> Result<(u32, u32), NetError> {
        self.call(&Message::UnloadModel { name: name.into(), version }, |m| match m {
            Message::ModelUnloaded { version, ops_retired, .. } => Ok((version, ops_retired)),
            other => Err(other),
        })
    }

    /// Asks the daemon for its model table (the `ListModels` admin verb):
    /// every version the registry knows, live first, with memory and
    /// traffic accounting per row.
    pub fn list_models(&mut self) -> Result<Vec<wire::ModelInfo>, NetError> {
        self.call(&Message::ListModels, |m| match m {
            Message::ModelList(models) => Ok(models),
            other => Err(other),
        })
    }

    /// Asks the server for its op table.
    pub fn list_ops(&mut self) -> Result<Vec<OpInfo>, NetError> {
        self.call(&Message::ListOps, |m| match m {
            Message::OpList(ops) => Ok(ops),
            other => Err(other),
        })
    }

    /// Sends a request without waiting; returns its `req_id`. Answers
    /// arrive in submission order via [`NetClient::recv`]. Inputs beyond
    /// the wire caps ([`wire::MAX_ROWS`]/[`wire::MAX_COLS`], op names
    /// beyond [`wire::MAX_NAME`]) error here instead of panicking in the
    /// encoder.
    pub fn send(&mut self, op: &str, x: &ColMatrix) -> Result<u64, NetError> {
        if x.rows() > wire::MAX_ROWS || x.cols() > wire::MAX_COLS {
            return Err(NetError::Wire(WireError::Malformed(format!(
                "request shape {}x{} exceeds the wire caps ({}x{})",
                x.rows(),
                x.cols(),
                wire::MAX_ROWS,
                wire::MAX_COLS,
            ))));
        }
        // Both dimensions can be under their caps while the payload blows
        // the frame budget; the fixed body overhead (req_id + name-length
        // + rows + cols = 16 bytes) plus the name rides along.
        let body = x.rows().saturating_mul(x.cols()).saturating_mul(4) + op.len() + 16;
        if body > wire::MAX_BODY {
            return Err(NetError::Wire(WireError::Malformed(format!(
                "request payload of {body} bytes exceeds the {} byte frame cap; \
                 send fewer columns",
                wire::MAX_BODY,
            ))));
        }
        if op.len() > wire::MAX_NAME {
            return Err(NetError::Wire(WireError::Malformed(format!(
                "op name of {} bytes exceeds the wire cap ({})",
                op.len(),
                wire::MAX_NAME,
            ))));
        }
        let req_id = self.next_id;
        self.next_id += 1;
        // Borrow the caller's matrix and name directly into the scratch
        // frame — no owned `Message`, no per-send allocation.
        let (rows, cols) = (x.rows() as u32, x.cols() as u16);
        wire::encode_request_into(&mut self.scratch, req_id, op, rows, cols, x.as_slice());
        self.stream.write_all(&self.scratch)?;
        Ok(req_id)
    }

    /// Receives the next answer frame: `(req_id, outcome)`.
    pub fn recv(&mut self) -> Result<(u64, Outcome), NetError> {
        match wire::read_message(&mut self.stream)? {
            Message::Reply { req_id, rows, cols, data } => {
                Ok((req_id, Outcome::Reply(Matrix::from_vec(rows as usize, cols as usize, data))))
            }
            Message::Reject { req_id, code, msg } => Ok((req_id, Outcome::Rejected { code, msg })),
            other => Err(unexpected(&other)),
        }
    }

    /// One blocking round trip: the op's `W·X` for this request.
    pub fn request(&mut self, op: &str, x: &ColMatrix) -> Result<Matrix, NetError> {
        let sent = self.send(op, x)?;
        let (req_id, outcome) = self.recv()?;
        if req_id != sent {
            return Err(NetError::Wire(WireError::Malformed(format!(
                "answer for request {req_id}, expected {sent}"
            ))));
        }
        match outcome {
            Outcome::Reply(y) => Ok(y),
            Outcome::Rejected { code, msg } => Err(NetError::Rejected { req_id, code, msg }),
        }
    }

    /// One admin round trip; a `Reject` answer is [`NetError::Rejected`].
    fn call<T>(&mut self, msg: &Message, answer: Answer<T>) -> Result<T, NetError> {
        wire::encode_into(&mut self.scratch, msg);
        self.stream.write_all(&self.scratch)?;
        match wire::read_message(&mut self.stream)? {
            Message::Reject { req_id, code, msg } => Err(NetError::Rejected { req_id, code, msg }),
            other => answer(other).map_err(|m| unexpected(&m)),
        }
    }
}

/// Takes the expected reply kind apart, handing any other kind back.
type Answer<T> = fn(Message) -> Result<T, Message>;

fn unexpected(msg: &Message) -> NetError {
    let kind = wire::kind_name(msg);
    NetError::Wire(WireError::Malformed(format!("unexpected {kind} frame from server")))
}
