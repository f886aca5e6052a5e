//! The CoServe wire protocol.
//!
//! A deliberately small binary protocol in the Pelikan `pingserver`
//! tradition: every message is one **length-prefixed frame** — a
//! little-endian `u32` payload length followed by the payload, whose
//! first byte is the opcode. Requests use opcodes `0x01..=0x06`,
//! responses echo the request opcode with the high bit set
//! (`0x81..=0x86`), and `0xFF` is the error response. Integers are
//! little-endian; strings are UTF-8 with a length prefix; simulation
//! times travel as nanoseconds.
//!
//! The protocol maps 1:1 onto the re-entrant engine session API
//! (`EngineSession`): `Submit` is `submit`, `Pump` is
//! `pump`/`pump_until`, `Poll` is `drain_completions` filtered to the
//! calling connection, `Stats` is a live `RunSnapshot`. See
//! `PROTOCOL.md` for the byte-level layout and a worked example.

use std::fmt;
use std::io::{self, Read, Write};

use coserve_core::engine::{Completion, CompletionStatus};
use coserve_model::expert::ExpertId;
use coserve_sim::time::{SimSpan, SimTime};

/// Frames larger than this are rejected before allocation — nothing
/// the protocol expresses comes close (the largest legitimate frame is
/// a `Stats` JSON body of a few KiB).
pub const MAX_FRAME: usize = 1 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens the session handshake: the server answers with the
    /// connection id and the serving system's identity.
    Hello,
    /// Submits one request chain arriving at `arrival` (floored to the
    /// engine's current simulation time if already past).
    Submit {
        /// Simulated arrival time.
        arrival: SimTime,
        /// The expert chain, in execution order.
        stages: Vec<ExpertId>,
    },
    /// Drains the calling connection's finished completions.
    Poll,
    /// Advances the shared engine: processes every pending event
    /// strictly before `limit`, or all of them when `limit` is `None`.
    Pump {
        /// Exclusive simulation-time watermark (`None` = drain).
        limit: Option<SimTime>,
    },
    /// Ends the session for this connection (queued completions for it
    /// are discarded).
    Finish,
    /// Requests a live `RunSnapshot` of the shared engine as JSON.
    Stats,
}

/// One finished job as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCompletion {
    /// The job id `Submit` returned.
    pub job: u32,
    /// How the job ended.
    pub status: CompletionStatus,
    /// When it ended (simulation time).
    pub finished_at: SimTime,
    /// End-to-end latency (zero for admission drops).
    pub latency: SimSpan,
}

impl From<Completion> for WireCompletion {
    fn from(c: Completion) -> Self {
        WireCompletion {
            job: c.job,
            status: c.status,
            finished_at: c.finished_at,
            latency: c.latency,
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// The server-assigned connection id.
        conn: u32,
        /// Experts in the served model.
        num_experts: u32,
        /// The serving system's name (e.g. `CoServe`).
        system: String,
    },
    /// The submitted job's id (unique across the whole session).
    Submit {
        /// Engine-assigned job id.
        job: u32,
    },
    /// The connection's finished jobs since its last poll.
    Poll {
        /// Completions in finish order.
        completions: Vec<WireCompletion>,
    },
    /// Pump outcome.
    Pump {
        /// Events processed by this pump.
        processed: u64,
        /// Simulation time after the pump.
        now: SimTime,
        /// Events still pending.
        pending: u32,
    },
    /// Connection closed; how many remain open.
    Finish {
        /// Connections still open after this one closed.
        open_conns: u32,
    },
    /// Live engine snapshot.
    Stats {
        /// `RunSnapshot` as JSON.
        json: String,
    },
    /// The server is saturated and shed this `Submit` at admission
    /// (graceful degradation, not an error): nothing was enqueued, and
    /// the client should back off at least `retry_after` of simulation
    /// time before retrying.
    Busy {
        /// Suggested minimum backoff before the retry.
        retry_after: SimSpan,
    },
    /// Request failed.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Error classes the server reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame decoded but the request was not valid now (e.g.
    /// `Submit` before `Hello`).
    BadRequest = 1,
    /// The submitted chain was rejected by the engine.
    Rejected = 2,
    /// The server is shutting down.
    Shutdown = 3,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::Rejected),
            3 => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// --- opcode bytes ---

const OP_HELLO: u8 = 0x01;
const OP_SUBMIT: u8 = 0x02;
const OP_POLL: u8 = 0x03;
const OP_PUMP: u8 = 0x04;
const OP_FINISH: u8 = 0x05;
const OP_STATS: u8 = 0x06;
/// `Busy` is response-only (there is no 0x07 request); on the wire it
/// travels as `RESP | OP_BUSY` = `0x87`.
const OP_BUSY: u8 = 0x07;
const RESP: u8 = 0x80;
const OP_ERROR: u8 = 0xFF;

const STATUS_COMPLETED: u8 = 0;
const STATUS_FAILED: u8 = 1;
const STATUS_DROPPED: u8 = 2;

fn status_byte(s: CompletionStatus) -> u8 {
    match s {
        CompletionStatus::Completed => STATUS_COMPLETED,
        CompletionStatus::Failed => STATUS_FAILED,
        CompletionStatus::Dropped => STATUS_DROPPED,
    }
}

fn status_from(v: u8) -> Result<CompletionStatus, ProtocolError> {
    match v {
        STATUS_COMPLETED => Ok(CompletionStatus::Completed),
        STATUS_FAILED => Ok(CompletionStatus::Failed),
        STATUS_DROPPED => Ok(CompletionStatus::Dropped),
        other => Err(ProtocolError(format!("unknown completion status {other}"))),
    }
}

// --- little-endian cursor helpers ---

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let slice = end
            .and_then(|end| self.buf.get(self.at..end))
            .ok_or_else(|| ProtocolError(format!("truncated payload (wanted {n} more bytes)")))?;
        self.at = self.at.saturating_add(n);
        Ok(slice)
    }

    /// Takes exactly `N` bytes as a fixed-size array, so the
    /// `from_le_bytes` readers below need no fallible conversion.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or_else(|| ProtocolError(format!("truncated payload (wanted {N} bytes)")))
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.array::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError("invalid UTF-8".into()))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a request payload (opcode + body, without the frame length).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello => out.push(OP_HELLO),
        Request::Submit { arrival, stages } => {
            out.push(OP_SUBMIT);
            out.extend_from_slice(&arrival.nanos().to_le_bytes());
            out.extend_from_slice(&(stages.len() as u16).to_le_bytes());
            for e in stages {
                out.extend_from_slice(&e.0.to_le_bytes());
            }
        }
        Request::Poll => out.push(OP_POLL),
        Request::Pump { limit } => {
            out.push(OP_PUMP);
            match limit {
                Some(t) => {
                    out.push(1);
                    out.extend_from_slice(&t.nanos().to_le_bytes());
                }
                None => out.push(0),
            }
        }
        Request::Finish => out.push(OP_FINISH),
        Request::Stats => out.push(OP_STATS),
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// Returns [`ProtocolError`] on an unknown opcode, a truncated body or
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_HELLO => Request::Hello,
        OP_SUBMIT => {
            let arrival = SimTime::from_nanos(c.u64()?);
            let n = c.u16()? as usize;
            let mut stages = Vec::with_capacity(n);
            for _ in 0..n {
                stages.push(ExpertId(c.u32()?));
            }
            Request::Submit { arrival, stages }
        }
        OP_POLL => Request::Poll,
        OP_PUMP => {
            let limit = match c.u8()? {
                0 => None,
                1 => Some(SimTime::from_nanos(c.u64()?)),
                other => return Err(ProtocolError(format!("bad pump limit flag {other}"))),
            };
            Request::Pump { limit }
        }
        OP_FINISH => Request::Finish,
        OP_STATS => Request::Stats,
        op => return Err(ProtocolError(format!("unknown request opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response payload (opcode + body, without the frame
/// length).
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Hello {
            conn,
            num_experts,
            system,
        } => {
            out.push(RESP | OP_HELLO);
            out.extend_from_slice(&conn.to_le_bytes());
            out.extend_from_slice(&num_experts.to_le_bytes());
            put_string(&mut out, system);
        }
        Response::Submit { job } => {
            out.push(RESP | OP_SUBMIT);
            out.extend_from_slice(&job.to_le_bytes());
        }
        Response::Poll { completions } => {
            out.push(RESP | OP_POLL);
            out.extend_from_slice(&(completions.len() as u32).to_le_bytes());
            for c in completions {
                out.extend_from_slice(&c.job.to_le_bytes());
                out.push(status_byte(c.status));
                out.extend_from_slice(&c.finished_at.nanos().to_le_bytes());
                out.extend_from_slice(&c.latency.nanos().to_le_bytes());
            }
        }
        Response::Pump {
            processed,
            now,
            pending,
        } => {
            out.push(RESP | OP_PUMP);
            out.extend_from_slice(&processed.to_le_bytes());
            out.extend_from_slice(&now.nanos().to_le_bytes());
            out.extend_from_slice(&pending.to_le_bytes());
        }
        Response::Finish { open_conns } => {
            out.push(RESP | OP_FINISH);
            out.extend_from_slice(&open_conns.to_le_bytes());
        }
        Response::Stats { json } => {
            out.push(RESP | OP_STATS);
            put_string(&mut out, json);
        }
        Response::Busy { retry_after } => {
            out.push(RESP | OP_BUSY);
            out.extend_from_slice(&retry_after.nanos().to_le_bytes());
        }
        Response::Error { code, message } => {
            out.push(OP_ERROR);
            out.push(*code as u8);
            put_string(&mut out, message);
        }
    }
    out
}

/// Decodes a response payload.
///
/// # Errors
///
/// Returns [`ProtocolError`] on an unknown opcode, a truncated body or
/// trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        op if op == RESP | OP_HELLO => Response::Hello {
            conn: c.u32()?,
            num_experts: c.u32()?,
            system: c.string()?,
        },
        op if op == RESP | OP_SUBMIT => Response::Submit { job: c.u32()? },
        op if op == RESP | OP_POLL => {
            let n = c.u32()? as usize;
            if n > MAX_FRAME / 21 {
                return Err(ProtocolError(format!("completion count {n} too large")));
            }
            let mut completions = Vec::with_capacity(n);
            for _ in 0..n {
                completions.push(WireCompletion {
                    job: c.u32()?,
                    status: status_from(c.u8()?)?,
                    finished_at: SimTime::from_nanos(c.u64()?),
                    latency: SimSpan::from_nanos(c.u64()?),
                });
            }
            Response::Poll { completions }
        }
        op if op == RESP | OP_PUMP => Response::Pump {
            processed: c.u64()?,
            now: SimTime::from_nanos(c.u64()?),
            pending: c.u32()?,
        },
        op if op == RESP | OP_FINISH => Response::Finish {
            open_conns: c.u32()?,
        },
        op if op == RESP | OP_STATS => Response::Stats { json: c.string()? },
        op if op == RESP | OP_BUSY => Response::Busy {
            retry_after: SimSpan::from_nanos(c.u64()?),
        },
        OP_ERROR => {
            let code = c.u8()?;
            let code = ErrorCode::from_u8(code)
                .ok_or_else(|| ProtocolError(format!("unknown error code {code}")))?;
            Response::Error {
                code,
                message: c.string()?,
            }
        }
        op => return Err(ProtocolError(format!("unknown response opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(resp)
}

/// Writes one frame (length prefix + payload) to `w` with a single
/// `write_all`, so a frame written straight to a socket costs one
/// syscall rather than one for the prefix and one for the payload.
/// Writing into a `Vec<u8>` instead batches frames: the server frames
/// every answer to one read into its connection's output buffer and
/// sends them together.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError(format!("frame of {} bytes too large", payload.len())).into());
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from `r`, blocking until it is complete. Returns
/// `None` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; an EOF mid-frame or an oversized length
/// prefix is [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(n) => match len.get_mut(n..) {
            Some(rest) => r.read_exact(rest)?,
            None => return Err(ProtocolError("short read overran prefix".into()).into()),
        },
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError(format!("frame length {len} exceeds MAX_FRAME")).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// An incremental frame splitter: feed it raw socket bytes, take
/// complete frames out. This is the per-session receive buffer of the
/// worker loop — reads can stop at arbitrary byte boundaries (short
/// reads, read timeouts used to poll the shutdown flag) without
/// corrupting the framing.
///
/// Taking a frame only advances a read offset; the consumed bytes are
/// dropped once per [`FrameBuffer::extend`], so splitting one read of
/// `n` frames moves each byte at most once rather than `n` times.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already taken as frames.
    taken: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.taken);
        self.taken = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame's payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the buffered length prefix
    /// exceeds [`MAX_FRAME`] (the connection should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let rest = self.buf.get(self.taken..).unwrap_or_default();
        let Some(prefix) = rest.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(ProtocolError(format!(
                "frame length {len} exceeds MAX_FRAME"
            )));
        }
        let Some(payload) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.taken += 4 + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FrameBuffer {
        /// Bytes buffered but not yet consumed.
        fn pending_bytes(&self) -> usize {
            self.buf.len() - self.taken
        }
    }

    fn round_trip_request(req: &Request) {
        let payload = encode_request(req);
        assert_eq!(&decode_request(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: &Response) {
        let payload = encode_response(resp);
        assert_eq!(&decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn fixed_round_trips() {
        round_trip_request(&Request::Hello);
        round_trip_request(&Request::Poll);
        round_trip_request(&Request::Pump { limit: None });
        round_trip_request(&Request::Pump {
            limit: Some(SimTime::from_nanos(123_456_789)),
        });
        round_trip_request(&Request::Finish);
        round_trip_request(&Request::Stats);
        round_trip_response(&Response::Hello {
            conn: 3,
            num_experts: 361,
            system: "CoServe".into(),
        });
        round_trip_response(&Response::Submit { job: 41 });
        round_trip_response(&Response::Pump {
            processed: 10,
            now: SimTime::from_nanos(5),
            pending: 0,
        });
        round_trip_response(&Response::Finish { open_conns: 0 });
        round_trip_response(&Response::Stats {
            json: "{\"completed\":1}".into(),
        });
        round_trip_response(&Response::Busy {
            retry_after: SimSpan::from_millis(8),
        });
        round_trip_response(&Response::Error {
            code: ErrorCode::Rejected,
            message: "unknown expert".into(),
        });
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x42]).is_err());
        assert!(decode_request(&[OP_SUBMIT, 1, 2]).is_err());
        let mut ok = encode_request(&Request::Hello);
        ok.push(0); // trailing byte
        assert!(decode_request(&ok).is_err());
        assert!(decode_response(&[OP_ERROR, 200]).is_err());
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let a = encode_request(&Request::Submit {
            arrival: SimTime::from_nanos(77),
            stages: vec![ExpertId(1), ExpertId(2), ExpertId(3)],
        });
        let b = encode_request(&Request::Poll);
        let mut wire = Vec::new();
        for payload in [&a, &b] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for byte in wire {
            fb.extend(&[byte]);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![a, b]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn one_extend_of_many_frames_splits_in_order() {
        let payloads: Vec<Vec<u8>> = (0..512u32)
            .map(|i| {
                encode_request(&Request::Submit {
                    arrival: SimTime::from_nanos(u64::from(i)),
                    stages: vec![ExpertId(i), ExpertId(i + 1)],
                })
            })
            .collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let mut frames = Vec::new();
        while let Some(f) = fb.next_frame().unwrap() {
            frames.push(f);
        }
        assert_eq!(frames, payloads);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame().is_err());
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
    }

    #[test]
    fn read_write_frame_round_trips() {
        let payload = encode_request(&Request::Stats);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn submit_round_trips(
            arrival in any::<u64>(),
            stages in proptest::collection::vec(0u32..1_000_000, 0..32),
        ) {
            let req = Request::Submit {
                arrival: SimTime::from_nanos(arrival),
                stages: stages.into_iter().map(ExpertId).collect(),
            };
            let payload = encode_request(&req);
            prop_assert_eq!(decode_request(&payload).unwrap(), req);
        }

        #[test]
        fn poll_round_trips(
            jobs in proptest::collection::vec((any::<u32>(), 0u8..3, any::<u64>(), any::<u64>()), 0..64),
        ) {
            let completions: Vec<WireCompletion> = jobs
                .into_iter()
                .map(|(job, status, at, lat)| WireCompletion {
                    job,
                    status: status_from(status).unwrap(),
                    finished_at: SimTime::from_nanos(at),
                    latency: SimSpan::from_nanos(lat),
                })
                .collect();
            let resp = Response::Poll { completions };
            let payload = encode_response(&resp);
            prop_assert_eq!(decode_response(&payload).unwrap(), resp);
        }

        #[test]
        fn fuzzed_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
    }
}
