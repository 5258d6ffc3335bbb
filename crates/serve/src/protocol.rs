//! The hydra-serve wire protocol.
//!
//! A deliberately small, length-prefixed, little-endian binary protocol —
//! the serving twin of the snapshot container. Frames reuse the
//! `hydra-persist` codec primitives ([`Section`] to build payloads,
//! [`SectionReader`] to parse them), inheriting their never-panic decoding
//! guarantees: a malformed input of any shape maps to a typed
//! [`ProtocolError`], never a panic, a hang, or a partial answer.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HSRQ" (request) / b"HSRP" (response)
//! 4       2     protocol version (u16, currently 1)
//! 6       4     payload length P (u32, at most MAX_FRAME_LEN)
//! 10      P     payload (Section-encoded, see below)
//! ```
//!
//! A reader validates magic, version and the declared length **before**
//! allocating or waiting for payload bytes, so a hostile length field can
//! neither trigger a huge allocation nor stall a connection forever
//! ([`ProtocolError::FrameTooLarge`]).
//!
//! ## Request payloads
//!
//! ```text
//! u64 request id            (echoed verbatim in the response; 0 is
//!                            reserved for protocol-level error responses
//!                            and rejected as corrupt in requests)
//! u8  op                    0 = query, 1 = list indexes, 2 = shutdown,
//!                           3 = reload snapshots, 4 = stats scrape
//! -- op 0 (query) only --
//! str index name            (u16 length + UTF-8)
//! u64 k                     (1 ..= MAX_K)
//! u8  mode tag              0 exact, 1 ng, 2 ε, 3 δ-ε
//! ..  mode knobs            ng: u64 nprobe · ε: f32 · δ-ε: f32 ε, f32 δ
//! f32s query values         (u64 count prefix, bit patterns)
//! ```
//!
//! ## Response payloads
//!
//! ```text
//! u64 request id
//! u8  status                0 = answer, 1 = error, 2 = index list,
//!                           3 = shutdown ack, 4 = reload ack,
//!                           5 = stats snapshot
//! -- status 0 --            u64 count, then per neighbor u64 index + f32
//!                           distance (bit pattern — answers are exact to
//!                           the bit, so serving can be diffed against the
//!                           offline runner)
//! -- status 1 --            u8 error code (1 unknown index, 2 search
//!                           error, 3 protocol error, 4 shard worker
//!                           unavailable), str message
//! -- status 2 --            u64 count, then per index: str name, str
//!                           method, u64 series count, u64 series length,
//!                           u8 capability bits (1 exact, 2 ng, 4 ε,
//!                           8 δ-ε, 16 disk-resident, 32 streaming-insert)
//! -- status 4 --            u64 epoch now being served
//! -- status 5 --            UTF-8 metrics text in the Prometheus
//!                           exposition format, as a u64 byte count +
//!                           raw bytes (not the u16-length str codec —
//!                           a busy server's scrape easily exceeds
//!                           64 KiB)
//! ```
//!
//! Trailing bytes after any payload are [`ProtocolError::Corrupt`] — a
//! frame says exactly what it means or it is rejected.

use std::io::{Read, Write};

use hydra::core::{Capabilities, Representation};
use hydra::persist::{PersistError, Section, SectionReader};
use hydra::{Neighbor, SearchMode, SearchParams};

/// Magic bytes opening every request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"HSRQ";
/// Magic bytes opening every response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"HSRP";
/// The single protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Upper bound on a frame's declared payload length (16 MiB). Checked
/// before any allocation or payload read.
pub const MAX_FRAME_LEN: u32 = 1 << 24;
/// Upper bound on the `k` a query may request — large enough for any
/// plausible workload, small enough that a hostile frame cannot make the
/// answer heap allocate unboundedly.
pub const MAX_K: u64 = 1 << 20;

/// Every way a wire frame can be unusable. Mirrors the snapshot layer's
/// philosophy: each failure mode is distinguishable, and none panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame does not start with the expected magic bytes.
    BadMagic {
        /// The four bytes found.
        found: [u8; 4],
        /// The magic expected in this direction.
        expected: [u8; 4],
    },
    /// The frame was produced by a different (usually future) protocol
    /// version.
    VersionMismatch {
        /// Version found in the frame header.
        found: u16,
        /// The single version this build speaks.
        supported: u16,
    },
    /// The header declares a payload larger than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The stream ended inside a frame (or a payload field asks for more
    /// bytes than the payload holds).
    Truncated,
    /// The bytes decode but describe an impossible value (unknown op or
    /// mode tag, invalid UTF-8, `k` out of range, trailing bytes).
    Corrupt(String),
    /// An operating-system I/O failure on the underlying stream.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic { found, expected } => write!(
                f,
                "bad frame magic {found:?} (expected {:?})",
                std::str::from_utf8(expected).unwrap_or("?")
            ),
            ProtocolError::VersionMismatch { found, supported } => write!(
                f,
                "protocol version {found} is not supported (this build speaks version {supported})"
            ),
            ProtocolError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds the maximum {max}")
            }
            ProtocolError::Truncated => write!(f, "frame is truncated"),
            ProtocolError::Corrupt(msg) => write!(f, "frame is corrupt: {msg}"),
            ProtocolError::Io(msg) => write!(f, "stream I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e.to_string())
        }
    }
}

/// Payload decoding reuses the snapshot section readers, whose two failure
/// modes map one-to-one onto wire failures.
impl From<PersistError> for ProtocolError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Truncated => ProtocolError::Truncated,
            PersistError::Corrupt(msg) => ProtocolError::Corrupt(msg),
            // SectionReader getters produce only the two variants above;
            // anything else would be a codec-layer bug surfacing loudly.
            other => ProtocolError::Corrupt(other.to_string()),
        }
    }
}

/// Convenience alias for protocol operations.
pub type Result<T> = std::result::Result<T, ProtocolError>;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a k-NN query against one served index.
    Query {
        /// Client-chosen id echoed in the response. Must be non-zero —
        /// 0 is reserved for protocol-level error responses, and servers
        /// reject it as corrupt.
        request_id: u64,
        /// Name of the served index (as listed by [`Request::ListIndexes`]).
        index: String,
        /// Search parameters (k, guarantee mode, knobs).
        params: SearchParams,
        /// The query series.
        query: Vec<f32>,
    },
    /// List every served index with its capabilities.
    ListIndexes {
        /// Client-chosen id echoed in the response.
        request_id: u64,
    },
    /// Ask the server to stop accepting connections and exit cleanly once
    /// in-flight work has drained.
    Shutdown {
        /// Client-chosen id echoed in the response.
        request_id: u64,
    },
    /// Ask the server to reload its snapshot directory and atomically swap
    /// the served index set to the fresh epoch. In-flight and concurrent
    /// queries keep answering — each against one coherent epoch.
    Reload {
        /// Client-chosen id echoed in the response.
        request_id: u64,
    },
    /// Ask for a point-in-time snapshot of the server's (or router's)
    /// metrics registry, answered as Prometheus exposition text. A
    /// scrape is pure observation: it never perturbs the counters it
    /// reads and never touches the query path.
    Stats {
        /// Client-chosen id echoed in the response.
        request_id: u64,
    },
}

impl Request {
    /// The client-chosen request id.
    pub fn request_id(&self) -> u64 {
        match self {
            Request::Query { request_id, .. }
            | Request::ListIndexes { request_id }
            | Request::Shutdown { request_id }
            | Request::Reload { request_id }
            | Request::Stats { request_id } => *request_id,
        }
    }

    /// Encodes the request as a complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut s = Section::new();
        s.put_u64(self.request_id());
        match self {
            Request::Query {
                index,
                params,
                query,
                ..
            } => {
                s.put_u8(0);
                s.put_str(index);
                s.put_u64(params.k as u64);
                match params.mode {
                    SearchMode::Exact => s.put_u8(0),
                    SearchMode::Ng { nprobe } => {
                        s.put_u8(1);
                        s.put_u64(nprobe as u64);
                    }
                    SearchMode::Epsilon { epsilon } => {
                        s.put_u8(2);
                        s.put_f32(epsilon);
                    }
                    SearchMode::DeltaEpsilon { epsilon, delta } => {
                        s.put_u8(3);
                        s.put_f32(epsilon);
                        s.put_f32(delta);
                    }
                }
                s.put_f32s(query);
            }
            Request::ListIndexes { .. } => s.put_u8(1),
            Request::Shutdown { .. } => s.put_u8(2),
            Request::Reload { .. } => s.put_u8(3),
            Request::Stats { .. } => s.put_u8(4),
        }
        frame(REQUEST_MAGIC, s.as_bytes())
    }

    /// Overwrites the request id of an encoded request `frame` (what
    /// [`encode`](Self::encode) returned) in place. The id is the payload's
    /// first field, so a request encoded once can go out under many ids —
    /// the router sends one query to every worker, each link numbering its
    /// own calls.
    pub(crate) fn set_frame_id(frame: &mut [u8], request_id: u64) {
        frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 8].copy_from_slice(&request_id.to_le_bytes());
    }

    /// Decodes a request payload (the bytes after the frame header).
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut s = SectionReader::new(payload);
        let request_id = s.get_u64()?;
        if request_id == 0 {
            // Enforced, not just advised: a response echoing id 0 would be
            // indistinguishable from a protocol-error response.
            return Err(ProtocolError::Corrupt(
                "request id 0 is reserved for protocol-error responses".into(),
            ));
        }
        let op = s.get_u8()?;
        let req = match op {
            0 => {
                let index = s.get_str()?;
                let k = s.get_u64()?;
                if k == 0 || k > MAX_K {
                    return Err(ProtocolError::Corrupt(format!(
                        "k must be in 1..={MAX_K}, got {k}"
                    )));
                }
                let mode = match s.get_u8()? {
                    0 => SearchMode::Exact,
                    1 => {
                        let nprobe = s.get_u64()?;
                        let nprobe = usize::try_from(nprobe).map_err(|_| {
                            ProtocolError::Corrupt(format!("nprobe overflow: {nprobe}"))
                        })?;
                        SearchMode::Ng { nprobe }
                    }
                    2 => SearchMode::Epsilon {
                        epsilon: s.get_f32()?,
                    },
                    3 => SearchMode::DeltaEpsilon {
                        epsilon: s.get_f32()?,
                        delta: s.get_f32()?,
                    },
                    tag => {
                        return Err(ProtocolError::Corrupt(format!(
                            "unknown search mode tag {tag}"
                        )))
                    }
                };
                let query = s.get_f32s()?;
                Request::Query {
                    request_id,
                    index,
                    params: SearchParams { k: k as usize, mode },
                    query,
                }
            }
            1 => Request::ListIndexes { request_id },
            2 => Request::Shutdown { request_id },
            3 => Request::Reload { request_id },
            4 => Request::Stats { request_id },
            tag => return Err(ProtocolError::Corrupt(format!("unknown request op {tag}"))),
        };
        expect_consumed(&s)?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// What failed, when a response reports an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named an index the server does not serve.
    UnknownIndex,
    /// The index rejected the query (unsupported mode, dimension
    /// mismatch, ...); the message carries the index's own error text.
    Search,
    /// The connection sent a malformed frame; the message carries the
    /// [`ProtocolError`] text. Sent with request id 0, after which the
    /// server closes the connection.
    Protocol,
    /// A shard worker behind a router was unreachable, timed out, or
    /// answered with a malformed or mismatched response, so the router
    /// could not assemble a complete answer. The message names the worker
    /// and the failure; the client connection stays open.
    Unavailable,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::UnknownIndex => 1,
            ErrorCode::Search => 2,
            ErrorCode::Protocol => 3,
            ErrorCode::Unavailable => 4,
        }
    }

    fn from_wire(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(ErrorCode::UnknownIndex),
            2 => Ok(ErrorCode::Search),
            3 => Ok(ErrorCode::Protocol),
            4 => Ok(ErrorCode::Unavailable),
            _ => Err(ProtocolError::Corrupt(format!("unknown error code {tag}"))),
        }
    }
}

/// One served index, as advertised by the list-indexes operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// The name queries address it by (snapshot file stem, e.g.
    /// `rand256-isax2`).
    pub name: String,
    /// The method's display name (e.g. `iSAX2+`).
    pub method: String,
    /// Number of series indexed.
    pub num_series: u64,
    /// Series length (query dimensionality).
    pub series_len: u64,
    /// Supports exact search.
    pub exact: bool,
    /// Supports ng-approximate search.
    pub ng_approximate: bool,
    /// Supports ε-approximate search.
    pub epsilon_approximate: bool,
    /// Supports δ-ε-approximate search.
    pub delta_epsilon_approximate: bool,
    /// Operates on disk-resident data.
    pub disk_resident: bool,
    /// Accepts new series after the build (streaming ingest).
    pub streaming_insert: bool,
}

impl IndexInfo {
    /// Describes a served index from its live [`Capabilities`].
    pub fn describe(name: &str, index: &dyn hydra::AnnIndex) -> Self {
        let caps = index.capabilities();
        Self {
            name: name.to_string(),
            method: index.name().to_string(),
            num_series: index.num_series() as u64,
            series_len: index.series_len() as u64,
            exact: caps.exact,
            ng_approximate: caps.ng_approximate,
            epsilon_approximate: caps.epsilon_approximate,
            delta_epsilon_approximate: caps.delta_epsilon_approximate,
            disk_resident: caps.disk_resident,
            streaming_insert: caps.streaming_insert,
        }
    }

    /// Reconstructs a [`Capabilities`] value for sweep planning. The
    /// representation is not carried on the wire (it does not affect what
    /// queries are legal) and comes back as [`Representation::Raw`].
    pub fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: self.exact,
            ng_approximate: self.ng_approximate,
            epsilon_approximate: self.epsilon_approximate,
            delta_epsilon_approximate: self.delta_epsilon_approximate,
            disk_resident: self.disk_resident,
            streaming_insert: self.streaming_insert,
            representation: Representation::Raw,
        }
    }

    fn caps_bits(&self) -> u8 {
        (self.exact as u8)
            | (self.ng_approximate as u8) << 1
            | (self.epsilon_approximate as u8) << 2
            | (self.delta_epsilon_approximate as u8) << 3
            | (self.disk_resident as u8) << 4
            | (self.streaming_insert as u8) << 5
    }
}

/// The body of one server response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The k-NN answer: neighbors in increasing distance order, distances
    /// bit-exact with respect to an offline `search` call.
    Answer {
        /// The neighbors found.
        neighbors: Vec<Neighbor>,
    },
    /// The request could not be answered.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The served index list.
    Indexes {
        /// One entry per served index, sorted by name.
        indexes: Vec<IndexInfo>,
    },
    /// Acknowledges a shutdown request; the server exits once in-flight
    /// work has drained.
    ShutdownAck,
    /// Acknowledges a reload request: the snapshot directory was re-read
    /// and the served index set swapped.
    ReloadAck {
        /// The epoch now being served (monotonically increasing from 0 at
        /// boot; each successful reload increments it).
        epoch: u64,
    },
    /// A point-in-time metrics snapshot.
    Stats {
        /// The registry rendered in the Prometheus text exposition
        /// format. Carried as raw bytes on the wire (u64 count prefix)
        /// rather than the u16-length `str` codec, because a busy
        /// server's scrape easily exceeds 64 KiB.
        text: String,
    },
}

/// One server response, echoing the request's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers (0 for protocol-level errors).
    pub request_id: u64,
    /// The response body.
    pub body: ResponseBody,
}

impl Response {
    /// Encodes the response as a complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut s = Section::new();
        s.put_u64(self.request_id);
        match &self.body {
            ResponseBody::Answer { neighbors } => {
                s.put_u8(0);
                s.put_u64(neighbors.len() as u64);
                for n in neighbors {
                    s.put_u64(n.index as u64);
                    s.put_f32(n.distance);
                }
            }
            ResponseBody::Error { code, message } => {
                s.put_u8(1);
                s.put_u8(code.to_wire());
                s.put_str(message);
            }
            ResponseBody::Indexes { indexes } => {
                s.put_u8(2);
                s.put_u64(indexes.len() as u64);
                for info in indexes {
                    s.put_str(&info.name);
                    s.put_str(&info.method);
                    s.put_u64(info.num_series);
                    s.put_u64(info.series_len);
                    s.put_u8(info.caps_bits());
                }
            }
            ResponseBody::ShutdownAck => s.put_u8(3),
            ResponseBody::ReloadAck { epoch } => {
                s.put_u8(4);
                s.put_u64(*epoch);
            }
            ResponseBody::Stats { text } => {
                s.put_u8(5);
                s.put_u8s(text.as_bytes());
            }
        }
        frame(RESPONSE_MAGIC, s.as_bytes())
    }

    /// Decodes a response payload (the bytes after the frame header).
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut s = SectionReader::new(payload);
        let request_id = s.get_u64()?;
        let body = match s.get_u8()? {
            0 => {
                let count = s.get_u64()?;
                // Each neighbor occupies 12 payload bytes; a count beyond
                // what the payload can hold is corrupt, not an allocation.
                if count > (payload.len() as u64) / 12 + 1 {
                    return Err(ProtocolError::Truncated);
                }
                let mut neighbors = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let index = s.get_u64()?;
                    let index = usize::try_from(index).map_err(|_| {
                        ProtocolError::Corrupt(format!("neighbor index overflow: {index}"))
                    })?;
                    neighbors.push(Neighbor::new(index, s.get_f32()?));
                }
                ResponseBody::Answer { neighbors }
            }
            1 => ResponseBody::Error {
                code: ErrorCode::from_wire(s.get_u8()?)?,
                message: s.get_str()?,
            },
            2 => {
                let count = s.get_u64()?;
                // Each index entry occupies at least 21 payload bytes (two
                // empty strings, two u64s, one capability byte); a count
                // beyond that bound is rejected before the allocation.
                if count > (payload.len() as u64) / 21 + 1 {
                    return Err(ProtocolError::Truncated);
                }
                let mut indexes = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let name = s.get_str()?;
                    let method = s.get_str()?;
                    let num_series = s.get_u64()?;
                    let series_len = s.get_u64()?;
                    let bits = s.get_u8()?;
                    if bits >= 64 {
                        return Err(ProtocolError::Corrupt(format!(
                            "unknown capability bits {bits:#x}"
                        )));
                    }
                    indexes.push(IndexInfo {
                        name,
                        method,
                        num_series,
                        series_len,
                        exact: bits & 1 != 0,
                        ng_approximate: bits & 2 != 0,
                        epsilon_approximate: bits & 4 != 0,
                        delta_epsilon_approximate: bits & 8 != 0,
                        disk_resident: bits & 16 != 0,
                        streaming_insert: bits & 32 != 0,
                    });
                }
                ResponseBody::Indexes { indexes }
            }
            3 => ResponseBody::ShutdownAck,
            4 => ResponseBody::ReloadAck {
                epoch: s.get_u64()?,
            },
            5 => {
                // get_u8s bounds its allocation by the remaining payload,
                // so a hostile count cannot allocate beyond the frame.
                let bytes = s.get_u8s()?;
                let text = String::from_utf8(bytes).map_err(|e| {
                    ProtocolError::Corrupt(format!("stats text is not UTF-8: {e}"))
                })?;
                ResponseBody::Stats { text }
            }
            tag => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown response status {tag}"
                )))
            }
        };
        expect_consumed(&s)?;
        Ok(Response { request_id, body })
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Magic (4) + version (2) + payload length (4).
const FRAME_HEADER_LEN: usize = 10;

fn frame(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    // A hard assert, not a debug one: an oversized encode is a caller bug
    // best surfaced at its source — shipped in release it would be
    // rejected remotely (or, past u32, wrap the length into a frame that
    // misparses everything after it).
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
        payload.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn expect_consumed(s: &SectionReader<'_>) -> Result<()> {
    if s.remaining() != 0 {
        return Err(ProtocolError::Corrupt(format!(
            "{} trailing bytes after the payload",
            s.remaining()
        )));
    }
    Ok(())
}

/// Reads one frame with the given magic from `r` and returns its payload.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames); ending **inside** a frame is [`ProtocolError::Truncated`]. The
/// declared length is validated against [`MAX_FRAME_LEN`] before any
/// payload byte is awaited or allocated.
pub fn read_frame<R: Read>(r: &mut R, expected_magic: [u8; 4]) -> Result<Option<Vec<u8>>> {
    let mut magic = [0u8; 4];
    // A clean EOF before the first magic byte ends the stream; EOF after
    // at least one byte is a truncated frame.
    let mut filled = 0;
    while filled < magic.len() {
        match r.read(&mut magic[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if magic != expected_magic {
        return Err(ProtocolError::BadMagic {
            found: magic,
            expected: expected_magic,
        });
    }
    let mut header = [0u8; 6];
    r.read_exact(&mut header)?;
    let version = u16::from_le_bytes([header[0], header[1]]);
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            declared: len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads one request from `r` (`Ok(None)` on clean end of stream).
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>> {
    match read_frame(r, REQUEST_MAGIC)? {
        Some(payload) => Ok(Some(Request::decode(&payload)?)),
        None => Ok(None),
    }
}

/// Reads one response from `r` (`Ok(None)` on clean end of stream).
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>> {
    match read_frame(r, RESPONSE_MAGIC)? {
        Some(payload) => Ok(Some(Response::decode(&payload)?)),
        None => Ok(None),
    }
}

/// Writes one request frame to `w` (flushing is the caller's concern).
pub fn write_request<W: Write>(w: &mut W, request: &Request) -> Result<()> {
    w.write_all(&request.encode())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) -> Request {
        let bytes = req.encode();
        let mut cur = Cursor::new(bytes);
        let got = read_request(&mut cur).unwrap().unwrap();
        // The stream is exactly one frame long.
        assert!(read_request(&mut cur).unwrap().is_none());
        got
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let bytes = resp.encode();
        let mut cur = Cursor::new(bytes);
        let got = read_response(&mut cur).unwrap().unwrap();
        assert!(read_response(&mut cur).unwrap().is_none());
        got
    }

    #[test]
    fn requests_roundtrip_across_every_mode() {
        for params in [
            SearchParams::exact(10),
            SearchParams::ng(5, 64),
            SearchParams::epsilon(3, 1.5),
            SearchParams::delta_epsilon(7, 0.99, 2.0),
        ] {
            let req = Request::Query {
                request_id: 42,
                index: "rand256-isax2".into(),
                params,
                query: vec![1.0, -2.5, f32::INFINITY, 0.0],
            };
            assert_eq!(roundtrip_request(&req), req);
            // Re-numbering an encoded frame is the same as encoding under
            // the new id.
            let mut frame = req.encode();
            Request::set_frame_id(&mut frame, 7_000_000_007);
            let Request::Query { index, query, .. } = req else {
                unreachable!()
            };
            let renumbered = Request::Query {
                request_id: 7_000_000_007,
                index,
                params,
                query,
            };
            assert_eq!(frame, renumbered.encode());
        }
        assert_eq!(
            roundtrip_request(&Request::ListIndexes { request_id: 7 }),
            Request::ListIndexes { request_id: 7 }
        );
        assert_eq!(
            roundtrip_request(&Request::Shutdown { request_id: u64::MAX }),
            Request::Shutdown { request_id: u64::MAX }
        );
        assert_eq!(
            roundtrip_request(&Request::Reload { request_id: 11 }),
            Request::Reload { request_id: 11 }
        );
        assert_eq!(
            roundtrip_request(&Request::Stats { request_id: 13 }),
            Request::Stats { request_id: 13 }
        );
    }

    #[test]
    fn responses_roundtrip_across_every_body() {
        let answers = Response {
            request_id: 9,
            body: ResponseBody::Answer {
                neighbors: vec![Neighbor::new(3, 1.25), Neighbor::new(0, f32::NAN)],
            },
        };
        // NaN distances survive by bit pattern, so compare bits manually.
        let got = roundtrip_response(&answers);
        match (&got.body, &answers.body) {
            (ResponseBody::Answer { neighbors: a }, ResponseBody::Answer { neighbors: b }) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                }
            }
            _ => panic!("body kind drifted"),
        }
        for code in [
            ErrorCode::UnknownIndex,
            ErrorCode::Search,
            ErrorCode::Protocol,
            ErrorCode::Unavailable,
        ] {
            let err = Response {
                request_id: 1,
                body: ResponseBody::Error {
                    code,
                    message: "no such index".into(),
                },
            };
            assert_eq!(roundtrip_response(&err), err);
        }
        let list = Response {
            request_id: 2,
            body: ResponseBody::Indexes {
                indexes: vec![IndexInfo {
                    name: "rand256-dstree".into(),
                    method: "DSTree".into(),
                    num_series: 8_000,
                    series_len: 256,
                    exact: true,
                    ng_approximate: true,
                    epsilon_approximate: true,
                    delta_epsilon_approximate: true,
                    disk_resident: true,
                    streaming_insert: true,
                }],
            },
        };
        assert_eq!(roundtrip_response(&list), list);
        let ack = Response {
            request_id: 3,
            body: ResponseBody::ShutdownAck,
        };
        assert_eq!(roundtrip_response(&ack), ack);
        let reload = Response {
            request_id: 4,
            body: ResponseBody::ReloadAck { epoch: 7 },
        };
        assert_eq!(roundtrip_response(&reload), reload);
        for text in [
            String::new(),
            "# TYPE hydra_queries_total counter\nhydra_queries_total 42\n".to_string(),
            // Metrics text above the u16 limit of the `str` codec must
            // survive, which is why stats ride the raw-bytes codec.
            "x".repeat(100_000),
        ] {
            let stats = Response {
                request_id: 5,
                body: ResponseBody::Stats { text },
            };
            assert_eq!(roundtrip_response(&stats), stats);
        }
    }

    #[test]
    fn non_utf8_stats_text_is_corrupt() {
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(5);
        s.put_u8s(&[0xff, 0xfe, 0x41]);
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(msg)) if msg.contains("UTF-8")
        ));
    }

    #[test]
    fn index_info_capabilities_roundtrip_through_the_bitmask() {
        let info = IndexInfo {
            name: "x".into(),
            method: "SRS".into(),
            num_series: 10,
            series_len: 4,
            exact: false,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: true,
            streaming_insert: true,
        };
        let caps = info.capabilities();
        assert!(!caps.exact && caps.ng_approximate && caps.delta_epsilon_approximate);
        assert!(caps.streaming_insert);
        let listed = Response {
            request_id: 1,
            body: ResponseBody::Indexes {
                indexes: vec![info.clone()],
            },
        };
        let got = roundtrip_response(&listed);
        match got.body {
            ResponseBody::Indexes { indexes } => assert_eq!(indexes[0], info),
            _ => panic!("body kind drifted"),
        }
    }

    #[test]
    fn zero_and_huge_k_are_rejected() {
        let mk = |k: u64| {
            let mut s = Section::new();
            s.put_u64(1);
            s.put_u8(0);
            s.put_str("idx");
            s.put_u64(k);
            s.put_u8(0);
            s.put_f32s(&[1.0]);
            s.as_bytes().to_vec()
        };
        assert!(matches!(
            Request::decode(&mk(0)),
            Err(ProtocolError::Corrupt(_))
        ));
        assert!(matches!(
            Request::decode(&mk(MAX_K + 1)),
            Err(ProtocolError::Corrupt(_))
        ));
        assert!(Request::decode(&mk(MAX_K)).is_ok());
    }

    #[test]
    fn header_damage_yields_the_exact_typed_error() {
        let good = Request::ListIndexes { request_id: 5 }.encode();
        // Flipped magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_request(&mut Cursor::new(bad)),
            Err(ProtocolError::BadMagic { .. })
        ));
        // Future version.
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            read_request(&mut Cursor::new(bad)),
            Err(ProtocolError::VersionMismatch { found, supported: PROTOCOL_VERSION })
                if found == PROTOCOL_VERSION + 1
        ));
        // Oversized declared length fails before reading any payload.
        let mut bad = good.clone();
        bad[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_request(&mut Cursor::new(bad)),
            Err(ProtocolError::FrameTooLarge { declared, max: MAX_FRAME_LEN })
                if declared == MAX_FRAME_LEN + 1
        ));
        // A length promising more than the stream holds is truncation.
        let mut bad = good.clone();
        bad[6..10].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            read_request(&mut Cursor::new(bad)),
            Err(ProtocolError::Truncated)
        ));
        // Every strict prefix of a valid frame is truncation (after the
        // first byte exists).
        for cut in 1..good.len() {
            assert!(
                matches!(
                    read_request(&mut Cursor::new(&good[..cut])),
                    Err(ProtocolError::Truncated)
                ),
                "prefix of {cut} bytes must be Truncated"
            );
        }
        // Trailing bytes inside the declared payload are corrupt.
        let mut padded = Request::Shutdown { request_id: 1 }.encode();
        padded.extend_from_slice(&[0, 0]);
        let len = (padded.len() - 10) as u32;
        padded[6..10].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            read_request(&mut Cursor::new(padded)),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn request_id_zero_is_rejected() {
        for request in [
            Request::Query {
                request_id: 0,
                index: "idx".into(),
                params: SearchParams::exact(1),
                query: vec![1.0],
            },
            Request::ListIndexes { request_id: 0 },
            Request::Shutdown { request_id: 0 },
        ] {
            let bytes = request.encode();
            assert!(matches!(
                read_request(&mut Cursor::new(bytes)),
                Err(ProtocolError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(9);
        assert!(matches!(
            Request::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(0);
        s.put_str("idx");
        s.put_u64(5);
        s.put_u8(7); // unknown mode tag
        s.put_f32s(&[1.0]);
        assert!(matches!(
            Request::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(9); // unknown status
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(1);
        s.put_u8(77); // unknown error code
        s.put_str("m");
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_stream_is_a_clean_end() {
        assert!(read_request(&mut Cursor::new(Vec::new())).unwrap().is_none());
        assert!(read_response(&mut Cursor::new(Vec::new())).unwrap().is_none());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ProtocolError::BadMagic {
            found: *b"JUNK",
            expected: REQUEST_MAGIC
        }
        .to_string()
        .contains("magic"));
        assert!(ProtocolError::VersionMismatch { found: 9, supported: 1 }
            .to_string()
            .contains('9'));
        assert!(ProtocolError::FrameTooLarge {
            declared: 100,
            max: 10
        }
        .to_string()
        .contains("100"));
        assert!(ProtocolError::Truncated.to_string().contains("truncated"));
        assert!(ProtocolError::Corrupt("tag".into()).to_string().contains("tag"));
        assert!(ProtocolError::Io("disk".into()).to_string().contains("disk"));
    }
}
