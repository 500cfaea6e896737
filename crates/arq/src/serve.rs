//! `arq serve` — a crash-safe streaming router service.
//!
//! The paper evaluates rule maintenance offline, over a recorded trace.
//! This module is the same machinery stood up as a long-running service:
//! an unbounded stream of query–reply events keeps a streaming maintainer
//! ([`DecayedPairCounts`] or [`LossyPairCounts`]) fresh, and `route`
//! lookups are answered from an epoch-versioned [`RuleHandle`] that the
//! miner swaps atomically on a tumbling-block schedule — lookups never
//! block on mining.
//!
//! ## Wire format
//!
//! Events arrive as length-prefixed JSON frames over stdin, a file, or a
//! Unix domain socket: an ASCII decimal byte length, `\n`, the JSON
//! payload, `\n`. Three event kinds reuse the trace-record schema:
//!
//! * `{"ev":"pair","src":N,"via":N,...}` — one joined query–reply pair
//!   (the extra [`PairRecord`](arq_trace::record::PairRecord) fields
//!   `time`/`guid`/`responder`/`query` are accepted and ignored);
//! * `{"ev":"route","id":N,"src":N,"k":K?}` — answer a lookup; the reply
//!   frame is `{"ev":"routed","id":N,"outcome":"rules"|"flood"|"shed",
//!   "via":[...],"epoch":E}`;
//! * `{"ev":"stats","id":N}` — snapshot the service counters.
//!
//! A frame longer than [`MAX_FRAME_BYTES`] is a framing error. Frames are
//! decoded in place: [`FrameReader::next_payload`] borrows the payload
//! from the read buffer, and [`parse_event`] validates it in one pass
//! with [`json::parse_object_fields`], reading the first `ev`, `src`,
//! `via`, `id` and `k` without building a JSON tree. The numbers an
//! event reads must be non-negative integers that fit their type
//! (`src`/`via` u32, `id` u64, `k` usize); anything else is an in-band
//! error naming the field, never a silently cast value.
//!
//! ## Backpressure and shedding
//!
//! Pairs flow to the mining thread through a bounded queue. By default
//! the ingest loop *blocks* when the queue is full — lossless
//! backpressure, the right mode for replaying a recorded stream where
//! the final ruleset digest must be exact. With [`ServeConfig::shed`]
//! the service instead degrades explicitly under overload, never
//! silently: at queue depth ≥ ¾ capacity it stops refreshing the
//! published ruleset (mining refreshes are the cheapest thing to shed);
//! when the queue actually fills, pairs are dropped (counted) and
//! lookups answer with a distinct `shed` outcome meaning "flood, we are
//! overloaded". The ladder steps back down as the queue drains.
//!
//! ## Crash safety
//!
//! A checkpoint is the maintainer's exact state (floats as bit patterns)
//! plus the count of pairs consumed, written with
//! [`arq_simkern::write_atomic`] (temp + fsync + rename) on a configurable
//! cadence and at drain. Restarting with the same checkpoint path
//! restores the state and skips exactly `consumed` pair events from the
//! re-streamed input, so a kill -9 mid-stream followed by a restart
//! reaches the same final ruleset digest as an uninterrupted run.
//!
//! SIGTERM (or EOF) drains: the queue empties, a final checkpoint and a
//! summary artifact are written, and the process exits cleanly.

use arq_assoc::{DecayedPairCounts, DecayedSnapshot, LossyPairCounts, LossySnapshot, RuleSet};
use arq_core::engine::registry::parse_spec;
use arq_core::{RouteDecision, RuleHandle};
use arq_obs::{to_prometheus, Registry};
use arq_simkern::json::{self, Field};
use arq_simkern::{write_atomic, Histogram, Json};
use arq_trace::record::HostId;
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An error from the service: configuration, wire protocol, checkpoint
/// decoding, or I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// What went wrong, with enough context to locate it.
    pub message: String,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

fn err(message: impl Into<String>) -> ServeError {
    ServeError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame: `<len>\n<payload>\n`.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> std::io::Result<()> {
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")
}

/// The largest frame payload the service accepts, in bytes. A longer
/// declared length is a framing error, so a peer cannot make the reader
/// buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Incremental frame parser over a growable byte buffer.
///
/// Bytes are [`feed`](FrameReader::feed) in as they arrive (from any
/// transport) and complete frames are pulled out with
/// [`next_payload`](FrameReader::next_payload), borrowed from the
/// buffer; partial frames simply wait for more bytes. This keeps the
/// ingest loop free to poll a shutdown flag between reads instead of
/// blocking inside one.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow the buffer forever.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True when no partial frame is pending.
    pub fn is_drained(&self) -> bool {
        self.buf.len() == self.start
    }

    /// Extracts the next complete frame's payload, borrowed from the
    /// buffer; `Ok(None)` if more bytes are needed, or an error for a
    /// malformed length header, a frame over [`MAX_FRAME_BYTES`], or a
    /// bad frame body.
    pub fn next_payload(&mut self) -> Result<Option<&str>, ServeError> {
        let pending = &self.buf[self.start..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            if pending.len() > 32 {
                return Err(err("frame length header exceeds 32 bytes with no newline"));
            }
            return Ok(None);
        };
        let header = std::str::from_utf8(&pending[..nl])
            .ok()
            .map(str::trim)
            .filter(|s| !s.is_empty());
        let len: usize = header
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad frame length header (expected ASCII decimal byte count)"))?;
        if len > MAX_FRAME_BYTES {
            return Err(err(format!(
                "frame declares {len} bytes, over the {MAX_FRAME_BYTES}-byte limit"
            )));
        }
        // Header + payload + trailing newline must all be buffered.
        if pending.len() < nl + 1 + len + 1 {
            return Ok(None);
        }
        let body = &pending[nl + 1..nl + 1 + len];
        if pending[nl + 1 + len] != b'\n' {
            return Err(err(format!(
                "frame payload not followed by newline (declared length {len})"
            )));
        }
        let payload = std::str::from_utf8(body).map_err(|_| err("frame payload is not UTF-8"))?;
        self.start += nl + 1 + len + 1;
        Ok(Some(payload))
    }

    /// [`next_payload`](FrameReader::next_payload), copied out.
    pub fn next_frame(&mut self) -> Result<Option<String>, ServeError> {
        Ok(self.next_payload()?.map(str::to_string))
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One parsed input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A query–reply pair observation (`src → via` candidate rule).
    Pair {
        /// Rule antecedent: the neighbor the query came from.
        src: HostId,
        /// Rule consequent: the neighbor the reply came back through.
        via: HostId,
    },
    /// A route lookup to answer.
    Route {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The antecedent to look up.
        src: HostId,
        /// Consequent fan-out override (0 = service default).
        k: usize,
    },
    /// A counters snapshot request.
    Stats {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
    },
}

/// Parses one frame payload into an [`Event`].
///
/// The whole document is validated, but only the first occurrence of
/// each of `ev`, `src`, `via`, `id` and `k` is read, in one pass and
/// without building a tree: a well-formed `pair` event allocates
/// nothing. The numeric fields an event uses must be non-negative
/// integers that fit their type (`src`/`via` u32, `id` u64, `k` usize).
pub fn parse_event(payload: &str) -> Result<Event, ServeError> {
    let (mut ev, mut src, mut via, mut id, mut k) = (None, None, None, None, None);
    json::parse_object_fields(payload, &mut |key, value| {
        let slot = match key {
            "ev" => &mut ev,
            "src" => &mut src,
            "via" => &mut via,
            "id" => &mut id,
            "k" => &mut k,
            _ => return,
        };
        slot.get_or_insert(value);
    })
    .map_err(|e| err(format!("bad event JSON: {e}")))?;
    let Some(Field::Str(ev)) = ev else {
        return Err(err("event missing string field `ev`"));
    };
    let host = |name: &str, value: Option<Field>| -> Result<HostId, ServeError> {
        int_field(&ev, name, value)?
            .map(HostId)
            .ok_or_else(|| err(format!("`{ev}` event missing numeric field `{name}`")))
    };
    match &*ev {
        "pair" => Ok(Event::Pair {
            src: host("src", src)?,
            via: host("via", via)?,
        }),
        "route" => Ok(Event::Route {
            id: int_field(&ev, "id", id)?.unwrap_or(0),
            src: host("src", src)?,
            k: int_field(&ev, "k", k)?.unwrap_or(0),
        }),
        "stats" => Ok(Event::Stats {
            id: int_field(&ev, "id", id)?.unwrap_or(0),
        }),
        other => Err(err(format!(
            "unknown event kind `{other}` (expected `pair`, `route`, or `stats`)"
        ))),
    }
}

/// Reads the integer field `name` of an `ev` event: `Ok(None)` when it
/// is absent, an error naming it unless it is a non-negative integer
/// that fits `T`.
fn int_field<T: TryFrom<i128>>(
    ev: &str,
    name: &str,
    value: Option<Field>,
) -> Result<Option<T>, ServeError> {
    let got = match value {
        None => return Ok(None),
        Some(Field::Other(Json::Int(i))) => match T::try_from(i) {
            Ok(x) => return Ok(Some(x)),
            Err(_) => Json::Int(i),
        },
        Some(Field::Other(other)) => other,
        Some(Field::Str(s)) => Json::Str(s.into_owned()),
    };
    Err(err(format!(
        "`{ev}` event field `{name}` must be a non-negative integer that fits in {}, got {got}",
        std::any::type_name::<T>()
    )))
}

// ---------------------------------------------------------------------------
// Maintainer: the streaming rule state behind the service
// ---------------------------------------------------------------------------

/// The streaming maintainer the service keeps fresh: either decayed
/// counts (the §VI incremental maintainer) or lossy counting.
#[derive(Debug, Clone)]
pub enum Maintainer {
    /// Exponentially decayed pair counts; rules are pairs whose decayed
    /// weight clears `threshold`.
    Incremental {
        /// The decayed counts.
        counts: DecayedPairCounts,
        /// Rule support threshold (≥ 1).
        threshold: f64,
    },
    /// Manku–Motwani lossy counting; rules are pairs whose count clears
    /// `support`.
    Lossy {
        /// The lossy counts.
        counts: LossyPairCounts,
        /// Rule support threshold.
        support: u64,
    },
}

impl Maintainer {
    /// Builds a maintainer from a spec string: `incremental(t=10,hl=20000)`
    /// (support threshold, half-life in pairs) or `lossy(t=10,eps=0.0001)`.
    /// Bare names take the defaults shown.
    pub fn from_spec(spec: &str) -> Result<Maintainer, ServeError> {
        let parsed = parse_spec(spec).map_err(|e| err(format!("maintainer spec: {e}")))?;
        match parsed.name.as_str() {
            "incremental" => {
                let mut t = 10.0;
                let mut hl = 20_000.0;
                for (key, value) in &parsed.params {
                    match key.as_str() {
                        "t" => t = *value,
                        "hl" => hl = *value,
                        other => {
                            return Err(err(format!(
                                "maintainer `incremental` has no parameter `{other}` (has t, hl)"
                            )))
                        }
                    }
                }
                if t < 1.0 {
                    return Err(err("maintainer threshold t must be >= 1"));
                }
                Ok(Maintainer::Incremental {
                    counts: DecayedPairCounts::new(hl),
                    threshold: t,
                })
            }
            "lossy" => {
                let mut t = 10.0;
                let mut eps = 1e-4;
                for (key, value) in &parsed.params {
                    match key.as_str() {
                        "t" => t = *value,
                        "eps" => eps = *value,
                        other => {
                            return Err(err(format!(
                                "maintainer `lossy` has no parameter `{other}` (has t, eps)"
                            )))
                        }
                    }
                }
                Ok(Maintainer::Lossy {
                    counts: LossyPairCounts::new(eps),
                    support: t as u64,
                })
            }
            other => Err(err(format!(
                "unknown maintainer `{other}` (expected `incremental` or `lossy`)"
            ))),
        }
    }

    /// The canonical spec string this maintainer round-trips through
    /// (checkpoints store it and restarts must match it).
    pub fn spec(&self) -> String {
        match self {
            Maintainer::Incremental { counts, threshold } => {
                format!("incremental(t={},hl={})", threshold, counts.half_life())
            }
            Maintainer::Lossy { counts, support } => {
                format!("lossy(t={},eps={})", support, counts.epsilon())
            }
        }
    }

    /// Observes one pair.
    pub fn observe(&mut self, src: HostId, via: HostId) {
        match self {
            Maintainer::Incremental { counts, .. } => counts.observe(src, via),
            Maintainer::Lossy { counts, .. } => counts.observe(src, via),
        }
    }

    /// Total pairs observed over the maintainer's lifetime (survives
    /// checkpoint/restore — this is the replay cursor).
    pub fn consumed(&self) -> u64 {
        match self {
            Maintainer::Incremental { counts, .. } => counts.observations(),
            Maintainer::Lossy { counts, .. } => counts.observations(),
        }
    }

    /// Materializes the current rule set.
    pub fn ruleset(&self) -> RuleSet {
        match self {
            Maintainer::Incremental { counts, threshold } => counts.ruleset(*threshold),
            Maintainer::Lossy { counts, support } => counts.ruleset(*support),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// First token of a checkpoint file's header line.
pub const CHECKPOINT_MAGIC: &str = "arq-checkpoint";
/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Encodes a float as its exact bit pattern (hex), so decay arithmetic
/// is bit-identical after a restore.
fn f64_bits(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

fn f64_from_bits(j: Option<&Json>, what: &str) -> Result<f64, ServeError> {
    let s = j
        .and_then(Json::as_str)
        .ok_or_else(|| err(format!("checkpoint: missing field `{what}`")))?;
    u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|_| {
        err(format!(
            "checkpoint: field `{what}` is not a hex bit pattern"
        ))
    })
}

fn field_u64(doc: &Json, what: &str) -> Result<u64, ServeError> {
    doc.get(what)
        .and_then(Json::as_f64)
        .map(|x| x as u64)
        .ok_or_else(|| err(format!("checkpoint: missing numeric field `{what}`")))
}

/// Serializes the maintainer (exact state + replay cursor) as versioned
/// checkpoint text.
pub fn encode_checkpoint(m: &Maintainer) -> String {
    let state = match m {
        Maintainer::Incremental { counts, .. } => {
            let snap: DecayedSnapshot = counts.snapshot();
            Json::obj([
                ("half_life", f64_bits(snap.half_life)),
                ("clock", Json::from(snap.clock)),
                ("since_sweep", Json::from(snap.since_sweep)),
                (
                    "entries",
                    Json::Arr(
                        snap.entries
                            .iter()
                            .map(|&(s, v, value, at)| {
                                Json::Arr(vec![
                                    Json::from(s.0),
                                    Json::from(v.0),
                                    f64_bits(value),
                                    Json::from(at),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
        Maintainer::Lossy { counts, .. } => {
            let snap: LossySnapshot = counts.snapshot();
            Json::obj([
                ("epsilon", f64_bits(snap.epsilon)),
                ("current_bucket", Json::from(snap.current_bucket)),
                ("seen", Json::from(snap.seen)),
                (
                    "entries",
                    Json::Arr(
                        snap.entries
                            .iter()
                            .map(|&(s, v, count, delta)| {
                                Json::Arr(vec![
                                    Json::from(s.0),
                                    Json::from(v.0),
                                    Json::from(count),
                                    Json::from(delta),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    };
    let doc = Json::obj([
        ("spec", Json::from(m.spec())),
        ("consumed", Json::from(m.consumed())),
        ("state", state),
    ]);
    format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n{doc}\n")
}

/// Decodes checkpoint text back into a maintainer. `expected_spec` is
/// the canonical spec of the service's configured maintainer; a mismatch
/// is an error (a checkpoint only resumes the run that wrote it).
pub fn decode_checkpoint(text: &str, expected_spec: &str) -> Result<Maintainer, ServeError> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| err("checkpoint: missing header line"))?;
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(CHECKPOINT_MAGIC) {
        return Err(err(format!(
            "checkpoint: bad magic (expected `{CHECKPOINT_MAGIC}`)"
        )));
    }
    let version = tokens.next().unwrap_or("");
    if version != format!("v{CHECKPOINT_VERSION}") {
        return Err(err(format!(
            "checkpoint: unsupported version `{version}` (this build reads v{CHECKPOINT_VERSION})"
        )));
    }
    let doc = json::parse(body).map_err(|e| err(format!("checkpoint: bad JSON body: {e}")))?;
    let spec = doc
        .get("spec")
        .and_then(Json::as_str)
        .ok_or_else(|| err("checkpoint: missing field `spec`"))?;
    if spec != expected_spec {
        return Err(err(format!(
            "checkpoint was written by maintainer `{spec}` but the service is configured \
             as `{expected_spec}`"
        )));
    }
    let consumed = field_u64(&doc, "consumed")?;
    let state = doc
        .get("state")
        .ok_or_else(|| err("checkpoint: missing field `state`"))?;
    let entries = state
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| err("checkpoint: missing array field `state.entries`"))?;
    let template = Maintainer::from_spec(expected_spec)?;
    let restored = match template {
        Maintainer::Incremental { threshold, .. } => {
            let mut snap = DecayedSnapshot {
                half_life: f64_from_bits(state.get("half_life"), "state.half_life")?,
                clock: field_u64(state, "clock")?,
                since_sweep: field_u64(state, "since_sweep")?,
                entries: Vec::with_capacity(entries.len()),
            };
            for row in entries {
                let cell = |i: usize| row.at(i).and_then(Json::as_f64);
                let (Some(s), Some(v), Some(at)) = (cell(0), cell(1), cell(3)) else {
                    return Err(err(
                        "checkpoint: malformed entry row (want [src,via,bits,at])",
                    ));
                };
                let value = f64_from_bits(row.at(2), "state.entries[].value")?;
                snap.entries
                    .push((HostId(s as u32), HostId(v as u32), value, at as u64));
            }
            Maintainer::Incremental {
                counts: DecayedPairCounts::restore(&snap),
                threshold,
            }
        }
        Maintainer::Lossy { support, .. } => {
            let mut snap = LossySnapshot {
                epsilon: f64_from_bits(state.get("epsilon"), "state.epsilon")?,
                current_bucket: field_u64(state, "current_bucket")?,
                seen: field_u64(state, "seen")?,
                entries: Vec::with_capacity(entries.len()),
            };
            for row in entries {
                let cell = |i: usize| row.at(i).and_then(Json::as_f64);
                let (Some(s), Some(v), Some(c), Some(d)) = (cell(0), cell(1), cell(2), cell(3))
                else {
                    return Err(err(
                        "checkpoint: malformed entry row (want [src,via,count,delta])",
                    ));
                };
                snap.entries
                    .push((HostId(s as u32), HostId(v as u32), c as u64, d as u64));
            }
            Maintainer::Lossy {
                counts: LossyPairCounts::restore(&snap),
                support,
            }
        }
    };
    if restored.consumed() != consumed {
        return Err(err(format!(
            "checkpoint: `consumed` says {consumed} but the state replays {}",
            restored.consumed()
        )));
    }
    Ok(restored)
}

/// Reads and decodes a checkpoint file. `Ok(None)` when the file does
/// not exist (fresh start); decode errors are not swallowed.
pub fn read_checkpoint(path: &str, expected_spec: &str) -> Result<Option<Maintainer>, ServeError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(err(format!("reading checkpoint {path}: {e}"))),
    };
    decode_checkpoint(&text, expected_spec).map(Some)
}

// ---------------------------------------------------------------------------
// Configuration and shared state
// ---------------------------------------------------------------------------

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maintainer spec (`incremental(...)` or `lossy(...)`).
    pub spec: String,
    /// Tumbling-block refresh schedule: republish rules every this many
    /// consumed pairs.
    pub block: u64,
    /// Default consequent fan-out for route answers.
    pub k: usize,
    /// Ingest queue capacity (pairs in flight to the miner).
    pub queue: usize,
    /// Enable the load-shedding ladder; off means lossless blocking
    /// backpressure.
    pub shed: bool,
    /// Checkpoint file to restore from and write to.
    pub checkpoint: Option<String>,
    /// Checkpoint every this many consumed pairs (0 = only at drain).
    pub checkpoint_every: u64,
    /// TCP address to serve plaintext metrics on (e.g. `127.0.0.1:0`).
    pub metrics: Option<String>,
    /// Cooperative stop flag (set by the SIGTERM handler or a test).
    pub stop: Arc<AtomicBool>,
    /// Synthetic extra work per observed pair (spin iterations); a
    /// test/bench aid for shaping mining cost. 0 in production.
    pub spin: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec: "incremental".to_string(),
            block: 10_000,
            k: 2,
            queue: 1024,
            shed: false,
            checkpoint: None,
            checkpoint_every: 0,
            metrics: None,
            stop: Arc::new(AtomicBool::new(false)),
            spin: 0,
        }
    }
}

/// Queue depth at which the shed ladder steps up (refreshes stop).
fn shed_hi(cap: usize) -> usize {
    (cap.saturating_mul(3) / 4).max(1)
}

/// Queue depth at which the ladder steps down one level.
fn shed_lo(cap: usize) -> usize {
    cap / 4
}

#[derive(Debug, Default)]
struct Counters {
    events: AtomicU64,
    pairs: AtomicU64,
    skipped: AtomicU64,
    routes: AtomicU64,
    route_rules: AtomicU64,
    route_flood: AtomicU64,
    route_shed: AtomicU64,
    shed_pairs: AtomicU64,
    shed_refreshes: AtomicU64,
    refreshes: AtomicU64,
    checkpoints: AtomicU64,
}

/// State shared between the ingest loop, the miner, and the metrics
/// endpoint.
#[derive(Debug)]
struct Shared {
    handle: RuleHandle,
    depth: AtomicUsize,
    cap: usize,
    shed_enabled: bool,
    level: AtomicU8,
    c: Counters,
    route_latency_us: Mutex<Histogram>,
}

impl Shared {
    fn new(cap: usize, shed_enabled: bool) -> Shared {
        Shared {
            handle: RuleHandle::new(),
            depth: AtomicUsize::new(0),
            cap,
            shed_enabled,
            level: AtomicU8::new(0),
            c: Counters::default(),
            // 0–10ms in 50µs buckets; overload pushes into the overflow
            // tail, which the p99 readout clamps to `hi`.
            route_latency_us: Mutex::new(Histogram::new(0.0, 10_000.0, 200)),
        }
    }

    #[inline]
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Steps the shed ladder from the current queue depth: up to level 1
    /// at the high watermark, down one level at the low watermark.
    /// Level 2 is entered only by an actual queue-full drop.
    fn update_ladder(&self) {
        if !self.shed_enabled {
            return;
        }
        let depth = self.depth.load(Ordering::Relaxed);
        let level = self.level.load(Ordering::Relaxed);
        if depth >= shed_hi(self.cap) && level == 0 {
            self.level.store(1, Ordering::Relaxed);
        } else if depth <= shed_lo(self.cap) && level > 0 {
            self.level.store(level - 1, Ordering::Relaxed);
        }
    }

    fn on_queue_full(&self) {
        self.level.store(2, Ordering::Relaxed);
        Shared::bump(&self.c.shed_pairs);
    }

    /// Snapshots every instrument into a metrics registry (the scrape
    /// and summary view).
    fn registry(&self) -> Registry {
        let mut r = Registry::new();
        let rows: [(&str, &AtomicU64); 11] = [
            ("events_total", &self.c.events),
            ("pairs_total", &self.c.pairs),
            ("pairs_skipped_total", &self.c.skipped),
            ("routes_total", &self.c.routes),
            ("route_rules_total", &self.c.route_rules),
            ("route_flood_total", &self.c.route_flood),
            ("route_shed_total", &self.c.route_shed),
            ("shed_pairs_total", &self.c.shed_pairs),
            ("shed_refreshes_total", &self.c.shed_refreshes),
            ("refreshes_total", &self.c.refreshes),
            ("checkpoints_total", &self.c.checkpoints),
        ];
        for (name, cell) in rows {
            let id = r.counter(name);
            r.inc(id, cell.load(Ordering::Relaxed));
        }
        let epoch = r.gauge("epoch");
        r.set(epoch, self.handle.epoch() as f64);
        let depth = r.gauge("queue_depth");
        r.set(depth, self.depth.load(Ordering::Relaxed) as f64);
        let level = r.gauge("shed_level");
        r.set(level, self.level.load(Ordering::Relaxed) as f64);
        let lat = self.route_latency_us.lock().expect("latency lock");
        r.adopt_histogram("route_latency_us", lat.clone());
        r
    }
}

// ---------------------------------------------------------------------------
// SIGTERM
// ---------------------------------------------------------------------------

static TERM: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM/SIGINT has been delivered (after
/// [`install_signal_handlers`]).
pub fn termination_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

/// Installs SIGTERM/SIGINT handlers that request a clean drain. No-op
/// off Unix.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Installs SIGTERM/SIGINT handlers that request a clean drain. No-op
/// off Unix.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

// ---------------------------------------------------------------------------
// The miner thread
// ---------------------------------------------------------------------------

struct MinerConfig {
    block: u64,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    spin: u64,
}

fn miner_loop(
    mut m: Maintainer,
    rx: Receiver<(HostId, HostId)>,
    shared: Arc<Shared>,
    cfg: MinerConfig,
) -> Result<Maintainer, String> {
    while let Ok((src, via)) = rx.recv() {
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        m.observe(src, via);
        if cfg.spin > 0 {
            let mut acc = 0u64;
            for i in 0..cfg.spin {
                acc = std::hint::black_box(acc.wrapping_add(i));
            }
        }
        let consumed = m.consumed();
        if cfg.block > 0 && consumed.is_multiple_of(cfg.block) {
            if shared.shed_enabled && shared.level.load(Ordering::Relaxed) >= 1 {
                // Overloaded: skip the refresh, keep absorbing pairs.
                Shared::bump(&shared.c.shed_refreshes);
            } else {
                shared.handle.publish(m.ruleset());
                Shared::bump(&shared.c.refreshes);
            }
        }
        if cfg.checkpoint_every > 0 && consumed.is_multiple_of(cfg.checkpoint_every) {
            if let Some(path) = &cfg.checkpoint {
                write_atomic(path, encode_checkpoint(&m).as_bytes())
                    .map_err(|e| format!("writing checkpoint {path}: {e}"))?;
                Shared::bump(&shared.c.checkpoints);
            }
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Final summary of one service run (also serialized to `--out`).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Canonical maintainer spec.
    pub maintainer: String,
    /// Frames processed.
    pub events: u64,
    /// Pairs handed to the miner.
    pub pairs: u64,
    /// Pairs skipped on restart (already covered by the checkpoint).
    pub skipped: u64,
    /// Route lookups answered.
    pub routes: u64,
    /// Lookups answered from rules / by flood fallback / shed.
    pub outcomes: (u64, u64, u64),
    /// Ruleset refreshes published.
    pub refreshes: u64,
    /// Refreshes skipped under overload.
    pub shed_refreshes: u64,
    /// Pairs dropped under overload.
    pub shed_pairs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Final publish epoch.
    pub epoch: u64,
    /// Rules in the final set.
    pub rules: usize,
    /// FNV-1a digest of the final rule set.
    pub ruleset_digest: u64,
    /// Route-lookup service latency p50/p99 in microseconds (None when
    /// no lookups were answered). Quantiles come from the fixed-range
    /// histogram, so values clamp at its 10ms ceiling.
    pub route_latency_us: Option<(f64, f64)>,
    /// Bound metrics address, when the endpoint was enabled.
    pub metrics_addr: Option<String>,
    /// False when a stop request cut ingest before EOF.
    pub drained: bool,
}

impl ServeSummary {
    /// The summary as a JSON artifact.
    pub fn to_json(&self) -> Json {
        let (rules, flood, shed) = self.outcomes;
        Json::obj([
            ("serve", Json::from(format!("v{CHECKPOINT_VERSION}"))),
            ("maintainer", Json::from(&self.maintainer)),
            ("events", Json::from(self.events)),
            ("pairs", Json::from(self.pairs)),
            ("skipped", Json::from(self.skipped)),
            ("routes", Json::from(self.routes)),
            (
                "outcomes",
                Json::obj([
                    ("rules", Json::from(rules)),
                    ("flood", Json::from(flood)),
                    ("shed", Json::from(shed)),
                ]),
            ),
            ("refreshes", Json::from(self.refreshes)),
            ("shed_refreshes", Json::from(self.shed_refreshes)),
            ("shed_pairs", Json::from(self.shed_pairs)),
            ("checkpoints", Json::from(self.checkpoints)),
            ("epoch", Json::from(self.epoch)),
            ("rules", Json::from(self.rules)),
            (
                "ruleset_digest",
                Json::from(format!("{:016x}", self.ruleset_digest)),
            ),
            (
                "route_p50_us",
                self.route_latency_us
                    .map_or(Json::Null, |(p50, _)| Json::Float(p50)),
            ),
            (
                "route_p99_us",
                self.route_latency_us
                    .map_or(Json::Null, |(_, p99)| Json::Float(p99)),
            ),
            ("drained", Json::from(self.drained)),
        ])
    }

    /// A human-readable run report.
    pub fn report(&self) -> String {
        let (rules, flood, shed) = self.outcomes;
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "serve: maintainer {}", self.maintainer);
        if let Some(addr) = &self.metrics_addr {
            let _ = writeln!(s, "  metrics:         http://{addr}/metrics");
        }
        let _ = writeln!(
            s,
            "  events:          {} ({} pairs, {} skipped by checkpoint)",
            self.events, self.pairs, self.skipped
        );
        let _ = writeln!(
            s,
            "  routes:          {} ({} rules, {} flood, {} shed)",
            self.routes, rules, flood, shed
        );
        if let Some((p50, p99)) = self.route_latency_us {
            let _ = writeln!(s, "  route latency:   p50 {p50:.0}us  p99 {p99:.0}us");
        }
        let _ = writeln!(
            s,
            "  refreshes:       {} published, {} shed; {} pairs dropped",
            self.refreshes, self.shed_refreshes, self.shed_pairs
        );
        let _ = writeln!(
            s,
            "  checkpoints:     {} written{}",
            self.checkpoints,
            if self.drained { "" } else { " (stopped early)" }
        );
        let _ = writeln!(
            s,
            "  final rules:     {} at epoch {} digest {:016x}",
            self.rules, self.epoch, self.ruleset_digest
        );
        s
    }
}

/// A running service: miner thread, shared state, optional metrics
/// endpoint, and the ingest-side replay cursor.
struct Server {
    cfg: ServeConfig,
    spec: String,
    shared: Arc<Shared>,
    tx: Option<SyncSender<(HostId, HostId)>>,
    miner: Option<JoinHandle<Result<Maintainer, String>>>,
    skip: u64,
    skipped_total: u64,
    metrics_stop: Arc<AtomicBool>,
    metrics_join: Option<JoinHandle<()>>,
    metrics_addr: Option<String>,
}

impl Server {
    fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let fresh = Maintainer::from_spec(&cfg.spec)?;
        let spec = fresh.spec();
        let mut skip = 0;
        let maintainer = match &cfg.checkpoint {
            Some(path) => match read_checkpoint(path, &spec)? {
                Some(restored) => {
                    skip = restored.consumed();
                    restored
                }
                None => fresh,
            },
            None => fresh,
        };
        let shared = Arc::new(Shared::new(cfg.queue.max(1), cfg.shed));
        if skip > 0 {
            // Serve restored rules immediately; don't wait for the first
            // block boundary after a restart.
            shared.handle.publish(maintainer.ruleset());
        }
        let (tx, rx) = mpsc::sync_channel(cfg.queue.max(1));
        let miner_cfg = MinerConfig {
            block: cfg.block,
            checkpoint: cfg.checkpoint.clone(),
            checkpoint_every: cfg.checkpoint_every,
            spin: cfg.spin,
        };
        let miner_shared = Arc::clone(&shared);
        let miner = std::thread::Builder::new()
            .name("arq-serve-miner".to_string())
            .spawn(move || miner_loop(maintainer, rx, miner_shared, miner_cfg))
            .map_err(|e| err(format!("spawning miner thread: {e}")))?;
        let metrics_stop = Arc::new(AtomicBool::new(false));
        let (metrics_join, metrics_addr) = match &cfg.metrics {
            Some(addr) => {
                let (join, bound) =
                    spawn_metrics(addr, Arc::clone(&shared), Arc::clone(&metrics_stop))?;
                (Some(join), Some(bound))
            }
            None => (None, None),
        };
        Ok(Server {
            cfg,
            spec,
            shared,
            tx: Some(tx),
            miner: Some(miner),
            skip,
            skipped_total: 0,
            metrics_stop,
            metrics_join,
            metrics_addr,
        })
    }

    fn stopping(&self) -> bool {
        self.cfg.stop.load(Ordering::Relaxed) || termination_requested()
    }

    /// Handles one frame payload, writing any reply frame to `out`.
    fn handle_payload(&mut self, payload: &str, out: &mut dyn Write) -> Result<(), ServeError> {
        Shared::bump(&self.shared.c.events);
        let event = match parse_event(payload) {
            Ok(event) => event,
            Err(e) => {
                // A malformed event is the client's bug, not grounds to
                // kill everyone else's stream: report it in-band.
                let reply = Json::obj([
                    ("ev", Json::from("error")),
                    ("error", Json::from(e.message)),
                ]);
                write_frame(out, &reply.to_string())
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing error reply: {e}")))?;
                return Ok(());
            }
        };
        match event {
            Event::Pair { src, via } => {
                self.shared.update_ladder();
                if self.skip > 0 {
                    self.skip -= 1;
                    self.skipped_total += 1;
                    Shared::bump(&self.shared.c.skipped);
                    return Ok(());
                }
                let tx = self.tx.as_ref().expect("ingest after finish");
                if self.cfg.shed {
                    match tx.try_send((src, via)) {
                        Ok(()) => {
                            self.shared.depth.fetch_add(1, Ordering::Relaxed);
                            Shared::bump(&self.shared.c.pairs);
                        }
                        Err(TrySendError::Full(_)) => self.shared.on_queue_full(),
                        Err(TrySendError::Disconnected(_)) => {
                            return Err(err("mining thread exited"));
                        }
                    }
                } else {
                    // Lossless mode: block until the miner makes room.
                    // The depth bump precedes send so a blocked producer
                    // reads as a full queue to observers.
                    self.shared.depth.fetch_add(1, Ordering::Relaxed);
                    if tx.send((src, via)).is_err() {
                        return Err(err("mining thread exited"));
                    }
                    Shared::bump(&self.shared.c.pairs);
                }
            }
            Event::Route { id, src, k } => {
                let t0 = Instant::now();
                let k = if k == 0 { self.cfg.k } else { k };
                let overloaded = self.cfg.shed && self.shared.level.load(Ordering::Relaxed) >= 2;
                let (outcome, vias) = if overloaded {
                    Shared::bump(&self.shared.c.route_shed);
                    ("shed", Vec::new())
                } else {
                    match self.shared.handle.route(src, k) {
                        RouteDecision::Rules(vias) => {
                            Shared::bump(&self.shared.c.route_rules);
                            ("rules", vias)
                        }
                        RouteDecision::Flood => {
                            Shared::bump(&self.shared.c.route_flood);
                            ("flood", Vec::new())
                        }
                    }
                };
                Shared::bump(&self.shared.c.routes);
                let reply = Json::obj([
                    ("ev", Json::from("routed")),
                    ("id", Json::from(id)),
                    ("outcome", Json::from(outcome)),
                    (
                        "via",
                        Json::Arr(vias.iter().map(|h| Json::from(h.0)).collect()),
                    ),
                    ("epoch", Json::from(self.shared.handle.epoch())),
                ]);
                write_frame(out, &reply.to_string())
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing route reply: {e}")))?;
                let us = t0.elapsed().as_secs_f64() * 1e6;
                self.shared
                    .route_latency_us
                    .lock()
                    .expect("latency lock")
                    .record(us);
            }
            Event::Stats { id } => {
                let c = &self.shared.c;
                let reply = Json::obj([
                    ("ev", Json::from("stats")),
                    ("id", Json::from(id)),
                    ("events", Json::from(c.events.load(Ordering::Relaxed))),
                    ("pairs", Json::from(c.pairs.load(Ordering::Relaxed))),
                    ("routes", Json::from(c.routes.load(Ordering::Relaxed))),
                    ("epoch", Json::from(self.shared.handle.epoch())),
                    (
                        "queue_depth",
                        Json::from(self.shared.depth.load(Ordering::Relaxed) as u64),
                    ),
                    (
                        "shed_level",
                        Json::from(u64::from(self.shared.level.load(Ordering::Relaxed))),
                    ),
                ]);
                write_frame(out, &reply.to_string())
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing stats reply: {e}")))?;
            }
        }
        Ok(())
    }

    /// Drains the queue, writes the final checkpoint, and builds the
    /// summary.
    fn finish(mut self, drained: bool) -> Result<ServeSummary, ServeError> {
        drop(self.tx.take());
        let maintainer = self
            .miner
            .take()
            .expect("finish called twice")
            .join()
            .map_err(|_| err("mining thread panicked"))?
            .map_err(err)?;
        // Publish the final state so the summary epoch/rules reflect
        // everything consumed, even mid-block or under shed.
        let final_rules = maintainer.ruleset();
        let epoch = self.shared.handle.publish(final_rules.clone());
        Shared::bump(&self.shared.c.refreshes);
        if let Some(path) = &self.cfg.checkpoint {
            write_atomic(path, encode_checkpoint(&maintainer).as_bytes())
                .map_err(|e| err(format!("writing checkpoint {path}: {e}")))?;
            Shared::bump(&self.shared.c.checkpoints);
        }
        self.metrics_stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.metrics_join.take() {
            let _ = join.join();
        }
        let route_latency_us = {
            let lat = self.shared.route_latency_us.lock().expect("latency lock");
            match (lat.quantile(0.50), lat.quantile(0.99)) {
                (Some(p50), Some(p99)) => Some((p50, p99)),
                _ => None,
            }
        };
        let c = &self.shared.c;
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        Ok(ServeSummary {
            maintainer: self.spec.clone(),
            events: load(&c.events),
            pairs: load(&c.pairs),
            skipped: self.skipped_total,
            routes: load(&c.routes),
            outcomes: (
                load(&c.route_rules),
                load(&c.route_flood),
                load(&c.route_shed),
            ),
            refreshes: load(&c.refreshes),
            shed_refreshes: load(&c.shed_refreshes),
            shed_pairs: load(&c.shed_pairs),
            checkpoints: load(&c.checkpoints),
            epoch,
            rules: final_rules.rule_count(),
            ruleset_digest: final_rules.digest(),
            route_latency_us,
            metrics_addr: self.metrics_addr.clone(),
            drained,
        })
    }
}

/// What the byte pump delivered.
enum Feed {
    Data(Vec<u8>),
    Eof,
}

/// Reads `r` on a dedicated thread and forwards chunks, so the ingest
/// loop can poll the stop flag instead of blocking in `read` (a blocked
/// `read` on stdin would otherwise swallow a SIGTERM until the next
/// frame). The thread ends at EOF or when the receiver is dropped and
/// the next read completes.
fn pump(mut r: impl Read + Send + 'static) -> Receiver<Feed> {
    let (tx, rx) = mpsc::sync_channel(8);
    std::thread::Builder::new()
        .name("arq-serve-input".to_string())
        .spawn(move || {
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                match r.read(&mut chunk) {
                    Ok(0) => {
                        let _ = tx.send(Feed::Eof);
                        return;
                    }
                    Ok(n) => {
                        if tx.send(Feed::Data(chunk[..n].to_vec())).is_err() {
                            return;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => {
                        let _ = tx.send(Feed::Eof);
                        return;
                    }
                }
            }
        })
        .expect("spawning input pump");
    rx
}

/// Runs the ingest loop over one byte stream until EOF or a stop
/// request, writing reply frames to `replies`. Returns `(drained,
/// truncated)` — `drained` false when stopped early, `truncated` true
/// when EOF cut a frame in half.
fn ingest_stream(
    server: &mut Server,
    input: impl Read + Send + 'static,
    replies: &mut dyn Write,
) -> Result<bool, ServeError> {
    let feed_rx = pump(input);
    let mut frames = FrameReader::new();
    let mut eof = false;
    loop {
        while let Some(payload) = frames.next_payload()? {
            server.handle_payload(payload, replies)?;
        }
        if eof {
            if !frames.is_drained() {
                return Err(err("input ended mid-frame (truncated stream)"));
            }
            return Ok(true);
        }
        if server.stopping() {
            return Ok(false);
        }
        match feed_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Feed::Data(bytes)) => frames.feed(&bytes),
            Ok(Feed::Eof) | Err(mpsc::RecvTimeoutError::Disconnected) => eof = true,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Runs the service over one event stream (stdin or a file). Reply
/// frames go to `replies`.
pub fn run_events(
    cfg: ServeConfig,
    input: impl Read + Send + 'static,
    replies: &mut dyn Write,
) -> Result<ServeSummary, ServeError> {
    let mut server = Server::start(cfg)?;
    let drained = ingest_stream(&mut server, input, replies)?;
    server.finish(drained)
}

/// Runs the service on a Unix domain socket, accepting one connection
/// at a time until a stop request. Mining state and the replay cursor
/// persist across connections.
#[cfg(unix)]
pub fn run_socket(cfg: ServeConfig, path: &str) -> Result<ServeSummary, ServeError> {
    use std::os::unix::net::UnixListener;
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(err(format!("removing stale socket {path}: {e}"))),
    }
    let listener =
        UnixListener::bind(path).map_err(|e| err(format!("binding socket {path}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| err(format!("socket {path}: {e}")))?;
    let mut server = Server::start(cfg)?;
    let mut drained = true;
    while !server.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| err(format!("socket stream: {e}")))?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| err(format!("socket stream: {e}")))?;
                let mut writer = stream;
                // EOF here is just the client hanging up; keep serving.
                drained = ingest_stream(&mut server, reader, &mut writer)?;
                if !drained {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(err(format!("accepting on {path}: {e}"))),
        }
    }
    let summary = server.finish(drained);
    let _ = std::fs::remove_file(path);
    summary
}

// ---------------------------------------------------------------------------
// Metrics endpoint
// ---------------------------------------------------------------------------

/// Serves the registry snapshot as Prometheus plaintext over HTTP on
/// `addr` (a `host:port`; port 0 picks one). Returns the accept-loop
/// handle and the bound address.
fn spawn_metrics(
    addr: &str,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) -> Result<(JoinHandle<()>, String), ServeError> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| err(format!("binding metrics endpoint {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| err(format!("metrics endpoint {addr}: {e}")))?
        .to_string();
    listener
        .set_nonblocking(true)
        .map_err(|e| err(format!("metrics endpoint {addr}: {e}")))?;
    let join = std::thread::Builder::new()
        .name("arq-serve-metrics".to_string())
        .spawn(move || loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    // Drain (part of) the request; any request gets the
                    // same scrape.
                    let mut request = [0u8; 1024];
                    let _ = stream.read(&mut request);
                    let body = to_prometheus(&shared.registry(), "arq_serve");
                    let _ = write!(
                        stream,
                        "HTTP/1.0 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\n\
                         content-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    );
                }
                Err(_) => {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        })
        .map_err(|e| err(format!("spawning metrics thread: {e}")))?;
    Ok((join, bound))
}

// ---------------------------------------------------------------------------
// Event stream generation (the `gen-events` command)
// ---------------------------------------------------------------------------

/// Renders a pair record as a `pair` event frame payload (full trace
/// schema, though the service only needs `src`/`via`).
pub fn pair_event_json(p: &arq_trace::record::PairRecord) -> String {
    Json::obj([
        ("ev", Json::from("pair")),
        ("time", Json::from(p.time.ticks())),
        ("guid", Json::from(format!("{:032x}", p.guid.0))),
        ("src", Json::from(p.src.0)),
        ("via", Json::from(p.via.0)),
        ("responder", Json::from(p.responder.0)),
        ("query", Json::from(p.query.0)),
    ])
    .to_string()
}

/// Renders a framed event stream for a synthetic trace: every pair as a
/// `pair` frame, plus a `route` lookup (for the pair's own antecedent)
/// after every `route_every` pairs when nonzero.
pub fn render_event_stream(pairs: &[arq_trace::record::PairRecord], route_every: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 96);
    let mut lookup_id = 0u64;
    for (i, p) in pairs.iter().enumerate() {
        write_frame(&mut out, &pair_event_json(p)).expect("vec write");
        if route_every > 0 && (i + 1) % route_every == 0 {
            lookup_id += 1;
            let route = Json::obj([
                ("ev", Json::from("route")),
                ("id", Json::from(lookup_id)),
                ("src", Json::from(p.src.0)),
            ]);
            write_frame(&mut out, &route.to_string()).expect("vec write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_trace::record::PairRecord;
    use arq_trace::{SynthConfig, SynthTrace};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("arq-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trace(pairs: usize, seed: u64) -> Vec<PairRecord> {
        SynthTrace::new(SynthConfig::paper_default(pairs, seed)).pairs()
    }

    #[test]
    fn frame_round_trip_and_partials() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "{\"a\":1}").unwrap();
        write_frame(&mut bytes, "").unwrap();
        write_frame(&mut bytes, "hello").unwrap();
        let mut fr = FrameReader::new();
        // Feed byte-by-byte: partials must never produce a frame early.
        let mut got = Vec::new();
        for b in bytes {
            fr.feed(&[b]);
            while let Some(f) = fr.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, ["{\"a\":1}", "", "hello"]);
        assert!(fr.is_drained());
    }

    #[test]
    fn bad_length_header_is_an_error() {
        let mut fr = FrameReader::new();
        fr.feed(b"xyz\npayload\n");
        assert!(fr
            .next_frame()
            .unwrap_err()
            .message
            .contains("length header"));
    }

    #[test]
    fn missing_frame_terminator_is_an_error() {
        let mut fr = FrameReader::new();
        fr.feed(b"2\nabX");
        let e = fr.next_frame().unwrap_err();
        assert!(e.message.contains("not followed by newline"), "{e}");
    }

    #[test]
    fn event_parsing_names_the_missing_field() {
        assert_eq!(
            parse_event("{\"ev\":\"pair\",\"src\":1,\"via\":2}").unwrap(),
            Event::Pair {
                src: HostId(1),
                via: HostId(2)
            }
        );
        let e = parse_event("{\"ev\":\"pair\",\"src\":1}").unwrap_err();
        assert!(e.message.contains("`via`"), "{e}");
        let e = parse_event("{\"ev\":\"warp\"}").unwrap_err();
        assert!(e.message.contains("unknown event kind `warp`"), "{e}");
    }

    #[test]
    fn event_integers_must_fit_their_type() {
        let rejected = [
            (r#"{"ev":"pair","src":-1,"via":2}"#, "`src`", "u32, got -1"),
            (
                r#"{"ev":"pair","src":4294967297,"via":2}"#,
                "`src`",
                "u32, got 4294967297",
            ),
            (
                r#"{"ev":"pair","src":1,"via":2.7}"#,
                "`via`",
                "u32, got 2.7",
            ),
            (
                r#"{"ev":"pair","src":1,"via":"2"}"#,
                "`via`",
                "u32, got \"2\"",
            ),
            (
                r#"{"ev":"route","id":1,"src":3,"k":1e30}"#,
                "`k`",
                "usize, got 1",
            ),
            (
                r#"{"ev":"route","id":1,"src":3,"k":-2}"#,
                "`k`",
                "usize, got -2",
            ),
            (
                r#"{"ev":"route","id":1,"src":3,"k":"4"}"#,
                "`k`",
                "usize, got \"4\"",
            ),
            (r#"{"ev":"route","id":-1,"src":3}"#, "`id`", "u64, got -1"),
            (
                r#"{"ev":"stats","id":18446744073709551616}"#,
                "`id`",
                "u64, got 1844",
            ),
            (r#"{"ev":"stats","id":2.0}"#, "`id`", "u64, got 2.0"),
            (r#"{"ev":"stats","id":null}"#, "`id`", "u64, got null"),
            (
                r#"{"ev":"pair","src":-1,"src":1,"via":2}"#,
                "`src`",
                "u32, got -1",
            ),
        ];
        for (payload, field, got) in rejected {
            let e = parse_event(payload).unwrap_err().message;
            assert!(
                e.contains(&format!("field {field} must be a non-negative integer")),
                "{e}"
            );
            assert!(e.contains(got), "{payload}: {e}");
        }
        assert_eq!(
            parse_event(r#"{"ev":"pair","src":4294967295,"via":-0,"src":-1}"#).unwrap(),
            Event::Pair {
                src: HostId(u32::MAX),
                via: HostId(0)
            }
        );
        assert_eq!(
            parse_event(r#"{"ev":"route","id":18446744073709551615,"src":3,"k":4}"#).unwrap(),
            Event::Route {
                id: u64::MAX,
                src: HostId(3),
                k: 4
            }
        );
        // Fields an event does not read are not checked.
        assert!(parse_event(r#"{"ev":"pair","src":1,"via":2,"k":-1,"id":0.5}"#).is_ok());
        // In band, a bad number is an error reply, never a pair.
        let mut stream = Vec::new();
        for (payload, _, _) in &rejected {
            write_frame(&mut stream, payload).unwrap();
        }
        let mut replies = Vec::new();
        let summary = run_events(
            ServeConfig::default(),
            std::io::Cursor::new(stream),
            &mut replies,
        )
        .unwrap();
        assert_eq!(summary.pairs, 0);
        assert_eq!(summary.routes, 0);
        let mut fr = FrameReader::new();
        fr.feed(&replies);
        let mut errors = 0;
        while let Some(reply) = fr.next_payload().unwrap() {
            assert!(reply.contains("\"ev\":\"error\""), "{reply}");
            assert!(reply.contains("must be a non-negative integer"), "{reply}");
            errors += 1;
        }
        assert_eq!(errors, rejected.len());
    }

    #[test]
    fn oversized_frame_is_a_typed_error() {
        let mut fr = FrameReader::new();
        fr.feed(b"99999999999\n");
        let e = fr.next_payload().unwrap_err().message;
        assert!(e.contains("99999999999") && e.contains("1048576"), "{e}");
        let mut fr = FrameReader::new();
        fr.feed(format!("{}\n", MAX_FRAME_BYTES + 1).as_bytes());
        assert!(fr.next_payload().is_err());
        // A frame of exactly the limit is accepted.
        let payload = "x".repeat(MAX_FRAME_BYTES);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        let mut fr = FrameReader::new();
        fr.feed(&bytes);
        assert_eq!(fr.next_payload().unwrap(), Some(payload.as_str()));
    }

    /// The tree-based decoder `parse_event` replaced, kept as the
    /// reference the single-pass decoder is checked against.
    fn reference_parse_event(payload: &str) -> Result<Event, ServeError> {
        let doc = json::parse(payload).map_err(|e| err(format!("bad event JSON: {e}")))?;
        let ev = doc
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| err("event missing string field `ev`"))?;
        let field_u64 = |name: &str| -> Result<u64, ServeError> {
            doc.get(name)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| err(format!("`{ev}` event missing numeric field `{name}`")))
        };
        match ev {
            "pair" => Ok(Event::Pair {
                src: HostId(field_u64("src")? as u32),
                via: HostId(field_u64("via")? as u32),
            }),
            "route" => Ok(Event::Route {
                id: doc.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                src: HostId(field_u64("src")? as u32),
                k: doc.get("k").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            }),
            "stats" => Ok(Event::Stats {
                id: doc.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            }),
            other => Err(err(format!(
                "unknown event kind `{other}` (expected `pair`, `route`, or `stats`)"
            ))),
        }
    }

    /// What `parse_event` must return: the reference's result, except
    /// that a numeric field the event reads (in the order it reads them)
    /// holding anything but a non-negative integer that fits its type is
    /// now an error naming it, where the reference cast it.
    fn expected_event(payload: &str) -> Result<Event, String> {
        let reference = reference_parse_event(payload).map_err(|e| e.message);
        let Ok(doc) = json::parse(payload) else {
            return reference;
        };
        let Some(ev) = doc.get("ev").and_then(Json::as_str) else {
            return reference;
        };
        // (field, required, largest value, type name)
        let fields: &[(&str, bool, u64, &str)] = match ev {
            "pair" => &[
                ("src", true, 0xFFFF_FFFF, "u32"),
                ("via", true, 0xFFFF_FFFF, "u32"),
            ],
            "route" => &[
                ("id", false, u64::MAX, "u64"),
                ("src", true, 0xFFFF_FFFF, "u32"),
                ("k", false, usize::MAX as u64, "usize"),
            ],
            "stats" => &[("id", false, u64::MAX, "u64")],
            _ => &[],
        };
        for &(name, required, max, ty) in fields {
            match doc.get(name) {
                None if required => break,
                None => {}
                Some(&Json::Int(i)) if (0..=i128::from(max)).contains(&i) => {}
                Some(v) => {
                    return Err(format!(
                        "`{ev}` event field `{name}` must be a non-negative integer that fits in {ty}, got {v}"
                    ))
                }
            }
        }
        reference
    }

    #[test]
    fn decoder_matches_the_tree_reference() {
        use arq_simkern::rng::Rng64;
        let mut corpus: Vec<String> = Vec::new();
        let stream = render_event_stream(&trace(300, 3), 7);
        let mut fr = FrameReader::new();
        fr.feed(&stream);
        while let Some(payload) = fr.next_payload().unwrap() {
            corpus.push(payload.to_string());
        }
        corpus.extend(
            [
                r#"{"via":2,"src":1,"ev":"pair"}"#,
                r#"{"ev":"pair","src":1,"via":2,"src":9,"via":8,"ev":"route"}"#,
                r#"{"ev":1,"ev":"pair","src":1,"via":2}"#,
                r#"{"ev":"pair","src":5,"via":6}"#,
                r#"{"ev":"pair","src":5,"via":6}"#,
                "\t{ \"ev\" :\n\"route\" , \"id\" : 7 ,\"src\":3 ,\"k\" :2 }\r\n",
                r#"{"ev":"route","id":7,"src":3,"meta":{"a":[1,{"b":null}],"c":"\"}"}}"#,
                r#"{"ev":"route","src":3,"k":[1],"id":{"n":1}}"#,
                r#"{"ev":"stats"}"#,
                r#"{"ev":"stats","id":"x"}"#,
                r#"{"ev":"pair","src":"1","via":2}"#,
                r#"{"ev":"pair","src":null,"via":2}"#,
                r#"{"ev":"pair","src":1}"#,
                r#"{"ev":"pair","src":-1}"#,
                r#"{"ev":"route","id":-1,"k":-1}"#,
                r#"{"ev":"route","src":1e3,"id":1.5}"#,
                r#"{"ev":"pair","src":1,"via":2}[]"#,
                r#"{"ev":"pair","src":1,"via":2,}"#,
                r#"{"ev":"warp","src":1}"#,
                r#"{"ev":"é😀"}"#,
                r#"{"ev":"pair","src":1,"via":2,"note":"日本 \u0000 \ud83d"}"#,
                r#"{}"#,
                r#"[{"ev":"pair","src":1,"via":2}]"#,
                r#""pair""#,
                "null",
                "42",
                "",
                "   ",
            ]
            .map(str::to_string),
        );
        let valid = [
            corpus[0].clone(),
            corpus[7].clone(),
            r#"{"ev":"route","id":7,"src":3,"k":2,"x":[1,{"y":"é"}]}"#.to_string(),
        ];
        for payload in &valid {
            for cut in (0..payload.len()).filter(|&cut| payload.is_char_boundary(cut)) {
                corpus.push(payload[..cut].to_string());
            }
        }
        let mut rng = Rng64::seed_from(0xDEC0DE);
        const BYTES: &[u8] = b"{}[]\":,\\ -+0123456789.eEtrufalsn\n\tavdk";
        for _ in 0..3_000 {
            let mut bytes = rng.pick(&valid).clone().into_bytes();
            let at = rng.index(bytes.len() + 1);
            let b = *rng.pick(BYTES);
            match rng.index(3) {
                0 if at < bytes.len() => bytes[at] = b,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, b),
            }
            // Mutations inside a multibyte scalar are not a `&str`.
            if let Ok(text) = String::from_utf8(bytes) {
                corpus.push(text);
            }
        }
        let mut checked = (0, 0);
        for payload in &corpus {
            let got = parse_event(payload).map_err(|e| e.message);
            assert_eq!(got, expected_event(payload), "payload {payload:?}");
            if got.is_ok() {
                checked.0 += 1;
            } else {
                checked.1 += 1;
            }
        }
        // Both outcomes are well represented.
        assert!(checked.0 > 400 && checked.1 > 1_000, "{checked:?}");
    }

    #[test]
    fn damaged_streams_never_panic() {
        use arq_simkern::rng::Rng64;
        let stream = render_event_stream(&trace(200, 9), 5);
        let mut rng = Rng64::seed_from(0xF1A5);
        for case in 0..300 {
            let mut bytes = stream.clone();
            if case % 2 == 0 {
                bytes.truncate(rng.index(bytes.len()));
            }
            for _ in 0..rng.index(4) {
                let at = rng.index(bytes.len().max(1));
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << rng.index(8);
                }
            }
            let mut fr = FrameReader::new();
            let mut fed = 0;
            'feed: while fed < bytes.len() {
                let n = (1 + rng.index(4_096)).min(bytes.len() - fed);
                fr.feed(&bytes[fed..fed + n]);
                fed += n;
                loop {
                    match fr.next_payload() {
                        Ok(Some(payload)) => {
                            let _ = parse_event(payload);
                        }
                        Ok(None) => break,
                        Err(_) => break 'feed,
                    }
                }
            }
        }
    }

    #[test]
    fn maintainer_specs_round_trip() {
        let m = Maintainer::from_spec("incremental").unwrap();
        assert_eq!(m.spec(), "incremental(t=10,hl=20000)");
        let m = Maintainer::from_spec("lossy(t=5,eps=0.001)").unwrap();
        assert_eq!(m.spec(), "lossy(t=5,eps=0.001)");
        let e = Maintainer::from_spec("magic").unwrap_err();
        assert!(e.message.contains("unknown maintainer `magic`"), "{e}");
        let e = Maintainer::from_spec("incremental(zap=1)").unwrap_err();
        assert!(e.message.contains("no parameter `zap`"), "{e}");
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        for spec in ["incremental(t=2,hl=500)", "lossy(t=2,eps=0.01)"] {
            let mut m = Maintainer::from_spec(spec).unwrap();
            for p in trace(3_000, 7) {
                m.observe(p.src, p.via);
            }
            let restored = decode_checkpoint(&encode_checkpoint(&m), &m.spec()).unwrap();
            assert_eq!(restored.consumed(), m.consumed(), "{spec}");
            assert_eq!(
                restored.ruleset().digest(),
                m.ruleset().digest(),
                "{spec} digest"
            );
            // The restored state must also *evolve* identically.
            let mut m2 = restored;
            let mut m1 = m;
            for p in trace(500, 8) {
                m1.observe(p.src, p.via);
                m2.observe(p.src, p.via);
            }
            assert_eq!(
                m1.ruleset().digest(),
                m2.ruleset().digest(),
                "{spec} suffix"
            );
        }
    }

    #[test]
    fn checkpoint_errors_are_typed() {
        let m = Maintainer::from_spec("incremental").unwrap();
        let text = encode_checkpoint(&m);
        let future = text.replacen("v1", "v9", 1);
        let e = decode_checkpoint(&future, &m.spec()).unwrap_err();
        assert!(e.message.contains("unsupported version `v9`"), "{e}");
        let e = decode_checkpoint(&text, "lossy(t=10,eps=0.0001)").unwrap_err();
        assert!(e.message.contains("configured as `lossy"), "{e}");
        let e = decode_checkpoint("garbage", &m.spec()).unwrap_err();
        assert!(
            e.message.contains("bad magic") || e.message.contains("header"),
            "{e}"
        );
    }

    #[test]
    fn end_to_end_stream_matches_direct_feed() {
        let pairs = trace(4_000, 42);
        let stream = render_event_stream(&pairs, 500);
        let cfg = ServeConfig {
            spec: "incremental(t=5,hl=2000)".to_string(),
            block: 1_000,
            queue: 64,
            ..ServeConfig::default()
        };
        let mut replies = Vec::new();
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut replies).unwrap();
        assert_eq!(summary.pairs, 4_000);
        assert_eq!(summary.routes, 8);
        assert!(summary.drained);
        assert!(summary.refreshes >= 4, "{}", summary.refreshes);
        // Same digest as feeding the maintainer directly.
        let mut direct = Maintainer::from_spec("incremental(t=5,hl=2000)").unwrap();
        for p in &pairs {
            direct.observe(p.src, p.via);
        }
        assert_eq!(summary.ruleset_digest, direct.ruleset().digest());
        // Replies are well-formed routed frames.
        let text = String::from_utf8(replies).unwrap();
        assert!(text.contains("\"ev\":\"routed\""), "{text}");
        assert!(text.contains("\"outcome\":\"rules\"") || text.contains("\"outcome\":\"flood\""));
    }

    #[test]
    fn malformed_events_get_error_replies_not_aborts() {
        let mut stream = Vec::new();
        write_frame(&mut stream, "{\"ev\":\"nope\"}").unwrap();
        write_frame(&mut stream, "{\"ev\":\"pair\",\"src\":1,\"via\":2}").unwrap();
        write_frame(&mut stream, "{\"ev\":\"stats\",\"id\":9}").unwrap();
        let mut replies = Vec::new();
        let summary = run_events(
            ServeConfig::default(),
            std::io::Cursor::new(stream),
            &mut replies,
        )
        .unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.pairs, 1);
        let text = String::from_utf8(replies).unwrap();
        assert!(text.contains("\"ev\":\"error\""), "{text}");
        assert!(text.contains("\"ev\":\"stats\""), "{text}");
    }

    #[test]
    fn kill_and_restart_reaches_the_uninterrupted_digest() {
        let dir = temp_dir("restart");
        let pairs = trace(6_000, 13);
        let full = render_event_stream(&pairs, 0);
        let spec = "incremental(t=4,hl=3000)".to_string();
        // Uninterrupted reference run.
        let reference = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(full.clone()),
            &mut Vec::new(),
        )
        .unwrap();
        // "Crashed" run: only a prefix of the stream arrives, but
        // checkpoints are being written along the way.
        let ckpt = dir.join("serve.ckpt").to_string_lossy().to_string();
        let cut = full.len() * 3 / 5;
        let mut prefix = full[..cut].to_vec();
        // Cut exactly at a frame boundary: drop the trailing partial.
        while !prefix.is_empty() && prefix.last() != Some(&b'\n') {
            prefix.pop();
        }
        // A partial frame at EOF is a truncation error — emulate the
        // crash by streaming only whole frames.
        let mut fr = FrameReader::new();
        fr.feed(&prefix);
        let mut whole = Vec::new();
        while let Ok(Some(f)) = fr.next_frame() {
            write_frame(&mut whole, &f).unwrap();
        }
        let crashed = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                checkpoint: Some(ckpt.clone()),
                checkpoint_every: 500,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(whole),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(crashed.checkpoints > 1, "{}", crashed.checkpoints);
        // Restart: full stream again, same checkpoint path. The replay
        // cursor skips what the checkpoint already covers.
        let restarted = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                checkpoint: Some(ckpt),
                checkpoint_every: 500,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(full),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(restarted.skipped > 0);
        assert_eq!(restarted.skipped + restarted.pairs, 6_000);
        assert_eq!(restarted.ruleset_digest, reference.ruleset_digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_explicitly_and_recovers() {
        // A deliberately slow miner (spin) and a tiny queue force the
        // ladder through all its levels.
        let mut stream = Vec::new();
        for i in 0..200u32 {
            write_frame(
                &mut stream,
                &format!("{{\"ev\":\"pair\",\"src\":{},\"via\":7}}", i % 5),
            )
            .unwrap();
        }
        write_frame(&mut stream, "{\"ev\":\"route\",\"id\":1,\"src\":0}").unwrap();
        let cfg = ServeConfig {
            spec: "incremental(t=2,hl=1000)".to_string(),
            block: 50,
            queue: 2,
            shed: true,
            spin: 500_000,
            ..ServeConfig::default()
        };
        let mut replies = Vec::new();
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut replies).unwrap();
        assert!(summary.shed_pairs > 0, "queue never filled");
        assert_eq!(
            summary.pairs + summary.shed_pairs,
            200,
            "drops must be counted, never silent"
        );
        let text = String::from_utf8(replies).unwrap();
        assert!(
            text.contains("\"outcome\":\"shed\""),
            "route under overload must answer `shed`: {text}"
        );
        assert_eq!(summary.outcomes.2, 1);
    }

    #[test]
    fn stop_flag_drains_early_but_cleanly() {
        let stop = Arc::new(AtomicBool::new(true)); // stop before the first frame
        let cfg = ServeConfig {
            stop: Arc::clone(&stop),
            ..ServeConfig::default()
        };
        let stream = render_event_stream(&trace(100, 1), 0);
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut Vec::new()).unwrap();
        assert!(!summary.drained);
        assert_eq!(summary.pairs, 0);
    }

    #[cfg(unix)]
    #[test]
    fn socket_serves_routes_across_connections() {
        use std::os::unix::net::UnixStream;
        let dir = temp_dir("socket");
        let sock = dir.join("arq.sock").to_string_lossy().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ServeConfig {
            spec: "incremental(t=2,hl=1000)".to_string(),
            block: 10,
            stop: Arc::clone(&stop),
            ..ServeConfig::default()
        };
        let sock2 = sock.clone();
        let service = std::thread::spawn(move || run_socket(cfg, &sock2));
        // Wait for the socket to appear.
        let mut stream = None;
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(&sock) {
                stream = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut stream = stream.expect("service socket never appeared");
        for _ in 0..20 {
            write_frame(&mut stream, "{\"ev\":\"pair\",\"src\":3,\"via\":9}").unwrap();
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut fr = FrameReader::new();
        let next_reply = |stream: &mut UnixStream, fr: &mut FrameReader| loop {
            if let Some(f) = fr.next_frame().unwrap() {
                break f;
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "service hung up early");
            fr.feed(&chunk[..n]);
        };
        // The miner publishes asynchronously; poll stats until the first
        // block refresh lands before asking for a rules answer.
        loop {
            write_frame(&mut stream, "{\"ev\":\"stats\",\"id\":1}").unwrap();
            let stats = next_reply(&mut stream, &mut fr);
            if !stats.contains("\"epoch\":0") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        write_frame(&mut stream, "{\"ev\":\"route\",\"id\":5,\"src\":3}").unwrap();
        let reply = next_reply(&mut stream, &mut fr);
        assert!(reply.contains("\"id\":5"), "{reply}");
        assert!(reply.contains("\"outcome\":\"rules\""), "{reply}");
        drop(stream);
        stop.store(true, Ordering::Relaxed);
        let summary = service.join().unwrap().unwrap();
        assert_eq!(summary.pairs, 20);
        assert_eq!(summary.routes, 1);
        assert!(
            !std::path::Path::new(&sock).exists(),
            "socket not cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_endpoint_scrapes_prometheus_text() {
        let shared = Arc::new(Shared::new(8, false));
        Shared::bump(&shared.c.events);
        Shared::bump(&shared.c.events);
        let stop = Arc::new(AtomicBool::new(false));
        let (join, addr) =
            spawn_metrics("127.0.0.1:0", Arc::clone(&shared), Arc::clone(&stop)).unwrap();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        std::io::BufReader::new(conn)
            .read_to_string(&mut body)
            .unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("arq_serve_events_total 2"), "{body}");
        assert!(
            body.contains("# TYPE arq_serve_route_latency_us histogram"),
            "{body}"
        );
        assert!(
            body.lines().any(|l| l.starts_with("arq_serve_epoch ")),
            "{body}"
        );
        stop.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }
}
