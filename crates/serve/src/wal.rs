//! Per-node write-ahead log for durable, exactly-once ingestion.
//!
//! The paper's dynamic models (DynCoverage, the OSLG refit) only stay
//! correct if every observed interaction is applied exactly once — but the
//! refit log lives in memory, so a node restart silently loses ratings and
//! a retried `/v1/ingest` double-applies one. This module closes both
//! holes:
//!
//! * **Durability** — every acknowledged ingest is appended to a
//!   length-prefixed, CRC32-checksummed, generation-stamped log *before*
//!   the acknowledgement, and replayed through the normal ingest path on
//!   startup. Replay recovers the longest valid record prefix: a torn tail
//!   or a flipped bit stops the replay cleanly at the first bad record —
//!   never a panic, never a garbage interaction applied.
//! * **Exactly-once** — ingests may carry an idempotency key. The engine
//!   that applies an ingest decides whether its key is a resend, in its
//!   own dedup window; the log only keeps the keys (they ride on their
//!   ingest records; truncation rewrites the keys the engine hands it as
//!   key-only stubs) and hands them back on replay, so the engine re-arms
//!   its window and a retried request is a no-op **across restarts** too.
//!
//! The log keeps no list of unrefitted ingests and no window of keys: the
//! sharded engine's refit log and dedup window are those, and a compaction
//! hands [`DurableLog::truncate`] what the next replay must recover — the
//! window's keys and the log's survivors (the ingests the persisted
//! artifact does not hold). The rewrite is atomic (write a fresh log beside
//! the live one, then `rename` over it) and holds one `Key` stub per
//! remembered key, in window order, then the survivors without keys —
//! replay returns the same keys in the same order and the same
//! interactions. [`Wal::open`] refuses, untouched, a
//! file that is not such a log. Process-death durability (the oracle in
//! `tests/wal_recovery.rs` SIGKILLs a node mid-storm) comes from the
//! ack-after-append discipline alone; **power-loss** durability is the
//! [`SyncPolicy`] knob on [`DurableConfig`] — `fdatasync` per append,
//! clock-driven group commit, or the OS-flush-only default.

use crate::engine::DEDUP_WINDOW;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::clock::{Background, Clock, SystemClock};
use ganc_obs::{ObsHub, TraceData};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Leading magic bytes of every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"GWAL";

/// WAL format version; bump on any framing or payload change.
pub const WAL_VERSION: u16 = 1;

/// File header: magic + version.
const HEADER: [u8; 6] = {
    let ([m0, m1, m2, m3], [v0, v1]) = (WAL_MAGIC, WAL_VERSION.to_le_bytes());
    [m0, m1, m2, m3, v0, v1]
};

/// Frame prefix: payload length (u32) + CRC32 of the payload (u32).
const FRAME_PREFIX: usize = 8;

/// Largest payload a reader accepts — guards a corrupted length prefix
/// from turning into a giant allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// Longest idempotency key accepted anywhere in the stack.
pub const MAX_KEY_LEN: usize = 128;

/// Validate an idempotency key at ingress: 1..=[`MAX_KEY_LEN`] bytes of
/// visible ASCII (`0x21..=0x7E`).
///
/// Enforced *before* a key reaches a WAL record or an outbound HTTP
/// header, because both layers have hard requirements the write path must
/// guarantee: the replay decoder treats keys longer than [`MAX_KEY_LEN`]
/// as corruption (an unchecked oversized key would become an acknowledged
/// record that replay refuses, truncating every acknowledged ingest behind
/// it), and the `Idempotency-Key` header is raw text on the wire (a CR/LF
/// or control byte in a client-supplied key would be header injection
/// against internal peers).
pub fn validate_key(key: &str) -> Result<(), &'static str> {
    if key.is_empty() {
        return Err("idempotency key must not be empty");
    }
    if key.len() > MAX_KEY_LEN {
        return Err("idempotency key longer than 128 bytes");
    }
    if !key.bytes().all(|b| (0x21..=0x7E).contains(&b)) {
        return Err("idempotency key must be visible ASCII without spaces or control characters");
    }
    Ok(())
}

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected), table-driven — std-only, no crates.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (n, slot) in table.iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// -------------------------------------------------------------- records

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An acknowledged ingest not yet covered by a persisted refit.
    /// Replay re-applies it and (when keyed) hands its key back.
    Ingest {
        /// Shard-set generation at acknowledgement time (diagnostic).
        generation: u64,
        /// User the rating came from.
        user: UserId,
        /// Item rated.
        item: ItemId,
        /// Rating value.
        rating: f32,
        /// Idempotency key the ingest carried, if any.
        key: Option<String>,
    },
    /// A dedup-key stub, one per key the engine remembered at a
    /// compaction: replay only hands the key back (an interaction the
    /// persisted artifact lacks follows as a keyless `Ingest`).
    Key {
        /// Generation whose truncation wrote the stub.
        generation: u64,
        /// The idempotency key.
        key: String,
    },
}

const TAG_INGEST: u8 = 0;
const TAG_KEY: u8 = 1;

fn push_key(out: &mut Vec<u8>, key: &str) {
    // Writers validate at ingress ([`validate_key`]); this backstop makes
    // it impossible to encode a record the replay decoder would refuse as
    // corrupt (and keeps the u16 length prefix from ever wrapping).
    assert!(
        key.len() <= MAX_KEY_LEN,
        "unvalidated idempotency key ({} bytes) reached the WAL encoder",
        key.len()
    );
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
}

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match rec {
        WalRecord::Ingest {
            generation,
            user,
            item,
            rating,
            key,
        } => {
            out.push(TAG_INGEST);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&user.0.to_le_bytes());
            out.extend_from_slice(&item.0.to_le_bytes());
            out.extend_from_slice(&rating.to_bits().to_le_bytes());
            push_key(&mut out, key.as_deref().unwrap_or(""));
        }
        WalRecord::Key { generation, key } => {
            out.push(TAG_KEY);
            out.extend_from_slice(&generation.to_le_bytes());
            push_key(&mut out, key);
        }
    }
    out
}

/// Encode one record as its complete wire frame:
/// `len:u32le | crc32(payload):u32le | payload`.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(FRAME_PREFIX + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.buf.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn key(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        if len > MAX_KEY_LEN {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let rec = match c.u8()? {
        TAG_INGEST => {
            let generation = c.u64()?;
            let user = UserId(c.u32()?);
            let item = ItemId(c.u32()?);
            let rating = f32::from_bits(c.u32()?);
            let key = c.key()?;
            WalRecord::Ingest {
                generation,
                user,
                item,
                rating,
                key: (!key.is_empty()).then_some(key),
            }
        }
        TAG_KEY => {
            let generation = c.u64()?;
            let key = c.key()?;
            if key.is_empty() {
                return None;
            }
            WalRecord::Key { generation, key }
        }
        _ => return None,
    };
    // Trailing bytes inside a CRC-valid payload mean a framing bug, not
    // line noise — refuse rather than guess.
    (c.at == payload.len()).then_some(rec)
}

/// What a replay of a record stream recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalReplaySummary {
    /// Records in the recovered (longest valid) prefix.
    pub records: u64,
    /// Bytes of that prefix, **excluding** the file header.
    pub bytes: u64,
    /// The stream ended at a torn or corrupt record instead of cleanly.
    pub corrupted: bool,
}

/// Decode a record stream (the file contents *after* the header),
/// recovering the longest valid prefix. Never panics; a bad length, a CRC
/// mismatch, an unknown tag, or a torn tail ends the replay at the last
/// good record.
pub fn decode_stream(buf: &[u8]) -> (Vec<WalRecord>, WalReplaySummary) {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut corrupted = false;
    loop {
        let rest = &buf[at..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < FRAME_PREFIX {
            corrupted = true;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD || rest.len() < FRAME_PREFIX + len as usize {
            corrupted = true;
            break;
        }
        let payload = &rest[FRAME_PREFIX..FRAME_PREFIX + len as usize];
        if crc32(payload) != crc {
            corrupted = true;
            break;
        }
        match decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => {
                corrupted = true;
                break;
            }
        }
        at += FRAME_PREFIX + len as usize;
    }
    let summary = WalReplaySummary {
        records: records.len() as u64,
        bytes: at as u64,
        corrupted,
    };
    (records, summary)
}

// ------------------------------------------------------------------ wal

/// The append handle over one WAL file.
///
/// [`Wal::open`] replays the existing file (recovering the longest valid
/// prefix and truncating any corrupt tail away, so later appends extend a
/// clean log, but refusing a file that is not a log of this format),
/// [`Wal::append`] adds one framed record, and
/// [`Wal::rewrite`] atomically replaces the whole file (write-beside +
/// `rename`).
pub struct Wal {
    path: PathBuf,
    file: File,
    records: u64,
    bytes: u64,
}

impl Wal {
    /// Open (or create) the WAL at `path`, replaying whatever it holds.
    ///
    /// A missing or empty file, or a torn prefix of the header (a crash
    /// during creation), starts a fresh log. Any other file without this
    /// format's header — an artifact, a newer log, a flipped header bit —
    /// is refused with `InvalidData` and left untouched.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Wal, Vec<WalRecord>, WalReplaySummary)> {
        let path = path.as_ref().to_path_buf();
        let mut buf = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let fresh = buf.len() < HEADER.len() && HEADER.starts_with(&buf);
        if !fresh && !buf.starts_with(&HEADER) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a GWAL v{WAL_VERSION} log", path.display()),
            ));
        }
        let (records, mut summary) = decode_stream(buf.get(HEADER.len()..).unwrap_or(&[]));
        // A torn header is a torn write, and nothing behind it was acked.
        summary.corrupted |= fresh && !buf.is_empty();
        let bytes = (HEADER.len() as u64) + summary.bytes;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if fresh {
            file.set_len(0)?;
            file.write_all(&HEADER)?;
        } else if bytes < buf.len() as u64 {
            // Drop the corrupt tail so future appends extend the valid
            // prefix instead of burying records behind garbage.
            file.set_len(bytes)?;
        }
        file.flush()?;
        let wal = Wal {
            path,
            file,
            records: records.len() as u64,
            bytes,
        };
        Ok((wal, records, summary))
    }

    /// Append one record (written before the caller acknowledges the
    /// ingest — the whole point). Flushed to the OS, not fsynced: pair
    /// with [`Wal::sync_data`] under a [`SyncPolicy`] for power-loss
    /// durability.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let frame = encode_record(rec);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Force appended records onto stable storage (`fdatasync`): the
    /// power-loss half of durability that [`Wal::append`]'s OS flush alone
    /// does not provide.
    pub fn sync_data(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Atomically replace the log's contents: write a sibling file, fsync
    /// it, `rename` over the live path. A crash at any point leaves either
    /// the old log or the new one — never a torn mix.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> io::Result<()> {
        let mut out = HEADER.to_vec();
        for rec in records {
            out.extend_from_slice(&encode_record(rec));
        }
        crate::saveload::atomic_write(&self.path, &out)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.records = records.len() as u64;
        self.bytes = out.len() as u64;
        Ok(())
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently in the log (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------- durable log

/// When acknowledged appends reach **stable storage**, closing (or
/// bounding) the power-loss window that [`Wal::append`]'s OS-level flush
/// leaves open. Orthogonal to process-crash durability: every policy
/// survives SIGKILL; the policies differ only in what a power cut or
/// kernel panic can take with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush to the OS page cache only (the pre-policy behavior, and the
    /// default): acknowledged ingests survive process death but a power
    /// cut may lose any number of them.
    Flush,
    /// `fdatasync` before every acknowledgement: zero-loss under power
    /// cuts, at the cost of one device sync per append (~130µs measured).
    PerAppend,
    /// Group commit: an append `fdatasync`s only when the last sync is at
    /// least this old (measured on the injected [`Clock`]), so a burst of
    /// appends shares one device sync, and a [`Background`] job owned by
    /// the log syncs what a burst's last appends left behind once the
    /// interval has passed with no further append. A power cut can lose
    /// at most the appends acknowledged since the last sync — a window
    /// one interval long, on an idle node too — traded for
    /// near-[`SyncPolicy::Flush`] throughput.
    Interval(Duration),
}

/// Durable-log construction knobs.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// WAL file path.
    pub path: PathBuf,
    /// Capacity of the attaching engine's dedup window, re-armed from the
    /// log's keys (keys remembered across truncations and restarts).
    pub dedup_window: usize,
    /// When set, a refit swap persists the refitted bundle here (atomic
    /// write-beside + rename) *before* truncating the WAL, so every
    /// acknowledged interaction is always in the WAL or in the artifact.
    /// When `None`, a refit swap exists only in memory, so the WAL is
    /// **never truncated** (it keeps every acknowledged ingest and grows
    /// until restart) — truncating after an in-memory-only swap would
    /// orphan the consumed ingests on the next crash.
    pub artifact_path: Option<PathBuf>,
    /// When acknowledged appends are fsynced (power-loss durability).
    pub sync_policy: SyncPolicy,
}

impl DurableConfig {
    /// Defaults: a [`DEDUP_WINDOW`]-key window, no artifact persistence,
    /// OS-flush-only sync policy.
    pub fn new(path: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            path: path.into(),
            dedup_window: DEDUP_WINDOW,
            artifact_path: None,
            sync_policy: SyncPolicy::Flush,
        }
    }
}

struct DurableInner {
    wal: Wal,
    /// When the log last reached stable storage (clock time), for
    /// [`SyncPolicy::Interval`] group commit.
    last_sync: Duration,
    /// Records were appended since `last_sync`.
    dirty: bool,
    /// Device syncs issued so far ([`WalStats::syncs`]).
    syncs: u64,
}

/// The log's event counts ([`WalStats`]), shared with the `ganc_wal_*`
/// series that read them.
#[derive(Default)]
struct WalCounts {
    appends: AtomicU64,
    truncations: AtomicU64,
}

impl DurableInner {
    /// Group commit: `fdatasync` when something was appended since the
    /// last sync and that sync is at least `every` old at `now`.
    fn sync_if_due(&mut self, now: Duration, every: Duration) -> io::Result<()> {
        if self.dirty && now.saturating_sub(self.last_sync) >= every {
            self.wal.sync_data()?;
            self.last_sync = now;
            self.dirty = false;
            self.syncs += 1;
        }
        Ok(())
    }
}

/// A point-in-time view of the durable log, for `/v1/healthz` and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records currently in the log file.
    pub records: u64,
    /// Bytes currently in the log file (header included).
    pub bytes: u64,
    /// Appends acknowledged over this handle's lifetime.
    pub appends: u64,
    /// Records recovered by the startup replay.
    pub replayed: u64,
    /// Truncations (refit compactions) performed.
    pub truncations: u64,
    /// Device syncs (`fdatasync`) issued by the [`SyncPolicy`]. Always 0
    /// under [`SyncPolicy::Flush`]; equals `appends` under
    /// [`SyncPolicy::PerAppend`]; counts group commits under
    /// [`SyncPolicy::Interval`].
    pub syncs: u64,
}

/// The WAL + sync policy + counters bundle a durable node threads through
/// its ingest path. It decides nothing about keys: it writes the ones it is
/// given and hands them back on replay, and the engine's dedup window
/// decides which ingests reach it. Thread-safe; one per node.
pub struct DurableLog {
    inner: Arc<Mutex<DurableInner>>,
    artifact_path: Option<PathBuf>,
    replay: WalReplaySummary,
    sync_policy: SyncPolicy,
    /// Clock the [`SyncPolicy::Interval`] group commit reads; injected so
    /// tests drive the interval deterministically.
    clock: Arc<dyn Clock>,
    counts: Arc<WalCounts>,
    /// The trace sink, once [`DurableLog::attach_obs`] ran.
    obs: OnceLock<Arc<ObsHub>>,
    /// The [`SyncPolicy::Interval`] flusher (no other policy has one);
    /// stopped and joined when the log drops.
    _flusher: Option<Background>,
}

/// What a WAL replay recovered, each in log order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovered {
    /// The interactions to re-apply.
    pub interactions: Vec<(UserId, ItemId, f32)>,
    /// The idempotency keys to re-arm a dedup window with, key stubs and
    /// keyed ingests alike.
    pub keys: Vec<String>,
}

impl DurableLog {
    /// Open the log, replaying what survives: returns the handle plus what
    /// it recovered, whose interactions the caller must re-apply through
    /// its normal ingest path and whose keys it must remember.
    pub fn open(cfg: DurableConfig) -> io::Result<(DurableLog, Recovered)> {
        DurableLog::open_with_clock(cfg, Arc::new(SystemClock::new()))
    }

    /// [`DurableLog::open`] with an injected clock for the
    /// [`SyncPolicy::Interval`] group commit (tests drive a
    /// [`ganc_obs::clock::ManualClock`]).
    pub fn open_with_clock(
        cfg: DurableConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<(DurableLog, Recovered)> {
        let (wal, records, replay) = Wal::open(&cfg.path)?;
        let mut recovered = Recovered::default();
        for rec in records {
            match rec {
                WalRecord::Ingest {
                    user,
                    item,
                    rating,
                    key,
                    ..
                } => {
                    recovered.keys.extend(key);
                    recovered.interactions.push((user, item, rating));
                }
                WalRecord::Key { key, .. } => recovered.keys.push(key),
            }
        }
        let last_sync = clock.now();
        let inner = Arc::new(Mutex::new(DurableInner {
            wal,
            last_sync,
            dirty: false,
            syncs: 0,
        }));
        let flusher = match cfg.sync_policy {
            SyncPolicy::Interval(every) => {
                let inner = Arc::clone(&inner);
                let step = move |now: Duration| {
                    let mut inner = inner.lock().unwrap();
                    match inner.sync_if_due(now, every) {
                        // Appends are waiting on a window still open.
                        Ok(()) if inner.dirty => inner.last_sync + every,
                        // Clean — or the sync failed, which is retried
                        // (an append-side failure reaches its caller).
                        _ => now + every,
                    }
                };
                Some(Background::spawn(
                    Arc::clone(&clock),
                    last_sync + every,
                    step,
                ))
            }
            SyncPolicy::Flush | SyncPolicy::PerAppend => None,
        };
        let log = DurableLog {
            inner,
            artifact_path: cfg.artifact_path,
            replay,
            sync_policy: cfg.sync_policy,
            clock,
            counts: Arc::default(),
            obs: OnceLock::new(),
            _flusher: flusher,
        };
        Ok((log, recovered))
    }

    /// The configured power-loss sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Where a refit swap should persist the refitted bundle, when
    /// configured.
    pub fn artifact_path(&self) -> Option<&Path> {
        self.artifact_path.as_deref()
    }

    /// What the startup replay recovered.
    pub fn replay_summary(&self) -> WalReplaySummary {
        self.replay
    }

    /// Log one acknowledged ingest, with its key, *before* the caller
    /// applies it; whether the ingest is a resend is the caller's decision,
    /// made first. A key that fails [`validate_key`] is rejected
    /// (`InvalidInput`) before anything is written — every appended record
    /// is guaranteed decodable on replay.
    pub fn append(
        &self,
        key: Option<&str>,
        generation: u64,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> io::Result<()> {
        if let Some(k) = key {
            validate_key(k).map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.wal.append(&WalRecord::Ingest {
            generation,
            user,
            item,
            rating,
            key: key.map(str::to_string),
        })?;
        inner.dirty = true;
        // Apply the power-loss policy before the acknowledgement escapes
        // the mutex: under `PerAppend` the ack implies the record is on
        // stable storage (an interval of zero, no clock read), under
        // `Interval` at most one interval's appends ride the page cache.
        match self.sync_policy {
            SyncPolicy::Flush => {}
            SyncPolicy::PerAppend => {
                let at = inner.last_sync;
                inner.sync_if_due(at, Duration::ZERO)?;
            }
            SyncPolicy::Interval(every) => inner.sync_if_due(self.clock.now(), every)?,
        }
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Compact after a refit swap whose bundle is persisted: rewrite the
    /// log so that a replay recovers exactly `keep` — one `Key` stub per
    /// key the engine remembers (in its window's order), then the
    /// survivors, the acknowledged ingests the persisted artifact does not
    /// hold, without keys. Atomic; the caller must keep appends out until
    /// it returns, or a racing record would be lost.
    pub fn truncate(&self, keep: Recovered, generation: u64) -> io::Result<()> {
        let stubs = keep
            .keys
            .into_iter()
            .map(|key| WalRecord::Key { generation, key });
        let whole = keep
            .interactions
            .into_iter()
            .map(|(user, item, rating)| WalRecord::Ingest {
                generation,
                user,
                item,
                rating,
                key: None,
            });
        let recs: Vec<WalRecord> = stubs.chain(whole).collect();
        let retained = recs.len() as u64;
        self.inner.lock().unwrap().wal.rewrite(&recs)?;
        self.counts.truncations.fetch_add(1, Ordering::Relaxed);
        if let Some(hub) = self.obs.get() {
            hub.trace.record(
                hub.now_us(),
                TraceData::WalTruncate {
                    retained,
                    generation,
                },
            );
        }
        Ok(())
    }

    /// Register the log's `ganc_wal_*` series, read from its own counts
    /// when `/v1/metrics` renders (the dedup-hit one belongs to the
    /// engine's window), and emit the startup-replay trace event.
    /// One-shot: `true` for the call that attached, later calls are no-ops.
    pub fn attach_obs(&self, hub: Arc<ObsHub>) -> bool {
        if self.obs.set(Arc::clone(&hub)).is_err() {
            return false;
        }
        let m = &hub.metrics;
        let read = |count: fn(&WalCounts) -> &AtomicU64| {
            let counts = Arc::clone(&self.counts);
            move || count(&counts).load(Ordering::Relaxed)
        };
        let help = "WAL records appended";
        m.read_counter("ganc_wal_appends_total", help, &[], read(|c| &c.appends));
        let help = "WAL compactions after refit swaps";
        let truncations = read(|c| &c.truncations);
        m.read_counter("ganc_wal_truncations_total", help, &[], truncations);
        let replayed = self.replay.records;
        let help = "WAL records recovered by startup replay";
        m.read_counter("ganc_wal_replayed_total", help, &[], move || replayed);
        hub.trace.record(
            hub.now_us(),
            TraceData::WalReplay {
                records: self.replay.records,
                bytes: self.replay.bytes,
                corrupted: self.replay.corrupted,
            },
        );
        true
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock().unwrap();
        WalStats {
            records: inner.wal.records(),
            bytes: inner.wal.bytes(),
            appends: self.counts.appends.load(Ordering::Relaxed),
            replayed: self.replay.records,
            truncations: self.counts.truncations.load(Ordering::Relaxed),
            syncs: inner.syncs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ganc_wal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    fn ingest(user: u32, item: u32, key: Option<&str>) -> WalRecord {
        WalRecord::Ingest {
            generation: 0,
            user: UserId(user),
            item: ItemId(item),
            rating: 4.5,
            key: key.map(str::to_string),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_frames_round_trip() {
        for rec in [
            ingest(3, 7, None),
            ingest(0, 0, Some("k-1")),
            WalRecord::Key {
                generation: 9,
                key: "abc".to_string(),
            },
        ] {
            let frame = encode_record(&rec);
            let (decoded, summary) = decode_stream(&frame);
            assert_eq!(decoded, vec![rec]);
            assert!(!summary.corrupted);
            assert_eq!(summary.bytes, frame.len() as u64);
        }
    }

    #[test]
    fn append_reopen_replays_everything() {
        let path = tmp("reopen");
        let (mut wal, recs, summary) = Wal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(!summary.corrupted);
        wal.append(&ingest(1, 2, Some("a"))).unwrap();
        wal.append(&ingest(3, 4, None)).unwrap();
        drop(wal);
        let (wal, recs, summary) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![ingest(1, 2, Some("a")), ingest(3, 4, None)]);
        assert_eq!(wal.records(), 2);
        assert!(!summary.corrupted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_prefix_and_truncates() {
        let path = tmp("torn");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(&ingest(1, 2, None)).unwrap();
        wal.append(&ingest(3, 4, None)).unwrap();
        drop(wal);
        // Tear the last record mid-frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, recs, summary) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![ingest(1, 2, None)]);
        assert!(summary.corrupted);
        // The tail was dropped, so a new append lands on a clean log.
        wal.append(&ingest(5, 6, None)).unwrap();
        drop(wal);
        let (_, recs, summary) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![ingest(1, 2, None), ingest(5, 6, None)]);
        assert!(!summary.corrupted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_header_is_refused_and_left_untouched() {
        let path = tmp("header");
        let record = encode_record(&ingest(1, 1, None));
        let mut flipped = HEADER;
        flipped[2] ^= 0x04;
        // Not a log at all, a future version, one flipped header bit.
        for head in [
            &b"definitely not a wal"[..],
            b"GWAL\x02\x00",
            &flipped,
            b"GX",
        ] {
            let bytes = [head, &record[..]].concat();
            std::fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path).err().expect("a foreign file was opened");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "refusal wrote");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_prefix_starts_fresh() {
        let path = tmp("torn_header");
        std::fs::write(&path, &HEADER[..3]).unwrap();
        let (mut wal, recs, summary) = Wal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(summary.corrupted, "the torn header is reported");
        wal.append(&ingest(1, 1, None)).unwrap();
        drop(wal);
        let (_, recs, summary) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![ingest(1, 1, None)]);
        assert!(!summary.corrupted);
        std::fs::remove_file(&path).ok();
    }

    /// The keys an engine dedups with survive a reopen and a compaction:
    /// replay hands back every key the log was given, in log order — the
    /// stubs of a truncation first, in the window order the engine handed
    /// them over.
    #[test]
    fn durable_log_dedups_across_reopen_and_truncation() {
        let path = tmp("durable");
        let cfg = DurableConfig::new(&path);
        let (log, recovered) = DurableLog::open(cfg.clone()).unwrap();
        assert_eq!(recovered, Recovered::default());
        let append = |log: &DurableLog, key: Option<&str>, u: u32| {
            log.append(key, 0, UserId(u), ItemId(1), 5.0).unwrap()
        };
        append(&log, Some("k1"), 0);
        append(&log, None, 1);
        append(&log, Some("k2"), 2);
        assert_eq!(log.stats().appends, 3);
        drop(log);

        // Reopen: every ingest replays, and both keys come back.
        let (log, recovered) = DurableLog::open(cfg.clone()).unwrap();
        let rated = |u: u32| (UserId(u), ItemId(1), 5.0);
        assert_eq!(recovered.interactions, vec![rated(0), rated(1), rated(2)]);
        assert_eq!(recovered.keys, ["k1", "k2"]);

        // Refit consumed the first two ingests; k2's record raced it. The
        // engine's window holds an older key ahead of both.
        let keep = Recovered {
            interactions: vec![rated(2)],
            keys: ["k0", "k1", "k2"].map(String::from).to_vec(),
        };
        log.truncate(keep, 1).unwrap();
        let stats = log.stats();
        assert_eq!(stats.truncations, 1);
        // Three stubs + k2's interaction, keyless.
        assert_eq!(stats.records, 4);
        append(&log, Some("k3"), 3);
        drop(log);

        // Reopen: the racer and the later ingest replay; the keys come
        // back stubs first, in window order.
        let (_, recovered) = DurableLog::open(cfg).unwrap();
        assert_eq!(recovered.interactions, vec![rated(2), rated(3)]);
        assert_eq!(recovered.keys, ["k0", "k1", "k2", "k3"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_key_enforces_length_and_charset() {
        assert!(validate_key("order-42").is_ok());
        assert!(validate_key(&"k".repeat(MAX_KEY_LEN)).is_ok());
        assert!(validate_key("!~A_z.9").is_ok(), "full visible-ASCII range");
        for bad in [
            "",
            "has space",
            "crlf\r\ninjection",
            "tab\there",
            "nul\0byte",
            "ünïcode",
        ] {
            assert!(validate_key(bad).is_err(), "{bad:?} accepted");
        }
        assert!(validate_key(&"k".repeat(MAX_KEY_LEN + 1)).is_err());
    }

    #[test]
    fn append_rejects_invalid_keys_before_writing() {
        // The review scenario: an unchecked >MAX_KEY_LEN key would become
        // an acknowledged, CRC-valid record that replay refuses as
        // corruption — truncating every acknowledged ingest behind it.
        // Write-time validation must refuse it before anything hits disk.
        let path = tmp("invalid_keys");
        let cfg = DurableConfig::new(&path);
        let (log, _) = DurableLog::open(cfg.clone()).unwrap();
        let long = "x".repeat(MAX_KEY_LEN + 1);
        for bad in [long.as_str(), "crlf\r\nkey", "with space", "nül"] {
            let err = log
                .append(Some(bad), 0, UserId(0), ItemId(0), 1.0)
                .expect_err("invalid key acknowledged");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
        }
        assert_eq!(log.stats().appends, 0, "nothing may reach the file");

        // A max-length valid key appends and replays, key and all.
        let max = "k".repeat(MAX_KEY_LEN);
        log.append(Some(&max), 0, UserId(1), ItemId(2), 3.0)
            .unwrap();
        drop(log);
        let (log, recovered) = DurableLog::open(cfg).unwrap();
        assert_eq!(recovered.interactions, vec![(UserId(1), ItemId(2), 3.0)]);
        assert_eq!(recovered.keys, [max]);
        assert!(!log.replay_summary().corrupted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_flush_never_syncs_and_per_append_always_does() {
        let path = tmp("sync_flush");
        {
            let (log, _) = DurableLog::open(DurableConfig::new(&path)).unwrap();
            for k in 0..3u32 {
                log.append(None, 0, UserId(0), ItemId(k), 3.0).unwrap();
            }
            assert_eq!(log.stats().syncs, 0, "Flush must never touch the device");
        }
        std::fs::remove_file(&path).ok();

        let path = tmp("sync_per_append");
        let cfg = DurableConfig {
            sync_policy: SyncPolicy::PerAppend,
            ..DurableConfig::new(&path)
        };
        let (log, _) = DurableLog::open(cfg).unwrap();
        for k in 0..3u32 {
            log.append(None, 0, UserId(0), ItemId(k), 3.0).unwrap();
        }
        let stats = log.stats();
        assert_eq!((stats.appends, stats.syncs), (3, 3), "one sync per ack");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_interval_group_commits_on_the_injected_clock() {
        use ganc_obs::clock::ManualClock;
        let path = tmp("sync_interval");
        let clock = Arc::new(ManualClock::new());
        let cfg = DurableConfig {
            sync_policy: SyncPolicy::Interval(Duration::from_millis(10)),
            ..DurableConfig::new(&path)
        };
        let (log, _) =
            DurableLog::open_with_clock(cfg, Arc::clone(&clock) as Arc<dyn Clock>).unwrap();

        // A burst inside the interval shares the page cache: no syncs.
        for k in 0..5u32 {
            log.append(None, 0, UserId(0), ItemId(k), 3.0).unwrap();
        }
        assert_eq!(log.stats().syncs, 0, "interval not yet elapsed");

        // Crossing the interval: the next append carries the group commit.
        clock.advance(Duration::from_millis(10));
        log.append(None, 0, UserId(0), ItemId(5), 3.0).unwrap();
        assert_eq!(log.stats().syncs, 1, "first append past the interval syncs");

        // The window restarts from that sync, not from each append.
        log.append(None, 0, UserId(0), ItemId(6), 3.0).unwrap();
        clock.advance(Duration::from_millis(9));
        log.append(None, 0, UserId(0), ItemId(7), 3.0).unwrap();
        assert_eq!(log.stats().syncs, 1, "9ms since last sync: still grouped");
        clock.advance(Duration::from_millis(1));
        log.append(None, 0, UserId(0), ItemId(8), 3.0).unwrap();
        assert_eq!(log.stats().syncs, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_interval_syncs_an_idle_log_once_the_interval_passes() {
        use ganc_obs::clock::ManualClock;
        let path = tmp("sync_idle");
        let clock = Arc::new(ManualClock::new());
        let cfg = DurableConfig {
            sync_policy: SyncPolicy::Interval(Duration::from_millis(10)),
            ..DurableConfig::new(&path)
        };
        let (log, _) = DurableLog::open_with_clock(cfg, clock.clone()).unwrap();
        let syncs_reach = |n: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while log.stats().syncs < n && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            log.stats().syncs
        };

        // The last appends of a burst, then silence: no later append will
        // ever carry their group commit.
        log.append(None, 0, UserId(0), ItemId(0), 3.0).unwrap();
        log.append(None, 0, UserId(0), ItemId(1), 3.0).unwrap();
        assert_eq!(log.stats().syncs, 0, "interval not yet elapsed");
        clock.advance(Duration::from_millis(11));
        assert_eq!(syncs_reach(1), 1, "an idle log must still reach the disk");

        // Nothing appended since: later intervals have nothing to sync.
        clock.advance(Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(log.stats().syncs, 1, "a clean log must not be synced");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_or_binary_keys_are_refused_by_decode() {
        // A hand-built frame with a key length beyond MAX_KEY_LEN must be
        // treated as corruption, not allocated and trusted.
        let mut payload = vec![TAG_KEY];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_KEY_LEN as u16 + 1).to_le_bytes());
        payload.extend(std::iter::repeat_n(b'x', MAX_KEY_LEN + 1));
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let (recs, summary) = decode_stream(&frame);
        assert!(recs.is_empty());
        assert!(summary.corrupted);
    }
}
