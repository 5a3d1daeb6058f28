//! Write-ahead log: segmented, CRC-checked, append-only record files.
//!
//! This is the durability substrate under [`crate::Broker`]. Every mutation
//! that must survive a crash — a message append, a committed consumer-group
//! offset, a topic creation — is framed, checksummed, and appended to a
//! [`SegmentedLog`] before (or atomically with) the in-memory state change,
//! so a restarted broker replays the log and resumes exactly where the
//! crashed one left off.
//!
//! ## Record framing
//!
//! Each record is stored as
//!
//! ```text
//! [ len: u32 LE ][ crc: u32 LE ][ payload: len bytes ]
//! ```
//!
//! where `crc` is the IEEE CRC-32 of the payload, computed eight bytes at a
//! time (slicing-by-8) to the same value a bytewise table gives, so the
//! bytes on disk do not depend on how the checksum is computed. On recovery
//! a record is accepted only if the full frame fits in the file *and* the
//! checksum matches; the first torn or corrupt record truncates the log
//! right there (the file is physically shrunk to the last valid frame and
//! any later segments are deleted), which is what makes recovery
//! *prefix-consistent*: the recovered log is always a prefix of what was
//! appended.
//!
//! Recovery reads a segment into one buffer and hands each valid record to
//! the caller as a slice of it ([`SegmentedLog::open_with`]); the broker
//! decodes straight from that slice, so the payload it keeps is the only
//! copy a record costs on the way back.
//!
//! ## Segments
//!
//! A log is a directory of `seg-<n>.log` files. Appends go to the highest
//! segment; once it exceeds [`WalConfig::segment_bytes`] the writer rolls to
//! a fresh file. Segment boundaries bound the cost of recovery truncation
//! and give retention a natural GC unit.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `Always` makes every
//! append durable before it returns (a crash loses nothing that was
//! acknowledged) with one fsync per segment the append touched, `EveryN(n)`
//! bounds the loss window to `n` records, `Never` leaves flushing to the OS
//! (a *process* crash still loses nothing — the data sits in the page cache
//! — only a machine crash can). A roll fsyncs the finished segment under
//! every policy. Recovery handles all three identically: whatever prefix
//! survived is what comes back.
//!
//! ## Batches
//!
//! [`SegmentedLog::append_batch`] frames every record of a batch in place in
//! one reused staging buffer and issues one write per segment touched: the
//! buffer is flushed before a roll and before each `EveryN` fsync point, so
//! segment boundaries and file bytes are exactly those of one
//! [`SegmentedLog::append`] per record under every policy, and so are the
//! fsync points under `EveryN`. Under `Always` the batch is the unit of
//! durability: it fsyncs once, after its last write, plus the roll's fsync
//! of each segment it finished. A failed write reports how many records the
//! earlier writes of the batch put in the file; the broker applies exactly
//! that prefix to memory and none of the failing write's.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time: `CRC_TABLE[b]` is the CRC state after feeding byte
/// `b` into a zero state.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_SLICES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight table reads advance the state by a
/// whole 8-byte word.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC_TABLE;
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// IEEE CRC-32 of `bytes` (the checksum in every record frame), computed
/// eight bytes at a time; the tail shorter than a word goes bytewise.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as u8 as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// When to fsync the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync explicitly; the OS flushes the page cache. Survives
    /// process crashes, not power loss. The fastest option and the default.
    Never,
    /// Fsync after every `n` appends: bounds the power-loss window to `n`
    /// records.
    EveryN(u32),
    /// Durable before acknowledged: every append (a whole batch for
    /// [`SegmentedLog::append_batch`]) fsyncs each segment it touched once,
    /// before it returns, so an acknowledged record survives power loss.
    Always,
}

/// Configuration of one broker's write-ahead log tree.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Root directory; the broker lays out `meta/`, `offsets/`, and
    /// `topics/<topic>/<partition>/` under it.
    pub dir: PathBuf,
    /// Roll to a new segment file once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Fsync policy for every log in the tree.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config rooted at `dir` with 8 MiB segments and no explicit fsync.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Never,
        }
    }

    /// Override the segment roll size (clamped to ≥ 4 KiB).
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> WalConfig {
        self.segment_bytes = bytes.max(4096);
        self
    }

    /// Override the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> WalConfig {
        self.fsync = fsync;
        self
    }
}

/// A WAL I/O or decode failure. Carries the operation, the path, and the OS
/// error text; comparable so broker errors stay `PartialEq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalError {
    /// What was being attempted (`open`, `append`, `sync`, `decode`, …).
    pub op: &'static str,
    /// The file or directory involved.
    pub path: String,
    /// OS or decoder detail.
    pub detail: String,
}

impl WalError {
    fn io(op: &'static str, path: &Path, err: &std::io::Error) -> WalError {
        WalError {
            op,
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }

    fn decode(path: &str, detail: &str) -> WalError {
        WalError {
            op: "decode",
            path: path.to_string(),
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal {} failed at {}: {}",
            self.op, self.path, self.detail
        )
    }
}

impl std::error::Error for WalError {}

/// What recovery found while opening a [`SegmentedLog`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Valid records replayed.
    pub records: u64,
    /// Bytes truncated off the first torn/corrupt record onward.
    pub truncated_bytes: u64,
    /// Whole segments deleted because they followed a corrupt one.
    pub dropped_segments: u64,
}

impl RecoveryInfo {
    /// Fold another log's recovery tally into this one (a broker aggregates
    /// across its meta, offsets, and per-partition logs).
    pub fn absorb(&mut self, other: &RecoveryInfo) {
        self.records += other.records;
        self.truncated_bytes += other.truncated_bytes;
        self.dropped_segments += other.dropped_segments;
    }
}

const FRAME_HEADER: usize = 8; // len u32 + crc u32

/// A segmented append-only record log in one directory.
pub struct SegmentedLog {
    dir: PathBuf,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    /// Index of the active segment (name `seg-<index>.log`).
    cur_index: u64,
    cur: File,
    cur_len: u64,
    since_sync: u32,
    /// Frames staged for the next write; capacity reused across batches.
    /// Flushed before each roll, so it never holds more than a segment plus
    /// one frame.
    buf: Vec<u8>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:010}.log"))
}

/// Hand every whole, checksum-valid frame in `buf` to `visit`, in order, as
/// a slice of `buf`. Returns the byte length of the valid prefix and whether
/// the scan reached the end (`false` when a torn or corrupt frame cut it
/// short); an error from `visit` stops the scan and is returned as is.
fn scan_frames(
    buf: &[u8],
    visit: &mut dyn FnMut(&[u8]) -> Result<(), WalError>,
) -> Result<(u64, bool), WalError> {
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= buf.len() {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let start = pos + FRAME_HEADER;
        let end = match start.checked_add(len) {
            Some(e) if e <= buf.len() => e,
            _ => return Ok((pos as u64, false)), // torn length/payload
        };
        let rec = &buf[start..end];
        if crc32(rec) != crc {
            return Ok((pos as u64, false)); // corrupt payload
        }
        visit(rec)?;
        pos = end;
    }
    // Trailing bytes smaller than a header are a torn header.
    Ok((pos as u64, pos == buf.len()))
}

impl SegmentedLog {
    /// Open (creating the directory if needed) and recover a log: every
    /// segment is scanned in order, the valid record prefix is returned, the
    /// first corruption truncates its file in place, and segments after a
    /// corrupt one are deleted. The writer resumes at the end of the valid
    /// prefix. Collects an owned copy of each record that
    /// [`SegmentedLog::open_with`] visits.
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> Result<(SegmentedLog, Vec<Vec<u8>>, RecoveryInfo), WalError> {
        let mut records = Vec::new();
        let (log, info) = Self::open_with(dir, segment_bytes, fsync, |rec| {
            records.push(rec.to_vec());
            Ok(())
        })?;
        Ok((log, records, info))
    }

    /// [`SegmentedLog::open`], handing each recovered record to `visit` as a
    /// slice of the segment just read instead of collecting copies. Records
    /// come in log order, each exactly once, and only checksum-valid ones. An
    /// error from `visit` aborts the open and is returned; the segment it
    /// came from is left as it was, untruncated.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        fsync: FsyncPolicy,
        mut visit: impl FnMut(&[u8]) -> Result<(), WalError>,
    ) -> Result<(SegmentedLog, RecoveryInfo), WalError> {
        Self::recover(dir.into(), segment_bytes, fsync, &mut visit)
    }

    /// The body of [`SegmentedLog::open_with`], behind a `dyn` visitor so
    /// recovery is compiled once, not once per caller's closure.
    fn recover(
        dir: PathBuf,
        segment_bytes: u64,
        fsync: FsyncPolicy,
        visit: &mut dyn FnMut(&[u8]) -> Result<(), WalError>,
    ) -> Result<(SegmentedLog, RecoveryInfo), WalError> {
        fs::create_dir_all(&dir).map_err(|e| WalError::io("create-dir", &dir, &e))?;
        let mut indices: Vec<u64> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| WalError::io("read-dir", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| WalError::io("read-dir", &dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                indices.push(idx);
            }
        }
        indices.sort_unstable();

        let mut info = RecoveryInfo::default();
        let mut last_index = 0u64;
        let mut last_len = 0u64;
        let mut corrupted = false;
        let mut buf = Vec::new();
        for (k, &idx) in indices.iter().enumerate() {
            let path = segment_path(&dir, idx);
            if corrupted {
                // Everything after a corrupt segment is beyond the valid
                // prefix; keeping it would fake a gap-free log.
                fs::remove_file(&path).map_err(|e| WalError::io("remove", &path, &e))?;
                info.dropped_segments += 1;
                continue;
            }
            buf.clear();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut buf))
                .map_err(|e| WalError::io("read", &path, &e))?;
            let (valid_len, clean) = scan_frames(&buf, &mut |rec| {
                info.records += 1;
                visit(rec)
            })?;
            if !clean {
                info.truncated_bytes += buf.len() as u64 - valid_len;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| WalError::io("truncate", &path, &e))?;
                f.set_len(valid_len)
                    .map_err(|e| WalError::io("truncate", &path, &e))?;
                f.sync_all().map_err(|e| WalError::io("sync", &path, &e))?;
                corrupted = true;
            }
            if !clean || k == indices.len() - 1 {
                last_index = idx;
                last_len = valid_len;
            }
        }
        if indices.is_empty() {
            let path = segment_path(&dir, 0);
            // Touch segment 0 so the append handle below has a file.
            File::create(&path).map_err(|e| WalError::io("create", &path, &e))?;
        }
        let path = segment_path(&dir, last_index);
        let cur = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| WalError::io("open", &path, &e))?;
        Ok((
            SegmentedLog {
                dir,
                segment_bytes: segment_bytes.max(4096),
                fsync,
                cur_index: last_index,
                cur,
                cur_len: last_len,
                since_sync: 0,
                buf: Vec::new(),
            },
            info,
        ))
    }

    /// Append one framed record: a batch of one.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.append_batch([payload], |p, buf| buf.extend_from_slice(p))
            .map_err(|(_, e)| e)
    }

    /// Append a batch, framing each record in place: `encode(record, buf)`
    /// appends its payload behind a reserved header, patched afterwards with
    /// length and CRC; see "Batches" above for when it writes. On failure,
    /// returns how many records the batch's earlier writes put in the file.
    pub fn append_batch<T>(
        &mut self,
        records: impl IntoIterator<Item = T>,
        mut encode: impl FnMut(T, &mut Vec<u8>),
    ) -> Result<(), (usize, WalError)> {
        self.buf.clear();
        let (mut framed, mut written) = (0, 0);
        for rec in records {
            if self.cur_len + self.buf.len() as u64 >= self.segment_bytes {
                self.flush().map_err(|e| (written, e))?;
                written = framed;
                self.roll().map_err(|e| (written, e))?;
            }
            let start = self.buf.len();
            self.buf.extend_from_slice(&[0; FRAME_HEADER]);
            encode(rec, &mut self.buf);
            let len = (self.buf.len() - start - FRAME_HEADER) as u32;
            let crc = crc32(&self.buf[start + FRAME_HEADER..]);
            self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            self.buf[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
            framed += 1;
            self.since_sync += 1;
            if let FsyncPolicy::EveryN(n) = self.fsync {
                if self.since_sync >= n.max(1) {
                    self.flush().map_err(|e| (written, e))?;
                    written = framed;
                    self.sync().map_err(|e| (written, e))?;
                }
            }
        }
        self.flush().map_err(|e| (written, e))?;
        if self.fsync == FsyncPolicy::Always && self.since_sync > 0 {
            self.sync().map_err(|e| (framed, e))?;
        }
        Ok(())
    }

    /// Write the staged frames to the active segment in one `write_all`
    /// (none when nothing is staged).
    fn flush(&mut self) -> Result<(), WalError> {
        self.cur
            .write_all(&self.buf)
            .map_err(|e| WalError::io("append", &segment_path(&self.dir, self.cur_index), &e))?;
        self.cur_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Fsync the active segment.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.cur
            .sync_data()
            .map_err(|e| WalError::io("sync", &segment_path(&self.dir, self.cur_index), &e))?;
        #[cfg(test)]
        tests::SYNCS.with(|n| n.set(n.get() + 1));
        self.since_sync = 0;
        Ok(())
    }

    /// Sync the active segment and open the next; the index moves only once
    /// the new file is open, so a failed roll leaves the writer where it was.
    fn roll(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let path = segment_path(&self.dir, self.cur_index + 1);
        self.cur = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| WalError::io("roll", &path, &e))?;
        self.cur_index += 1;
        self.cur_len = 0;
        Ok(())
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> u64 {
        self.cur_index + 1
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------------
// Typed record codecs
// ---------------------------------------------------------------------------
//
// Hand-rolled little-endian encodings (the workspace vendors no serde
// format). Decoders validate lengths and return `WalError` — a decode
// failure after a passing CRC means a format-version mismatch, not
// corruption, and recovery surfaces it instead of truncating.

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WalError::decode(self.path, "record shorter than declared fields"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WalError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, WalError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WalError::decode(self.path, "non-utf8 string field"))
    }
}

/// One message in a partition WAL: `(offset, key, enqueued_s, payload)`.
/// The offset is stored explicitly because compaction leaves *sparse* logs —
/// replay must restore each surviving record at its original offset, not
/// re-number densely.
pub fn encode_message(offset: u64, key: Option<u64>, enqueued_s: f64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 1 + 8 + 8 + payload.len());
    encode_message_into(&mut buf, offset, key, enqueued_s, payload);
    buf
}

/// [`encode_message`], appended to `buf` (a WAL staging buffer).
pub fn encode_message_into(
    buf: &mut Vec<u8>,
    offset: u64,
    key: Option<u64>,
    enqueued_s: f64,
    payload: &[u8],
) {
    buf.extend_from_slice(&offset.to_le_bytes());
    match key {
        Some(k) => {
            buf.push(1);
            buf.extend_from_slice(&k.to_le_bytes());
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&enqueued_s.to_bits().to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Inverse of [`encode_message`].
pub fn decode_message(rec: &[u8]) -> Result<(u64, Option<u64>, f64, Vec<u8>), WalError> {
    let mut c = Cursor {
        buf: rec,
        pos: 0,
        path: "message",
    };
    let offset = c.u64()?;
    let key = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        _ => return Err(WalError::decode("message", "bad key flag")),
    };
    let enqueued_s = f64::from_bits(c.u64()?);
    let payload = rec[c.pos..].to_vec();
    Ok((offset, key, enqueued_s, payload))
}

/// Retention mode tag used in topic-meta records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetentionCode {
    /// Count-based retention with the given per-partition bound.
    Count(u64),
    /// Log compaction triggered past the given retained-record count.
    Compact(u64),
}

/// One topic-creation record in the meta WAL.
pub fn encode_topic_meta(name: &str, partitions: u32, retention: RetentionCode) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + name.len() + 4 + 9);
    put_str(&mut buf, name);
    buf.extend_from_slice(&partitions.to_le_bytes());
    match retention {
        RetentionCode::Count(n) => {
            buf.push(0);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        RetentionCode::Compact(n) => {
            buf.push(1);
            buf.extend_from_slice(&n.to_le_bytes());
        }
    }
    buf
}

/// Inverse of [`encode_topic_meta`].
pub fn decode_topic_meta(rec: &[u8]) -> Result<(String, u32, RetentionCode), WalError> {
    let mut c = Cursor {
        buf: rec,
        pos: 0,
        path: "topic-meta",
    };
    let name = c.str()?;
    let partitions = c.u32()?;
    let retention = match c.u8()? {
        0 => RetentionCode::Count(c.u64()?),
        1 => RetentionCode::Compact(c.u64()?),
        _ => return Err(WalError::decode("topic-meta", "bad retention tag")),
    };
    Ok((name, partitions, retention))
}

/// One committed-offset record in the offsets WAL:
/// `(group, topic, partition, offset)`.
pub fn encode_commit(group: &str, topic: &str, partition: u32, offset: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + group.len() + topic.len() + 12);
    put_str(&mut buf, group);
    put_str(&mut buf, topic);
    buf.extend_from_slice(&partition.to_le_bytes());
    buf.extend_from_slice(&offset.to_le_bytes());
    buf
}

/// Inverse of [`encode_commit`].
pub fn decode_commit(rec: &[u8]) -> Result<(String, String, u32, u64), WalError> {
    let mut c = Cursor {
        buf: rec,
        pos: 0,
        path: "commit",
    };
    let group = c.str()?;
    let topic = c.str()?;
    let partition = c.u32()?;
    let offset = c.u64()?;
    Ok((group, topic, partition, offset))
}

// ---------------------------------------------------------------------------
// TempDir
// ---------------------------------------------------------------------------

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique temporary directory, removed (best-effort) on drop. Used by the
/// recovery tests and the RB-2 smoke run; names are derived from the process
/// id and a counter, never from the wall clock.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<system tmp>/pilot-wal-<label>-<pid>-<seq>`.
    pub fn new(label: &str) -> Result<TempDir, WalError> {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("pilot-wal-{label}-{}-{seq}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path).map_err(|e| WalError::io("clean", &path, &e))?;
        }
        fs::create_dir_all(&path).map_err(|e| WalError::io("create-dir", &path, &e))?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// `sync_data` calls made by [`SegmentedLog::sync`] on this thread.
        pub(super) static SYNCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Syncs issued on this thread while `f` runs.
    fn syncs_during(f: impl FnOnce()) -> u64 {
        let before = SYNCS.with(Cell::get);
        f();
        SYNCS.with(Cell::get) - before
    }

    /// The bytewise table CRC-32 the slicing-by-8 version replaced: the
    /// oracle it must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the bytewise oracle at every length up to
        /// 4 KiB, starting anywhere in the buffer (not only word-aligned).
        #[test]
        fn crc32_equals_the_bytewise_oracle(
            len in 0usize..=4096,
            start in 0usize..16,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let bytes = &buf[start..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn an_always_batch_syncs_once_per_segment_touched() {
        let tmp = TempDir::new("always-syncs").unwrap();
        let (mut log, _, _) = SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Always).unwrap();
        let n = syncs_during(|| {
            log.append_batch([[3u8; 64]; 256], |p, buf| buf.extend_from_slice(&p))
                .unwrap();
        });
        assert_eq!(n, 1, "256 records into one segment");
        assert_eq!(log.segment_count(), 1);
        let n = syncs_during(|| log.append_batch([[0u8; 0]; 0], |_, _| {}).unwrap());
        assert_eq!(n, 0, "an empty batch acknowledges nothing");

        let tmp = TempDir::new("always-syncs-roll").unwrap();
        let (mut log, _, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Always).unwrap();
        // Six 1 008-byte frames: the fifth crosses 4 KiB, the sixth rolls.
        let n = syncs_during(|| {
            log.append_batch([[1u8; 1000]; 6], |p, buf| buf.extend_from_slice(&p))
                .unwrap();
        });
        assert_eq!(log.segment_count(), 2);
        assert_eq!(n, 2, "the roll's sync plus the batch's own");
        drop(log);
        let (_, recovered, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 6);
    }

    #[test]
    fn every_n_and_never_keep_their_sync_points() {
        let tmp = TempDir::new("every-n-syncs").unwrap();
        let (mut log, _, _) =
            SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::EveryN(4)).unwrap();
        let n = syncs_during(|| {
            log.append_batch([[5u8; 16]; 10], |p, buf| buf.extend_from_slice(&p))
                .unwrap();
        });
        assert_eq!(n, 2, "after records 4 and 8");
        let tmp = TempDir::new("never-syncs").unwrap();
        let (mut log, _, _) = SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
        let n = syncs_during(|| {
            log.append_batch([[5u8; 16]; 10], |p, buf| buf.extend_from_slice(&p))
                .unwrap();
        });
        assert_eq!(n, 0);
    }

    /// Records `open_with` hands out, copied, and the log's recovery tally.
    fn visited(dir: &Path) -> (Vec<Vec<u8>>, RecoveryInfo) {
        let mut seen = Vec::new();
        let (_, info) = SegmentedLog::open_with(dir, 4096, FsyncPolicy::Never, |rec| {
            seen.push(rec.to_vec());
            Ok(())
        })
        .unwrap();
        (seen, info)
    }

    #[test]
    fn open_with_visits_exactly_what_open_returns() {
        let write = |label: &str| {
            let tmp = TempDir::new(label).unwrap();
            let (mut log, _, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
            for i in 0..16u8 {
                log.append(&[i; 700]).unwrap();
            }
            assert!(log.segment_count() >= 3);
            tmp
        };
        let frame = FRAME_HEADER + 700;
        // Clean, torn (last segment cut mid-frame) and corrupt (a payload
        // byte flipped in the first segment, so later segments drop).
        let clean = write("visit-clean");
        let torn = write("visit-torn");
        let last = fs::read_dir(torn.path()).unwrap().count() as u64 - 1;
        let path = segment_path(torn.path(), last);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        f.set_len(len - 3).unwrap();
        drop(f);
        let corrupt = write("visit-corrupt");
        let path = segment_path(corrupt.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[frame + FRAME_HEADER + 9] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        for (tmp, expect) in [(&clean, 16), (&torn, 15), (&corrupt, 1)] {
            let copy = TempDir::new("visit-copy").unwrap();
            for e in fs::read_dir(tmp.path()).unwrap() {
                let e = e.unwrap();
                fs::copy(e.path(), copy.path().join(e.file_name())).unwrap();
            }
            let (seen, seen_info) = visited(tmp.path());
            let (_, opened, opened_info) =
                SegmentedLog::open(copy.path(), 4096, FsyncPolicy::Never).unwrap();
            assert_eq!(seen.len(), expect);
            assert_eq!(seen, opened);
            assert_eq!(seen_info, opened_info);
            assert_eq!(seen_info.records, expect as u64);
            for (i, rec) in seen.iter().enumerate() {
                assert_eq!(rec, &vec![i as u8; 700]);
            }
        }
    }

    #[test]
    fn a_visit_error_aborts_the_open_and_leaves_the_file() {
        let tmp = TempDir::new("visit-error").unwrap();
        {
            let (mut log, _, _) =
                SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
            for i in 0..10u32 {
                log.append(&i.to_le_bytes()).unwrap();
            }
        }
        let path = segment_path(tmp.path(), 0);
        let len = fs::metadata(&path).unwrap().len();
        let mut calls = 0;
        let err = SegmentedLog::open_with(tmp.path(), 1 << 20, FsyncPolicy::Never, |rec| {
            calls += 1;
            if rec == 4u32.to_le_bytes() {
                Err(WalError::decode("test", "rejected"))
            } else {
                Ok(())
            }
        })
        .err()
        .unwrap();
        assert_eq!((err.op, calls), ("decode", 5));
        assert_eq!(fs::metadata(&path).unwrap().len(), len, "nothing truncated");
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let tmp = TempDir::new("roundtrip").unwrap();
        {
            let (mut log, recovered, info) =
                SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
            assert!(recovered.is_empty());
            assert_eq!(info, RecoveryInfo::default());
            for i in 0..100u32 {
                log.append(&i.to_le_bytes()).unwrap();
            }
        }
        let (_log, recovered, info) =
            SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 100);
        assert_eq!(info.records, 100);
        assert_eq!(info.truncated_bytes, 0);
        for (i, rec) in recovered.iter().enumerate() {
            assert_eq!(rec.as_slice(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn segments_roll_at_the_size_bound() {
        let tmp = TempDir::new("roll").unwrap();
        let (mut log, _, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        // 4 KiB roll bound, ~1 KiB payloads: several segments appear.
        for _ in 0..16 {
            log.append(&[7u8; 1000]).unwrap();
        }
        assert!(log.segment_count() >= 3, "got {}", log.segment_count());
        drop(log);
        let (_, recovered, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 16, "recovery spans all segments in order");
    }

    #[test]
    fn failed_roll_keeps_the_writer_on_its_segment() {
        let tmp = TempDir::new("failed-roll").unwrap();
        let (mut log, _, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        // Squat on the next segment's name: `create_new` fails even as root.
        let blocker = segment_path(tmp.path(), 1);
        fs::write(&blocker, b"").unwrap();
        let (written, err) = log
            .append_batch([[1u8; 1000]; 6], |p, buf| buf.extend_from_slice(&p))
            .unwrap_err();
        // Five 1 008-byte frames cross the 4 KiB bound; the sixth needs the roll.
        assert_eq!((written, err.op), (5, "roll"));
        assert_eq!(log.segment_count(), 1, "the failed roll did not advance");
        fs::remove_file(&blocker).unwrap();
        log.append(b"after").unwrap();
        assert!(
            blocker.exists(),
            "the retried roll takes the name it failed on"
        );
        drop(log);
        let (_, recovered, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 6);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let tmp = TempDir::new("torn").unwrap();
        {
            let (mut log, _, _) =
                SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Always).unwrap();
            for i in 0..10u32 {
                log.append(&i.to_le_bytes()).unwrap();
            }
        }
        // Chop the last frame mid-payload: 10 frames of 12 bytes; cut 5.
        let path = segment_path(tmp.path(), 0);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(12 * 10 - 5).unwrap();
        drop(f);
        let (_, recovered, info) =
            SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 9, "torn record dropped");
        assert_eq!(info.truncated_bytes, 7, "partial frame truncated");
        assert_eq!(fs::metadata(&path).unwrap().len(), 12 * 9);
    }

    #[test]
    fn corrupt_record_truncates_and_drops_later_segments() {
        let tmp = TempDir::new("corrupt").unwrap();
        {
            let (mut log, _, _) = SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
            for _ in 0..16 {
                log.append(&[9u8; 1000]).unwrap();
            }
            assert!(log.segment_count() >= 3);
        }
        // Flip a payload byte in the *first* segment: everything after the
        // corrupt record — including whole later segments — must go.
        let path = segment_path(tmp.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let frame = FRAME_HEADER + 1000;
        bytes[2 * frame + FRAME_HEADER + 17] ^= 0xFF; // third record's payload
        fs::write(&path, &bytes).unwrap();
        let (_, recovered, info) =
            SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2, "only the records before the corruption");
        assert!(info.dropped_segments >= 1, "later segments deleted");
        // Re-opening again is clean and the log is appendable.
        let (mut log, recovered, info) =
            SegmentedLog::open(tmp.path(), 4096, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(info.truncated_bytes, 0, "second recovery is clean");
        log.append(b"after").unwrap();
    }

    #[test]
    fn appends_after_recovery_continue_the_log() {
        let tmp = TempDir::new("resume").unwrap();
        {
            let (mut log, _, _) =
                SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::EveryN(4)).unwrap();
            for i in 0..5u32 {
                log.append(&i.to_le_bytes()).unwrap();
            }
        }
        {
            let (mut log, recovered, _) =
                SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
            assert_eq!(recovered.len(), 5);
            for i in 5..8u32 {
                log.append(&i.to_le_bytes()).unwrap();
            }
        }
        let (_, recovered, _) =
            SegmentedLog::open(tmp.path(), 1 << 20, FsyncPolicy::Never).unwrap();
        let vals: Vec<u32> = recovered
            .iter()
            .map(|r| u32::from_le_bytes([r[0], r[1], r[2], r[3]]))
            .collect();
        assert_eq!(vals, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn message_codec_roundtrip() {
        for (off, key, s, payload) in [
            (0u64, None, 0.0, vec![]),
            (7, Some(42), 1.5, vec![1, 2, 3]),
            (u64::MAX - 1, Some(u64::MAX), -7.25, vec![0xFF; 300]),
        ] {
            let enc = encode_message(off, key, s, &payload);
            let (o2, k2, s2, p2) = decode_message(&enc).unwrap();
            assert_eq!(o2, off);
            assert_eq!(k2, key);
            assert_eq!(s2, s);
            assert_eq!(p2, payload);
        }
        let bad_flag = encode_message(0, None, 0.0, &[]);
        let mut bad = bad_flag.clone();
        bad[8] = 2;
        assert!(decode_message(&bad).is_err(), "bad key flag");
        assert!(decode_message(&bad_flag[..9]).is_err(), "short record");
    }

    #[test]
    fn meta_and_commit_codec_roundtrip() {
        let enc = encode_topic_meta("frames", 8, RetentionCode::Count(1000));
        assert_eq!(
            decode_topic_meta(&enc).unwrap(),
            ("frames".to_string(), 8, RetentionCode::Count(1000))
        );
        let enc = encode_topic_meta("kv", 2, RetentionCode::Compact(64));
        assert_eq!(
            decode_topic_meta(&enc).unwrap(),
            ("kv".to_string(), 2, RetentionCode::Compact(64))
        );
        let enc = encode_commit("g", "frames", 3, 99);
        assert_eq!(
            decode_commit(&enc).unwrap(),
            ("g".to_string(), "frames".to_string(), 3, 99)
        );
        assert!(decode_commit(&enc[..4]).is_err(), "short record");
    }

    #[test]
    fn tempdirs_are_unique_and_cleaned() {
        let a = TempDir::new("uniq").unwrap();
        let b = TempDir::new("uniq").unwrap();
        assert_ne!(a.path(), b.path());
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists(), "dropped tempdir is removed");
        assert!(b.path().exists());
    }
}
