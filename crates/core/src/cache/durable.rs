//! Crash-safe log-structured store backing the durable disk tier.
//!
//! Layout inside the store directory:
//!
//! - **Segment files** `seg_<n>.log`: append-only runs of records. Each
//!   record is `MREC | content_hash | cost | hits | height | lineage_len
//!   | matrix_len | crc32 | lineage-log | matrix-binary` (all integers
//!   little-endian). The CRC covers every header field after the magic
//!   plus both payloads, so a torn or bit-flipped record is always
//!   detectable. The lineage log is the canonical
//!   [`crate::lineage::serialize`] form — recovery re-interns it with
//!   [`crate::lineage::deserialize`] and cross-checks that the re-interned
//!   `content_hash` matches the record tag.
//! - **`MANIFEST`**: append-only text commit log mapping content hash →
//!   (segment, offset, len). A record becomes durable only when its
//!   `put` line is fsynced; segment bytes without a committed manifest
//!   line are invisible to recovery. `del` lines tombstone entries.
//! - **`MANIFEST.tmp`**: compaction target. Compaction rewrites live
//!   records into fresh segments, writes the folded manifest to the tmp
//!   file, fsyncs it, and atomically renames it over `MANIFEST` — a
//!   crash at any point leaves either the old or the new manifest intact,
//!   never a mix.
//!
//! **Write/commit protocol** for one `put`: append the record to the
//! active segment → fsync segment → append the manifest line → fsync
//! manifest. Each fsync (and each compaction rename) is one numbered
//! *sync point*; the seeded [`FaultPlan`] can tear the record write,
//! silently corrupt the payload, drop an fsync (lying disk), or kill the
//! store at exactly the Nth sync point — the harness the crash-recovery
//! suite sweeps. After any injected crash the store goes dead: every
//! later operation is a no-op, modeling a dead process until the next
//! [`SegmentStore::open`] over the directory.
//!
//! **Recovery** folds the manifest (tolerating a torn tail), reads every
//! referenced record, verifies magic/CRC/identity, and returns metadata
//! only — payload bytes are dropped immediately, so startup memory stays
//! bounded no matter how large the store is (the cache rehydrates a
//! budgeted hot set afterwards and materializes the rest lazily).
//! Records failing verification are counted in `checksum_rejects` and
//! tombstoned; unreferenced segment files and a stale `MANIFEST.tmp` are
//! removed.

use crate::stats::ReuseStats;
use memphis_matrix::hash::{FNV_OFFSET, FNV_PRIME};
use memphis_sparksim::FaultPlan;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record header magic.
pub const RECORD_MAGIC: [u8; 4] = *b"MREC";
/// Fixed record header length in bytes.
pub const RECORD_HEADER_LEN: usize = 44;
/// Committed manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Compaction staging manifest (atomically renamed over [`MANIFEST_FILE`]).
pub const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_HEADER: &str = "memphis-manifest v1";

// ----------------------------------------------------------------------
// CRC32 (IEEE, table-driven) — vendored-dependency-free.
// ----------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// IEEE CRC32 of `data` (the polynomial used by gzip/zlib).
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ----------------------------------------------------------------------
// Record encoding
// ----------------------------------------------------------------------

/// One durable record, fully decoded (payload included).
#[derive(Debug, Clone, PartialEq)]
pub struct DurableRecord {
    /// Lineage identity tag ([`crate::lineage::LineageId::content_hash`]).
    pub content_hash: u64,
    /// Analytical compute cost carried through restarts for eq. (1).
    pub compute_cost: f64,
    /// Reuse hits accumulated before the spill (recovered entries keep
    /// their proven-reuse standing).
    pub hits: u64,
    /// Lineage trace height.
    pub height: u32,
    /// Canonical serialized lineage log (re-internable).
    pub lineage_log: String,
    /// Matrix binary ([`memphis_matrix::io`] format).
    pub matrix_bytes: Vec<u8>,
}

/// Recovery-time view of a verified record: metadata only, payload
/// dropped (lazy materialization keeps startup memory bounded).
#[derive(Debug, Clone)]
pub struct RecoveredMeta {
    /// Lineage identity tag.
    pub content_hash: u64,
    /// Persisted compute cost.
    pub compute_cost: f64,
    /// Persisted reuse hits.
    pub hits: u64,
    /// Persisted lineage height.
    pub height: u32,
    /// Serialized lineage log for re-interning.
    pub lineage_log: String,
    /// Matrix payload length in bytes (entry size accounting).
    pub matrix_len: usize,
}

/// Encodes a record into its on-disk byte form.
pub fn encode_record(rec: &DurableRecord) -> Vec<u8> {
    let lineage = rec.lineage_log.as_bytes();
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + lineage.len() + rec.matrix_bytes.len());
    buf.extend_from_slice(&RECORD_MAGIC);
    buf.extend_from_slice(&rec.content_hash.to_le_bytes());
    buf.extend_from_slice(&rec.compute_cost.to_bits().to_le_bytes());
    buf.extend_from_slice(&rec.hits.to_le_bytes());
    buf.extend_from_slice(&rec.height.to_le_bytes());
    buf.extend_from_slice(&(lineage.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(rec.matrix_bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC placeholder
    buf.extend_from_slice(lineage);
    buf.extend_from_slice(&rec.matrix_bytes);
    let crc = record_crc(&buf);
    buf[40..44].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// CRC over the header fields after the magic plus both payloads (the
/// CRC field itself excluded).
fn record_crc(buf: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    let table = crc32_table();
    for &b in buf[4..40].iter().chain(&buf[RECORD_HEADER_LEN..]) {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Why a record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Record shorter than the fixed header or its declared payloads.
    Truncated,
    /// Magic bytes missing.
    BadMagic,
    /// CRC mismatch (torn or bit-flipped record).
    BadChecksum,
    /// Lineage payload is not valid UTF-8.
    BadLineage,
}

/// Decodes and verifies one record from its exact byte range.
pub fn decode_record(buf: &[u8]) -> Result<DurableRecord, RecordError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(RecordError::Truncated);
    }
    if buf[0..4] != RECORD_MAGIC {
        return Err(RecordError::BadMagic);
    }
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
    let lineage_len = u32_at(32) as usize;
    let matrix_len = u32_at(36) as usize;
    if buf.len() != RECORD_HEADER_LEN + lineage_len + matrix_len {
        return Err(RecordError::Truncated);
    }
    if record_crc(buf) != u32_at(40) {
        return Err(RecordError::BadChecksum);
    }
    let lineage_log = std::str::from_utf8(&buf[RECORD_HEADER_LEN..RECORD_HEADER_LEN + lineage_len])
        .map_err(|_| RecordError::BadLineage)?
        .to_string();
    Ok(DurableRecord {
        content_hash: u64_at(4),
        compute_cost: f64::from_bits(u64_at(12)),
        hits: u64_at(20),
        height: u32_at(28),
        lineage_log,
        matrix_bytes: buf[RECORD_HEADER_LEN + lineage_len..].to_vec(),
    })
}

// ----------------------------------------------------------------------
// Store
// ----------------------------------------------------------------------

/// Location of one committed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordLoc {
    segment: u64,
    offset: u64,
    len: u64,
}

struct Inner {
    index: HashMap<u64, RecordLoc>,
    /// Segment the next record appends to.
    active_segment: u64,
    active_len: u64,
    next_segment: u64,
    manifest_len: u64,
    live_bytes: u64,
    dead_bytes: u64,
    /// Monotone record-write sequence (torn/corrupt decisions).
    write_seq: u64,
    /// Monotone sync-point sequence (fsyncs + manifest renames).
    sync_seq: u64,
    /// Set once an injected crash fires; every later op is a no-op.
    crashed: bool,
    /// Committed-state digest after each successful sync point (the
    /// kill-sweep differential baseline).
    sync_digests: Vec<u64>,
    committed_digest: u64,
}

/// The log-structured durable store. All mutation runs under one leaf
/// mutex (acquired after any probe-map shard lock, never before).
pub struct SegmentStore {
    dir: PathBuf,
    segment_max: u64,
    compact_min_dead: u64,
    faults: FaultPlan,
    stats: Arc<ReuseStats>,
    inner: Mutex<Inner>,
}

/// Digest of an empty store (recovered state with no committed entries).
pub fn empty_digest() -> u64 {
    digest_of(&HashMap::new())
}

/// Order-independent FNV digest over the committed (hash, len) set.
fn digest_of(index: &HashMap<u64, RecordLoc>) -> u64 {
    let sorted: BTreeMap<u64, u64> = index.iter().map(|(h, l)| (*h, l.len)).collect();
    let mut d = FNV_OFFSET;
    for (h, len) in sorted {
        for b in h.to_le_bytes().into_iter().chain(len.to_le_bytes()) {
            d ^= b as u64;
            d = d.wrapping_mul(FNV_PRIME);
        }
    }
    d
}

fn segment_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("seg_{seg}.log"))
}

impl SegmentStore {
    /// Opens (and recovers) the store in `dir`, returning verified entry
    /// metadata. A missing or empty directory yields an empty store.
    pub fn open(
        dir: PathBuf,
        segment_max: u64,
        compact_min_dead: u64,
        faults: FaultPlan,
        stats: Arc<ReuseStats>,
    ) -> (Self, Vec<RecoveredMeta>) {
        let (index, recovered, rejected, next_segment, manifest_len) = Self::recover(&dir, &stats);
        let live_bytes = index.values().map(|l| l.len).sum();
        let committed_digest = digest_of(&index);
        let store = Self {
            dir,
            segment_max: segment_max.max(1),
            compact_min_dead: compact_min_dead.max(1),
            faults,
            stats,
            inner: Mutex::new(Inner {
                index,
                active_segment: next_segment,
                active_len: 0,
                next_segment: next_segment + 1,
                manifest_len,
                live_bytes,
                dead_bytes: 0,
                write_seq: 0,
                sync_seq: 0,
                crashed: false,
                sync_digests: Vec::new(),
                committed_digest,
            }),
        };
        // Tombstone rejected records so later recoveries skip (and stop
        // re-counting) them. Best-effort: a failure only re-rejects.
        for hash in rejected {
            store.append_manifest_line_unsynced(&format!("del {hash}\n"));
        }
        (store, recovered)
    }

    /// Folds the manifest and verifies every referenced record.
    #[allow(clippy::type_complexity)]
    fn recover(
        dir: &Path,
        stats: &ReuseStats,
    ) -> (
        HashMap<u64, RecordLoc>,
        Vec<RecoveredMeta>,
        Vec<u64>,
        u64,
        u64,
    ) {
        // A crashed compaction may leave a staging manifest: the rename
        // never happened, so it is dead weight.
        fs::remove_file(dir.join(MANIFEST_TMP)).ok();
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap_or_default();
        let mut folded: HashMap<u64, RecordLoc> = HashMap::new();
        let mut referenced_segments: HashSet<u64> = HashSet::new();
        // Fold the well-formed, newline-terminated prefix. A committed
        // append always ends in '\n'; anything after the first torn or
        // malformed line is untrusted and truncated away so later
        // appends never concatenate onto a torn tail.
        let mut committed_bytes = 0usize;
        for (i, chunk) in manifest.split_inclusive('\n').enumerate() {
            if !chunk.ends_with('\n') {
                break; // torn final append
            }
            let line = chunk.trim_end_matches('\n');
            if i == 0 {
                if line != MANIFEST_HEADER {
                    break; // foreign or torn-from-birth manifest
                }
                committed_bytes += chunk.len();
                continue;
            }
            let mut parts = line.split_whitespace();
            let parsed = match parts.next() {
                Some("put") => (|| {
                    let hash: u64 = parts.next()?.parse().ok()?;
                    let segment: u64 = parts.next()?.parse().ok()?;
                    let offset: u64 = parts.next()?.parse().ok()?;
                    let len: u64 = parts.next()?.parse().ok()?;
                    folded.insert(
                        hash,
                        RecordLoc {
                            segment,
                            offset,
                            len,
                        },
                    );
                    referenced_segments.insert(segment);
                    Some(())
                })(),
                Some("del") => (|| {
                    let hash: u64 = parts.next()?.parse().ok()?;
                    folded.remove(&hash);
                    Some(())
                })(),
                _ => None,
            };
            if parsed.is_none() {
                break;
            }
            committed_bytes += chunk.len();
        }
        if committed_bytes < manifest.len() {
            truncate_to(&dir.join(MANIFEST_FILE), committed_bytes as u64);
        }
        let manifest_len = committed_bytes as u64;

        // Verify every referenced record; drop what fails.
        let mut index: HashMap<u64, RecordLoc> = HashMap::new();
        let mut recovered: Vec<RecoveredMeta> = Vec::new();
        let mut rejected: Vec<u64> = Vec::new();
        let mut live_segments: HashSet<u64> = HashSet::new();
        let mut sorted: Vec<(u64, RecordLoc)> = folded.iter().map(|(h, l)| (*h, *l)).collect();
        sorted.sort_by_key(|(h, l)| (l.segment, l.offset, *h));
        for (hash, loc) in sorted {
            match read_record_at(dir, loc) {
                Ok(rec) if rec.content_hash == hash => {
                    live_segments.insert(loc.segment);
                    recovered.push(RecoveredMeta {
                        content_hash: rec.content_hash,
                        compute_cost: rec.compute_cost,
                        hits: rec.hits,
                        height: rec.height,
                        lineage_log: rec.lineage_log,
                        matrix_len: rec.matrix_bytes.len(),
                    });
                    index.insert(hash, loc);
                }
                _ => {
                    ReuseStats::inc(&stats.checksum_rejects);
                    rejected.push(hash);
                }
            }
        }
        for _ in &live_segments {
            ReuseStats::inc(&stats.segments_recovered);
        }

        // Sweep orphans: segments never referenced by the committed
        // manifest are unacknowledged garbage (crash leftovers, aborted
        // compaction runs).
        let mut max_segment = 0u64;
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(seg) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("seg_"))
                    .and_then(|n| n.strip_suffix(".log"))
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                max_segment = max_segment.max(seg);
                if !referenced_segments.contains(&seg) {
                    fs::remove_file(entry.path()).ok();
                }
            }
        }
        (index, recovered, rejected, max_segment + 1, manifest_len)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True once an injected fault crashed the store.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Committed entry count.
    pub fn entry_count(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True when `hash` is committed.
    pub fn contains(&self, hash: u64) -> bool {
        self.inner.lock().index.contains_key(&hash)
    }

    /// Committed live record bytes (headers + payloads).
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().live_bytes
    }

    /// Sync points performed so far (successful or killed).
    pub fn sync_points(&self) -> u64 {
        self.inner.lock().sync_seq
    }

    /// Committed-state digest after each successful sync point, in order.
    pub fn sync_digests(&self) -> Vec<u64> {
        self.inner.lock().sync_digests.clone()
    }

    /// Digest of the currently committed (hash, len) set.
    pub fn durable_digest(&self) -> u64 {
        self.inner.lock().committed_digest
    }

    /// Commits one record: segment append + fsync, manifest append +
    /// fsync. Returns false on I/O failure or injected crash — the
    /// caller degrades to a clean drop.
    pub fn put(&self, rec: &DurableRecord) -> bool {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return false;
        }
        if fs::create_dir_all(&self.dir).is_err() {
            ReuseStats::inc(&self.stats.disk_io_errors);
            return false;
        }
        let mut bytes = encode_record(rec);
        inner.write_seq += 1;
        let write_seq = inner.write_seq;
        if self.faults.should_tear_disk_write(write_seq) {
            // Torn write: a prefix lands on disk, then the process dies.
            let prefix = bytes.len() / 2;
            let seg = segment_path(&self.dir, inner.active_segment);
            if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(seg) {
                f.write_all(&bytes[..prefix]).ok();
            }
            inner.crashed = true;
            return false;
        }
        if self.faults.should_corrupt_disk_record(write_seq) {
            // Silent corruption: acknowledged normally, caught by CRC.
            let flip = RECORD_HEADER_LEN + (write_seq as usize % rec.lineage_log.len().max(1));
            if flip < bytes.len() {
                bytes[flip] ^= 0x40;
            }
        }

        // Roll the active segment when full.
        if inner.active_len > 0 && inner.active_len + bytes.len() as u64 > self.segment_max {
            inner.active_segment = inner.next_segment;
            inner.next_segment += 1;
            inner.active_len = 0;
        }
        let loc = RecordLoc {
            segment: inner.active_segment,
            offset: inner.active_len,
            len: bytes.len() as u64,
        };
        let seg_path = segment_path(&self.dir, loc.segment);
        let pre_len = inner.active_len;
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                Ok(f)
            });
        let file = match appended {
            Ok(f) => f,
            Err(_) => {
                // The segment may hold a partial tail now; retire it so
                // later offsets stay truthful.
                ReuseStats::inc(&self.stats.disk_io_errors);
                inner.active_segment = inner.next_segment;
                inner.next_segment += 1;
                inner.active_len = 0;
                return false;
            }
        };
        if !self.sync_file(&mut inner, file, &seg_path, pre_len) {
            return false;
        }
        inner.active_len += bytes.len() as u64;

        // Commit: the manifest line is the durability point.
        let line = format!(
            "put {} {} {} {}\n",
            rec.content_hash, loc.segment, loc.offset, loc.len
        );
        if !self.append_manifest_synced(&mut inner, &line) {
            return false;
        }
        if let Some(old) = inner.index.insert(rec.content_hash, loc) {
            inner.dead_bytes += old.len;
            inner.live_bytes = inner.live_bytes.saturating_sub(old.len);
        }
        inner.live_bytes += loc.len;
        let committed = digest_of(&inner.index);
        inner.committed_digest = committed;
        // The commit digest belongs to the manifest sync that just
        // succeeded: rewrite the last recorded point.
        if let Some(last) = inner.sync_digests.last_mut() {
            *last = committed;
        }
        self.maybe_compact(&mut inner);
        true
    }

    /// Reads and verifies one committed record. A verification failure
    /// rejects the record (counted, tombstoned) and returns `None` so the
    /// caller routes to recompute — corrupt bytes never surface.
    pub fn read(&self, hash: u64) -> Option<DurableRecord> {
        let mut inner = self.inner.lock();
        let loc = *inner.index.get(&hash)?;
        match read_record_at(&self.dir, loc) {
            Ok(rec) if rec.content_hash == hash => Some(rec),
            _ => {
                ReuseStats::inc(&self.stats.checksum_rejects);
                inner.index.remove(&hash);
                inner.live_bytes = inner.live_bytes.saturating_sub(loc.len);
                inner.dead_bytes += loc.len;
                if !inner.crashed {
                    self.append_manifest_line_raw(&mut inner, &format!("del {hash}\n"));
                }
                None
            }
        }
    }

    /// Tombstones one entry (fsynced: a committed delete). Returns the
    /// freed record length, or `None` when absent.
    pub fn remove(&self, hash: u64) -> Option<u64> {
        let mut inner = self.inner.lock();
        let loc = inner.index.remove(&hash)?;
        inner.live_bytes = inner.live_bytes.saturating_sub(loc.len);
        inner.dead_bytes += loc.len;
        if !inner.crashed {
            let line = format!("del {hash}\n");
            if self.append_manifest_synced(&mut inner, &line) {
                let committed = digest_of(&inner.index);
                inner.committed_digest = committed;
                if let Some(last) = inner.sync_digests.last_mut() {
                    *last = committed;
                }
            }
            self.maybe_compact(&mut inner);
        }
        Some(loc.len)
    }

    /// Forces a compaction pass (tests); returns true when a manifest
    /// swap completed.
    pub fn compact_now(&self) -> bool {
        let mut inner = self.inner.lock();
        self.compact(&mut inner)
    }

    // ---- internals -----------------------------------------------------

    /// One sync point over an open file: injected kill/partial-fsync
    /// truncates the file back to `pre_len` and deadens the store;
    /// otherwise `sync_all` runs for real.
    fn sync_file(&self, inner: &mut Inner, file: File, path: &Path, pre_len: u64) -> bool {
        inner.sync_seq += 1;
        let seq = inner.sync_seq;
        if self.faults.should_kill_at_sync(seq) || self.faults.should_drop_fsync(seq) {
            drop(file);
            truncate_to(path, pre_len);
            inner.crashed = true;
            return false;
        }
        if file.sync_all().is_err() {
            ReuseStats::inc(&self.stats.disk_io_errors);
            return false;
        }
        let digest = inner.committed_digest;
        inner.sync_digests.push(digest);
        true
    }

    /// Appends one manifest line and fsyncs it (one sync point). Creates
    /// the manifest (with header) on first use.
    fn append_manifest_synced(&self, inner: &mut Inner, line: &str) -> bool {
        let path = self.dir.join(MANIFEST_FILE);
        let fresh = inner.manifest_len == 0 && !path.exists();
        let payload = if fresh {
            format!("{MANIFEST_HEADER}\n{line}")
        } else {
            line.to_string()
        };
        let pre_len = if fresh { 0 } else { inner.manifest_len };
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                f.write_all(payload.as_bytes())?;
                Ok(f)
            });
        let file = match appended {
            Ok(f) => f,
            Err(_) => {
                ReuseStats::inc(&self.stats.disk_io_errors);
                return false;
            }
        };
        if !self.sync_file(inner, file, &path, pre_len) {
            return false;
        }
        inner.manifest_len = pre_len + payload.len() as u64;
        true
    }

    /// Appends a manifest line without fsync (internal rejects: losing
    /// the line only re-rejects the record on the next recovery).
    fn append_manifest_line_raw(&self, inner: &mut Inner, line: &str) {
        let path = self.dir.join(MANIFEST_FILE);
        if inner.manifest_len == 0 && !path.exists() {
            return; // nothing committed yet, nothing to tombstone
        }
        if let Ok(mut f) = OpenOptions::new().append(true).open(&path) {
            if f.write_all(line.as_bytes()).is_ok() {
                inner.manifest_len += line.len() as u64;
            }
        }
    }

    fn append_manifest_line_unsynced(&self, line: &str) {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return;
        }
        self.append_manifest_line_raw(&mut inner, line);
    }

    fn maybe_compact(&self, inner: &mut Inner) {
        if inner.dead_bytes >= self.compact_min_dead
            && inner.dead_bytes * 2 >= inner.dead_bytes + inner.live_bytes
        {
            self.compact(inner);
        }
    }

    /// Rewrites live records into fresh segments and atomically swaps the
    /// manifest. Crash-safe: until the rename lands, recovery sees the
    /// old manifest and old segments untouched.
    fn compact(&self, inner: &mut Inner) -> bool {
        if inner.crashed {
            return false;
        }
        // Re-verify every live record while copying; rejects fall out of
        // the compacted generation.
        let mut entries: Vec<(u64, RecordLoc)> =
            inner.index.iter().map(|(h, l)| (*h, *l)).collect();
        entries.sort_by_key(|(h, l)| (l.segment, l.offset, *h));
        let mut live: Vec<(u64, Vec<u8>)> = Vec::with_capacity(entries.len());
        for (hash, loc) in entries {
            match read_record_bytes(&self.dir, loc) {
                Some(bytes)
                    if decode_record(&bytes)
                        .map(|r| r.content_hash == hash)
                        .unwrap_or(false) =>
                {
                    live.push((hash, bytes));
                }
                _ => {
                    ReuseStats::inc(&self.stats.checksum_rejects);
                    inner.index.remove(&hash);
                    inner.live_bytes = inner.live_bytes.saturating_sub(loc.len);
                }
            }
        }
        let old_segments: HashSet<u64> = inner.index.values().map(|l| l.segment).collect();

        // New generation: pack live records into in-memory segment
        // images first so the segment ids can be claimed in one step —
        // an aborted compaction must never leave a fresh id pointing at
        // a file with stale content.
        let mut packed: Vec<Vec<u8>> = Vec::new();
        let mut placements: Vec<(u64, usize, u64, u64)> = Vec::new(); // hash, seg idx, off, len
        let mut seg_buf: Vec<u8> = Vec::new();
        for (hash, bytes) in &live {
            if !seg_buf.is_empty() && (seg_buf.len() + bytes.len()) as u64 > self.segment_max {
                packed.push(std::mem::take(&mut seg_buf));
            }
            placements.push((
                *hash,
                packed.len(),
                seg_buf.len() as u64,
                bytes.len() as u64,
            ));
            seg_buf.extend_from_slice(bytes);
        }
        if !seg_buf.is_empty() {
            packed.push(seg_buf);
        }
        let first_seg = inner.next_segment;
        inner.next_segment += packed.len() as u64;
        let written_segments: Vec<u64> = (0..packed.len() as u64).map(|i| first_seg + i).collect();
        let mut new_index: HashMap<u64, RecordLoc> = HashMap::new();
        for (hash, seg_idx, offset, len) in placements {
            new_index.insert(
                hash,
                RecordLoc {
                    segment: first_seg + seg_idx as u64,
                    offset,
                    len,
                },
            );
        }
        for (i, image) in packed.iter().enumerate() {
            let path = segment_path(&self.dir, first_seg + i as u64);
            let written = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .and_then(|mut f| {
                    f.write_all(image)?;
                    Ok(f)
                });
            let file = match written {
                Ok(f) => f,
                Err(_) => {
                    ReuseStats::inc(&self.stats.disk_io_errors);
                    return false;
                }
            };
            // Each new-generation segment fsync is a numbered sync point;
            // a kill here leaves only unreferenced files behind.
            if !self.sync_file(inner, file, &path, 0) {
                return false;
            }
        }

        // Staged manifest, fsynced, then atomically renamed.
        let mut manifest = format!("{MANIFEST_HEADER}\n");
        let mut lines: Vec<(u64, RecordLoc)> = new_index.iter().map(|(h, l)| (*h, *l)).collect();
        lines.sort_by_key(|(h, l)| (l.segment, l.offset, *h));
        for (hash, loc) in &lines {
            manifest.push_str(&format!(
                "put {} {} {} {}\n",
                hash, loc.segment, loc.offset, loc.len
            ));
        }
        let tmp = self.dir.join(MANIFEST_TMP);
        let staged = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .and_then(|mut f| {
                f.write_all(manifest.as_bytes())?;
                Ok(f)
            });
        let file = match staged {
            Ok(f) => f,
            Err(_) => {
                ReuseStats::inc(&self.stats.disk_io_errors);
                return false;
            }
        };
        if !self.sync_file(inner, file, &tmp, 0) {
            return false;
        }

        // The rename barrier is its own sync point: a kill *here* is the
        // crash-before-rename case — the staged manifest is complete on
        // disk but never becomes `MANIFEST`, and recovery discards it.
        inner.sync_seq += 1;
        let seq = inner.sync_seq;
        if self.faults.should_kill_at_sync(seq) || self.faults.should_drop_fsync(seq) {
            inner.crashed = true;
            return false;
        }
        if fs::rename(&tmp, self.dir.join(MANIFEST_FILE)).is_err() {
            ReuseStats::inc(&self.stats.disk_io_errors);
            fs::remove_file(&tmp).ok();
            return false;
        }
        // Make the rename itself durable (directory entry).
        if let Ok(d) = File::open(&self.dir) {
            d.sync_all().ok();
        }

        // Committed: swap in-memory state and drop the old generation.
        for seg in old_segments {
            if !written_segments.contains(&seg) {
                fs::remove_file(segment_path(&self.dir, seg)).ok();
            }
        }
        inner.live_bytes = new_index.values().map(|l| l.len).sum();
        inner.dead_bytes = 0;
        inner.index = new_index;
        inner.manifest_len = manifest.len() as u64;
        inner.active_segment = inner.next_segment;
        inner.next_segment += 1;
        inner.active_len = 0;
        inner.committed_digest = digest_of(&inner.index);
        inner.sync_digests.push(inner.committed_digest);
        ReuseStats::inc(&self.stats.manifest_swaps);
        true
    }
}

fn truncate_to(path: &Path, len: u64) {
    if let Ok(f) = OpenOptions::new().write(true).open(path) {
        f.set_len(len).ok();
    }
}

fn read_record_bytes(dir: &Path, loc: RecordLoc) -> Option<Vec<u8>> {
    let mut f = File::open(segment_path(dir, loc.segment)).ok()?;
    f.seek(SeekFrom::Start(loc.offset)).ok()?;
    let mut buf = vec![0u8; loc.len as usize];
    f.read_exact(&mut buf).ok()?;
    Some(buf)
}

fn read_record_at(dir: &Path, loc: RecordLoc) -> Result<DurableRecord, RecordError> {
    let Some(buf) = read_record_bytes(dir, loc) else {
        return Err(RecordError::Truncated);
    };
    decode_record(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memphis_durable_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn rec(hash: u64, payload: &[u8]) -> DurableRecord {
        DurableRecord {
            content_hash: hash,
            compute_cost: 42.5,
            hits: 3,
            height: 2,
            lineage_log: format!("(0) leaf [x{hash}] ()"),
            matrix_bytes: payload.to_vec(),
        }
    }

    fn open_plain(dir: &Path) -> (SegmentStore, Vec<RecoveredMeta>) {
        SegmentStore::open(
            dir.to_path_buf(),
            1 << 16,
            1 << 30, // never auto-compact in unit tests
            FaultPlan::none(),
            Arc::new(ReuseStats::default()),
        )
    }

    #[test]
    fn record_roundtrip_bit_identical() {
        let r = rec(0xdead_beef, &[1, 2, 3, 4, 5]);
        let bytes = encode_record(&r);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decode_rejects_flips_truncation_and_bad_magic() {
        let bytes = encode_record(&rec(7, b"payload"));
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x10;
            assert!(
                decode_record(&b).is_err(),
                "flip at byte {i} must not decode cleanly"
            );
        }
        assert_eq!(
            decode_record(&bytes[..bytes.len() - 1]),
            Err(RecordError::Truncated)
        );
        let mut b = bytes.clone();
        b[0] = b'X';
        assert_eq!(decode_record(&b), Err(RecordError::BadMagic));
    }

    #[test]
    fn put_read_remove_and_recover() {
        let dir = tmp_dir("prr");
        {
            let (store, recovered) = open_plain(&dir);
            assert!(recovered.is_empty());
            assert!(store.put(&rec(1, b"one")));
            assert!(store.put(&rec(2, b"two")));
            assert_eq!(store.read(1).unwrap().matrix_bytes, b"one");
            assert!(store.remove(2).is_some());
            assert!(!store.contains(2));
        }
        let (store, recovered) = open_plain(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].content_hash, 1);
        assert_eq!(store.read(1).unwrap().matrix_bytes, b"one");
        assert!(store.read(2).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_corrupted_record_and_keeps_rest() {
        let dir = tmp_dir("corrupt");
        let stats = Arc::new(ReuseStats::default());
        {
            let (store, _) = open_plain(&dir);
            assert!(store.put(&rec(1, b"aaaa")));
            assert!(store.put(&rec(2, b"bbbb")));
        }
        // Flip one byte inside the first record's payload on disk.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let flip = RECORD_HEADER_LEN + 2;
        bytes[flip] ^= 0xff;
        fs::write(&seg, bytes).unwrap();
        let (store, recovered) = SegmentStore::open(
            dir.clone(),
            1 << 16,
            1 << 30,
            FaultPlan::none(),
            stats.clone(),
        );
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].content_hash, 2);
        assert_eq!(stats.snapshot().checksum_rejects, 1);
        assert!(store.read(2).is_some());
        assert!(store.read(1).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_tail_is_ignored() {
        let dir = tmp_dir("torn_tail");
        {
            let (store, _) = open_plain(&dir);
            assert!(store.put(&rec(1, b"one")));
        }
        // Simulate a torn final append: half a `put` line.
        let mut manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        manifest.push_str("put 99 7 0 1");
        fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
        let (_, recovered) = open_plain(&dir);
        assert_eq!(recovered.len(), 1, "torn tail line must be dropped");
        assert_eq!(recovered[0].content_hash, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_swaps_manifest_and_drops_old_segments() {
        let dir = tmp_dir("compact");
        let stats = Arc::new(ReuseStats::default());
        let (store, _) = SegmentStore::open(
            dir.clone(),
            1 << 12,
            1 << 30,
            FaultPlan::none(),
            stats.clone(),
        );
        for i in 0..8u64 {
            assert!(store.put(&rec(i, &vec![i as u8; 600])));
        }
        for i in 0..6u64 {
            assert!(store.remove(i).is_some());
        }
        assert!(store.compact_now());
        assert_eq!(stats.snapshot().manifest_swaps, 1);
        assert_eq!(store.entry_count(), 2);
        assert!(!dir.join(MANIFEST_TMP).exists());
        // Still readable live, and recoverable.
        assert_eq!(store.read(7).unwrap().matrix_bytes, vec![7u8; 600]);
        drop(store);
        let (store, recovered) = open_plain(&dir);
        assert_eq!(recovered.len(), 2);
        assert_eq!(store.read(6).unwrap().matrix_bytes, vec![6u8; 600]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_at_each_sync_point_recovers_the_committed_prefix() {
        // Baseline: record the committed digest after every sync point.
        let base = tmp_dir("kill_base");
        let total_syncs;
        let digests;
        {
            let (store, _) = open_plain(&base);
            for i in 0..5u64 {
                assert!(store.put(&rec(i, &[i as u8; 64])));
            }
            store.remove(1);
            total_syncs = store.sync_points();
            digests = store.sync_digests();
        }
        assert_eq!(digests.len() as u64, total_syncs);
        for k in 1..=total_syncs {
            let dir = tmp_dir(&format!("kill_{k}"));
            let stats = Arc::new(ReuseStats::default());
            let plan = FaultPlan::seeded(42).with_disk_kill_at_sync(k);
            {
                let (store, _) =
                    SegmentStore::open(dir.clone(), 1 << 16, 1 << 30, plan, stats.clone());
                for i in 0..5u64 {
                    store.put(&rec(i, &[i as u8; 64]));
                }
                store.remove(1);
                assert!(store.is_crashed(), "kill point {k} must fire");
            }
            let (store, _) = open_plain(&dir);
            let expected = if k >= 2 {
                digests[(k - 2) as usize]
            } else {
                empty_digest()
            };
            assert_eq!(
                store.durable_digest(),
                expected,
                "kill at sync {k}: recovered state must equal the committed prefix"
            );
            assert_eq!(
                stats.snapshot().checksum_rejects,
                0,
                "a sync-boundary kill leaves no corrupt committed record"
            );
            fs::remove_dir_all(&dir).ok();
        }
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn crash_before_rename_keeps_old_manifest() {
        let dir = tmp_dir("prerename");
        let stats = Arc::new(ReuseStats::default());
        // First learn at which sync point the rename barrier sits.
        let rename_sync;
        {
            let (store, _) = SegmentStore::open(
                dir.clone(),
                1 << 16,
                1 << 30,
                FaultPlan::none(),
                stats.clone(),
            );
            for i in 0..4u64 {
                assert!(store.put(&rec(i, &[i as u8; 64])));
            }
            store.remove(0);
            store.remove(1);
            let before = store.sync_points();
            assert!(store.compact_now());
            // Compaction = new-segment fsyncs + tmp fsync + rename; the
            // rename is the last sync point of the pass.
            rename_sync = store.sync_points();
            assert!(rename_sync > before);
        }
        fs::remove_dir_all(&dir).ok();

        let stats = Arc::new(ReuseStats::default());
        let plan = FaultPlan::seeded(7).with_disk_kill_at_sync(rename_sync);
        let digest_before;
        {
            let (store, _) = SegmentStore::open(dir.clone(), 1 << 16, 1 << 30, plan, stats.clone());
            for i in 0..4u64 {
                assert!(store.put(&rec(i, &[i as u8; 64])));
            }
            store.remove(0);
            store.remove(1);
            digest_before = store.durable_digest();
            assert!(!store.compact_now(), "killed before the rename");
            assert!(store.is_crashed());
            assert!(
                dir.join(MANIFEST_TMP).exists(),
                "staged manifest left behind by the crash"
            );
        }
        let (store, recovered) = open_plain(&dir);
        assert!(!dir.join(MANIFEST_TMP).exists(), "recovery sweeps the tmp");
        assert_eq!(recovered.len(), 2);
        assert_eq!(
            store.durable_digest(),
            digest_before,
            "old manifest generation must win after a pre-rename crash"
        );
        assert_eq!(stats.snapshot().manifest_swaps, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_never_surfaces_and_recovery_drops_it() {
        let dir = tmp_dir("torn");
        let stats = Arc::new(ReuseStats::default());
        // Tear every write.
        let plan = FaultPlan::seeded(1).with_disk_torn_write_rate(1.0);
        {
            let (store, _) = SegmentStore::open(dir.clone(), 1 << 16, 1 << 30, plan, stats.clone());
            assert!(!store.put(&rec(9, b"to-be-torn")));
            assert!(store.is_crashed());
            assert!(!store.contains(9));
        }
        let (store, recovered) = open_plain(&dir);
        assert!(recovered.is_empty());
        assert_eq!(store.durable_digest(), empty_digest());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let mut a = HashMap::new();
        a.insert(
            1u64,
            RecordLoc {
                segment: 1,
                offset: 0,
                len: 10,
            },
        );
        a.insert(
            2u64,
            RecordLoc {
                segment: 9,
                offset: 5,
                len: 20,
            },
        );
        let mut b = HashMap::new();
        b.insert(
            2u64,
            RecordLoc {
                segment: 3, // different location, same (hash, len)
                offset: 0,
                len: 20,
            },
        );
        b.insert(
            1u64,
            RecordLoc {
                segment: 1,
                offset: 0,
                len: 10,
            },
        );
        assert_eq!(digest_of(&a), digest_of(&b), "locations don't matter");
        b.get_mut(&1).unwrap().len = 11;
        assert_ne!(digest_of(&a), digest_of(&b));
    }
}
