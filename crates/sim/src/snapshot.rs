//! Versioned, checksummed engine snapshots and the append-only run journal.
//!
//! Everything here is hand-rolled and offline-safe: fixed-width
//! little-endian fields, length-prefixed sequences, an FNV-1a-64 payload
//! checksum, and a small magic/version container. No serde, no external
//! crates — the format is owned by this module and documented in
//! DESIGN.md ("Snapshots & replay").
//!
//! The contract that makes this worth building: restoring a snapshot and
//! driving the engine to completion must produce a **bit-identical**
//! `RunReport` to the uninterrupted run. Serialization here is therefore
//! *exact* — container layouts (open-addressed slot positions, free-list
//! order, bucket FIFO order) round-trip byte-for-byte rather than being
//! rebuilt by re-insertion, because iteration order feeds the
//! deterministic event loop.

use std::fmt;

/// Magic bytes opening every sealed snapshot (`TCSNAP` + 2 format bytes).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TCSNAP\x00\x01";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing.
///
/// * v1 — original PR 7 format.
/// * v2 — verifier payload carries the fairness oracle's outstanding
///   escalations; runner payload carries miss-latency samples and per-node
///   completion counts (and the adversary plane, when one is armed).
/// * v3 — fault/adversary plane state carries per-source-node RNG streams
///   (empty in single-stream mode); `EngineStats` carries shard telemetry;
///   the runner fingerprint folds in `RunOptions::shards`.
/// * v4 — `LineStateStats` drops the retired-container byte estimate.
/// * v5 — the Snooping, Directory and Hammer MSHRs share one field order
///   (pending ops, the common fields, then the protocol's own), and drop
///   the derivable Hammer `responses_expected` and Snooping `req_id`.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Why a snapshot or journal could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the announced payload did.
    Truncated,
    /// The container does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container's version is not one this build can read.
    BadVersion {
        /// Version found in the container header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The FNV-1a-64 checksum over the payload does not match the header.
    Checksum,
    /// Structurally valid bytes that decode to an impossible value
    /// (unknown enum tag, fingerprint mismatch, out-of-range index).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::Checksum => {
                write!(f, "snapshot checksum mismatch (corrupt or tampered)")
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes` — the integrity check for sealed payloads
/// and journal records. Not cryptographic; it catches torn writes and
/// bit rot, which is the failure model for a crash-resume file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Append-only encoder: fixed-width little-endian primitives plus
/// length-prefixed sequences. The matching decoder is [`SnapReader`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a sequence: a length prefix, then `emit` once per item.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut emit: impl FnMut(&mut Self, T),
    ) {
        self.usize(items.len());
        for item in items {
            emit(self, item);
        }
    }

    /// Writes an `Option<T>` as a presence byte plus the value.
    pub fn option<T>(&mut self, value: Option<T>, emit: impl FnOnce(&mut Self, T)) {
        match value {
            Some(v) => {
                self.bool(true);
                emit(self, v);
            }
            None => self.bool(false),
        }
    }
}

/// Decoder for [`SnapWriter`] payloads. Every read is bounds-checked and
/// returns [`SnapshotError::Truncated`] rather than panicking — corrupt
/// input is an error value, never UB or an abort.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`], rejecting values
    /// that cannot index memory on this platform.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize {v} out of range")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.bounded_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.bounded_len(1)?;
        self.take(len)
    }

    /// Reads a sequence length and sanity-bounds it against the bytes
    /// actually remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupt length cannot trigger an absurd pre-allocation.
    pub fn bounded_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    /// Reads a sequence written by [`SnapWriter::seq`].
    pub fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.bounded_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option<T>` written by [`SnapWriter::option`].
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }

    /// Fails unless every payload byte was consumed — trailing garbage
    /// means the reader and writer disagree about the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Seals `payload` into the on-disk container:
/// `magic(8) | version(4) | payload_len(8) | fnv1a64(payload)(8) | payload`.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Opens a sealed container, verifying magic, version, length, and
/// checksum. Returns the payload slice.
pub fn open(bytes: &[u8]) -> Result<(u32, &[u8]), SnapshotError> {
    if bytes.len() < 28 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let want = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[28..];
    if payload.len() as u64 != len {
        return Err(SnapshotError::Truncated);
    }
    if fnv1a64(payload) != want {
        return Err(SnapshotError::Checksum);
    }
    Ok((version, payload))
}

/// One entry in the append-only run journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A snapshot was taken at this point in the run.
    Checkpoint {
        /// Engine event count when the snapshot was sealed.
        events_delivered: u64,
        /// Simulated cycle when the snapshot was sealed.
        cycle: u64,
    },
    /// The verifier recorded a new invariant violation.
    Violation {
        /// Engine event count when the violation was recorded.
        events_delivered: u64,
        /// Simulated cycle when the violation was recorded.
        cycle: u64,
    },
    /// The run completed (drained or hit its cycle budget).
    End {
        /// Final engine event count.
        events_delivered: u64,
        /// Final simulated cycle.
        cycle: u64,
    },
    /// A starvation violation, with enough detail to reconstruct the
    /// fairness report without the full snapshot: who starved, on what,
    /// and for how long.
    StarvationDetail {
        /// Engine event count when starvation was declared.
        events_delivered: u64,
        /// Simulated cycle when starvation was declared.
        cycle: u64,
        /// Index of the starved node.
        node: u32,
        /// Block the starved request was for.
        addr: u64,
        /// How long the request had waited, in cycles.
        waited: u64,
    },
}

impl JournalRecord {
    fn tag(&self) -> u8 {
        match self {
            JournalRecord::Checkpoint { .. } => 0,
            JournalRecord::Violation { .. } => 1,
            JournalRecord::End { .. } => 2,
            JournalRecord::StarvationDetail { .. } => 3,
        }
    }

    /// Encodes the record body (tag byte included, checksum excluded).
    fn encode_body(&self, body: &mut Vec<u8>) {
        body.push(self.tag());
        match *self {
            JournalRecord::Checkpoint {
                events_delivered,
                cycle,
            }
            | JournalRecord::Violation {
                events_delivered,
                cycle,
            }
            | JournalRecord::End {
                events_delivered,
                cycle,
            } => {
                body.extend_from_slice(&events_delivered.to_le_bytes());
                body.extend_from_slice(&cycle.to_le_bytes());
            }
            JournalRecord::StarvationDetail {
                events_delivered,
                cycle,
                node,
                addr,
                waited,
            } => {
                body.extend_from_slice(&events_delivered.to_le_bytes());
                body.extend_from_slice(&cycle.to_le_bytes());
                body.extend_from_slice(&node.to_le_bytes());
                body.extend_from_slice(&addr.to_le_bytes());
                body.extend_from_slice(&waited.to_le_bytes());
            }
        }
    }

    /// Decodes a checksum-verified body. `None` means the record kind (or
    /// its layout) is unknown to this build — a *newer* writer appended it
    /// — and the loader should skip it rather than declare the file torn.
    fn decode_body(body: &[u8]) -> Option<JournalRecord> {
        let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        match body[0] {
            tag @ 0..=2 if body.len() == 17 => {
                let events_delivered = le_u64(&body[1..9]);
                let cycle = le_u64(&body[9..17]);
                Some(match tag {
                    0 => JournalRecord::Checkpoint {
                        events_delivered,
                        cycle,
                    },
                    1 => JournalRecord::Violation {
                        events_delivered,
                        cycle,
                    },
                    _ => JournalRecord::End {
                        events_delivered,
                        cycle,
                    },
                })
            }
            3 if body.len() == 37 => Some(JournalRecord::StarvationDetail {
                events_delivered: le_u64(&body[1..9]),
                cycle: le_u64(&body[9..17]),
                node: u32::from_le_bytes(body[17..21].try_into().unwrap()),
                addr: le_u64(&body[21..29]),
                waited: le_u64(&body[29..37]),
            }),
            _ => None,
        }
    }
}

/// Append-only record of a run's progress between snapshots: checkpoints
/// taken, violations seen, and the final event count. Each record is
/// individually framed (`len u8 | body | fnv1a64(body) u64`, where
/// `body[0]` is the record tag) and checksummed, so a journal truncated
/// by a crash loads every record up to the tear, and a record kind this
/// build does not know — appended by a newer writer — is skipped rather
/// than mistaken for corruption.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunJournal {
    records: Vec<JournalRecord>,
}

impl RunJournal {
    /// Empty journal.
    pub fn new() -> Self {
        RunJournal::default()
    }

    /// Appends one record.
    pub fn append(&mut self, record: JournalRecord) {
        self.records.push(record);
    }

    /// All records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Serializes every record as a framed, per-record-checksummed stream.
    pub fn as_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * 26);
        let mut body = Vec::with_capacity(64);
        for record in &self.records {
            body.clear();
            record.encode_body(&mut body);
            debug_assert!(!body.is_empty() && body.len() <= usize::from(u8::MAX));
            out.push(body.len() as u8);
            out.extend_from_slice(&body);
            out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        }
        out
    }

    /// Loads a journal, keeping every intact record before the first torn
    /// one. Returns the journal and whether a tear was detected (a crashed
    /// run legitimately leaves one). A record whose checksum verifies but
    /// whose kind is unknown was written by a newer build: it is skipped
    /// and the load continues — framing makes that safe.
    pub fn load(bytes: &[u8]) -> (Self, bool) {
        let mut journal = RunJournal::new();
        let mut pos = 0;
        let mut torn = false;
        while pos < bytes.len() {
            let len = usize::from(bytes[pos]);
            if len == 0 || bytes.len() - pos < 1 + len + 8 {
                torn = true;
                break;
            }
            let body = &bytes[pos + 1..pos + 1 + len];
            let want =
                u64::from_le_bytes(bytes[pos + 1 + len..pos + 1 + len + 8].try_into().unwrap());
            if fnv1a64(body) != want {
                torn = true;
                break;
            }
            pos += 1 + len + 8;
            if let Some(record) = JournalRecord::decode_body(body) {
                journal.append(record);
            }
        }
        (journal, torn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.str("token coherence");
        w.bytes(&[1, 2, 3]);
        w.option(Some(42u64), |w, v| w.u64(v));
        w.option(None::<u64>, |w, v| w.u64(v));
        w.seq([10u64, 20, 30].into_iter(), |w, v| w.u64(v));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "token coherence");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(42));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![10, 20, 30]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.seq(|r| r.u8()), Err(SnapshotError::Truncated));
    }

    #[test]
    fn seal_and_open_verify_integrity() {
        let payload = b"engine state goes here";
        let sealed = seal(SNAPSHOT_VERSION, payload);
        let (version, opened) = open(&sealed).unwrap();
        assert_eq!(version, SNAPSHOT_VERSION);
        assert_eq!(opened, payload);

        // Any single flipped payload byte must be a checksum error.
        for i in 28..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert_eq!(open(&bad), Err(SnapshotError::Checksum), "byte {i}");
        }
        // A flipped magic byte is BadMagic, not a checksum error.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(open(&bad), Err(SnapshotError::BadMagic));
        // Truncation anywhere is detected.
        assert_eq!(
            open(&sealed[..sealed.len() - 1]),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let sealed = seal(SNAPSHOT_VERSION + 9, b"x");
        assert!(matches!(
            open(&sealed),
            Err(SnapshotError::BadVersion { found, .. }) if found == SNAPSHOT_VERSION + 9
        ));
    }

    #[test]
    fn journal_round_trips_and_survives_a_tear() {
        let mut journal = RunJournal::new();
        journal.append(JournalRecord::Checkpoint {
            events_delivered: 1000,
            cycle: 40,
        });
        journal.append(JournalRecord::Violation {
            events_delivered: 1500,
            cycle: 61,
        });
        journal.append(JournalRecord::End {
            events_delivered: 317_430,
            cycle: 99_000,
        });
        let bytes = journal.as_bytes();
        let (loaded, torn) = RunJournal::load(&bytes);
        assert!(!torn);
        assert_eq!(loaded, journal);

        // A crash mid-append leaves a torn tail: earlier records survive.
        let (partial, torn) = RunJournal::load(&bytes[..bytes.len() - 10]);
        assert!(torn);
        assert_eq!(partial.records(), &journal.records()[..2]);

        // A corrupted record body stops the load at the corruption point
        // (frames are 26 bytes for the 17-byte-body kinds; byte 27 is
        // inside the second record's body).
        let mut bad = bytes.clone();
        bad[27] ^= 0xFF;
        let (partial, torn) = RunJournal::load(&bad);
        assert!(torn);
        assert_eq!(partial.records(), &journal.records()[..1]);

        // A corrupted length byte desynchronizes the stream: also a tear.
        let mut bad = bytes.clone();
        bad[26] ^= 0xFF;
        let (partial, torn) = RunJournal::load(&bad);
        assert!(torn);
        assert_eq!(partial.records(), &journal.records()[..1]);
    }

    #[test]
    fn starvation_detail_round_trips() {
        let mut journal = RunJournal::new();
        journal.append(JournalRecord::StarvationDetail {
            events_delivered: 5_000,
            cycle: 77_000,
            node: 3,
            addr: 42,
            waited: 60_000,
        });
        journal.append(JournalRecord::End {
            events_delivered: 6_000,
            cycle: 80_000,
        });
        let (loaded, torn) = RunJournal::load(&journal.as_bytes());
        assert!(!torn);
        assert_eq!(loaded, journal);
    }

    #[test]
    fn unknown_record_kinds_are_skipped_not_torn() {
        let mut journal = RunJournal::new();
        journal.append(JournalRecord::Checkpoint {
            events_delivered: 100,
            cycle: 10,
        });
        journal.append(JournalRecord::End {
            events_delivered: 200,
            cycle: 20,
        });
        let bytes = journal.as_bytes();

        // Splice a well-formed frame with a future record kind (tag 200)
        // between the two known records, as a newer writer would.
        let future_body = [200u8, 1, 2, 3, 4, 5];
        let mut spliced = bytes[..26].to_vec();
        spliced.push(future_body.len() as u8);
        spliced.extend_from_slice(&future_body);
        spliced.extend_from_slice(&fnv1a64(&future_body).to_le_bytes());
        spliced.extend_from_slice(&bytes[26..]);

        let (loaded, torn) = RunJournal::load(&spliced);
        assert!(!torn, "a valid unknown kind must not read as a tear");
        assert_eq!(loaded.records(), journal.records());

        // A known tag with an impossible body length is likewise a layout
        // from some other build: skipped, not torn.
        let short_known = [0u8, 9, 9];
        let mut spliced = bytes.to_vec();
        spliced.push(short_known.len() as u8);
        spliced.extend_from_slice(&short_known);
        spliced.extend_from_slice(&fnv1a64(&short_known).to_le_bytes());
        let (loaded, torn) = RunJournal::load(&spliced);
        assert!(!torn);
        assert_eq!(loaded.records(), journal.records());
    }
}
