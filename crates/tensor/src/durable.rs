//! Crash-safe file persistence: CRC-32 checksums, the one checksummed
//! container every rewritten file uses, and write-to-temp → fsync →
//! atomic-rename file replacement.
//!
//! The parameter checkpoint (`AMDG`), the model artifact (`AMDM`), the
//! training-state snapshot (`AMTS`) and the sample store (`AMSS`) are all
//! one layout, written by [`encode`] and read by [`parse`]:
//!
//! ```text
//! magic (4 bytes) | u32 version | u32 section count | u32 header CRC
//! per section: u32 len | len bytes | u32 CRC (over len and bytes)
//! u32 footer CRC (over the header and every section CRC)
//! ```
//!
//! Each format decides what its sections hold and how much damage it
//! tolerates: the first three refuse any, the sample store keeps every
//! intact record. Fields inside a section are read with the bounds-checked
//! [`Cursor`]. The mutation log (`AMWL`, [`crate::wal`]) is append-only and
//! keeps its own record framing.
//!
//! Every file goes through [`write_atomic`], so a crash at any instant
//! leaves either the previous complete file or the new complete file —
//! never a half-written one — and the checksums let loaders detect the torn
//! or bit-flipped files a broken disk can still produce.
//!
//! Fault injection: [`write_atomic`] accepts an optional [`DiskFault`] that
//! deterministically simulates the three classic durability failures
//! (torn write, bit flip, partial flush). Recovery paths are tested against
//! these instead of real `kill -9`s, which keeps the tests deterministic.

use crate::matrix::Matrix;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) slicing-by-16 lookup
/// tables, built at compile time. Table 0 is the classic byte-at-a-time
/// table; table `k` folds a byte that sits `k` positions deeper into the
/// stream, letting [`crc32_update`] consume 16 bytes per step with 16
/// independent lookups — the same checksum, over an order of magnitude
/// faster. That throughput is on the hot path of every durable artifact
/// (checkpoints, the WAL, the sample store): a warm sample-store open is
/// one checksum sweep of the file, so CRC speed is open speed.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, the checksum zlib/PNG use).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming CRC-32: feed chunks through a running state. Start from
/// `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF`. Uses
/// slicing-by-16 internally; bit-identical to the byte-at-a-time
/// definition for any chunking of the stream.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bytes before the first section: magic, version, section count, header
/// CRC.
const HEADER_LEN: usize = 16;

/// Ceiling on a header-declared section count. A file we write ourselves
/// stays far below it; anything above is corrupt or hostile and is refused
/// before memory is committed to it.
const MAX_SECTIONS: usize = 1 << 24;

/// Ceiling on the element count of one encoded matrix (1 GiB of `f32`).
const MAX_ELEMS: usize = 1 << 28;

/// Serialize a container: `magic | u32 version | u32 section count |
/// u32 header CRC`, then each section as `u32 len | bytes | u32 CRC` (the
/// CRC covers the length and the bytes), then a footer CRC over the
/// header and every section CRC. Every byte is checksummed exactly once.
///
/// # Panics
/// When there are more than `u32::MAX` sections or a section exceeds
/// `u32::MAX` bytes, which no format here can produce (the readers' caps
/// are far lower).
pub fn encode<S: AsRef<[u8]>>(magic: &[u8; 4], version: u32, sections: &[S]) -> Vec<u8> {
    let body: usize = sections.iter().map(|s| s.as_ref().len() + 8).sum();
    let count = u32::try_from(sections.len()).expect("container over u32::MAX sections");
    let mut out = Vec::with_capacity(HEADER_LEN + body + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    let mut footer = crc32_update(0xFFFF_FFFF, &out);
    for section in sections {
        let section = section.as_ref();
        let len = u32::try_from(section.len()).expect("container section over 4 GiB");
        let start = out.len();
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(section);
        let crc = crc32(&out[start..]).to_le_bytes();
        out.extend_from_slice(&crc);
        footer = crc32_update(footer, &crc);
    }
    out.extend_from_slice(&(footer ^ 0xFFFF_FFFF).to_le_bytes());
    out
}

/// A parsed container: where each section's bytes sit in the buffer that
/// was parsed, and what damage the parse found.
#[derive(Debug)]
pub struct Container {
    /// One entry per header-declared section, in order: the byte range of
    /// the section's payload in the parsed buffer, or `None` when the
    /// section failed its CRC or was lost to truncation.
    pub sections: Vec<Option<Range<usize>>>,
    /// One description per damaged or lost section, plus a missing or
    /// mismatched footer and any bytes after it. Empty for an intact file.
    pub damage: Vec<String>,
}

impl Container {
    /// Every section, or `InvalidData` naming the first damage: the strict
    /// read for formats that must load whole or not at all.
    pub fn into_intact(self) -> io::Result<Vec<Range<usize>>> {
        match self.damage.into_iter().next() {
            Some(first) => Err(invalid(first)),
            None => Ok(self.sections.into_iter().flatten().collect()),
        }
    }
}

/// Parse a container written by [`encode`] in one pass, verifying every
/// section CRC once. Sections come back as ranges into `bytes`, so nothing
/// is copied.
///
/// A bad header (length, magic, version, header CRC, a section count over
/// the cap) is a hard [`io::ErrorKind::InvalidData`] error: nothing in the
/// file can be trusted. Past the header, damage is collected rather than
/// fatal: a section whose CRC fails is dropped and the walk resyncs on its
/// length; a truncation loses every section from there on; a missing or
/// mismatched footer and trailing bytes are reported too. Callers that
/// accept no damage use [`Container::into_intact`].
pub fn parse(bytes: &[u8], magic: &[u8; 4], version: u32) -> io::Result<Container> {
    let name = String::from_utf8_lossy(magic);
    if bytes.len() < HEADER_LEN {
        return Err(invalid(format!(
            "{name} file truncated in its header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..4] != magic {
        return Err(invalid(format!(
            "bad magic {:02x?}, expected {name}",
            &bytes[..4]
        )));
    }
    let found = le_u32(bytes, 4);
    if found != version {
        return Err(invalid(format!(
            "unsupported {name} version {found} (this build reads {version})"
        )));
    }
    let (stored, computed) = (le_u32(bytes, 12), crc32(&bytes[..12]));
    if stored != computed {
        return Err(invalid(format!(
            "{name} header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let count = le_u32(bytes, 8) as usize;
    if count > MAX_SECTIONS {
        return Err(invalid(format!("implausible {name} section count {count}")));
    }

    let mut sections = Vec::with_capacity(count.min(bytes.len() / 8));
    let mut damage = Vec::new();
    let mut footer = crc32_update(0xFFFF_FFFF, &bytes[..HEADER_LEN]);
    let mut pos = HEADER_LEN;
    for i in 0..count {
        let rest = bytes.len() - pos;
        let len = if rest >= 4 {
            le_u32(bytes, pos) as usize
        } else {
            0
        };
        if rest < 8 || rest - 8 < len {
            damage.push(format!(
                "{name} truncated in section {i} of {count}: {} section(s) lost",
                count - i
            ));
            sections.resize(count, None);
            return Ok(Container { sections, damage });
        }
        let end = pos + 4 + len;
        let (stored, computed) = (le_u32(bytes, end), crc32(&bytes[pos..end]));
        footer = crc32_update(footer, &stored.to_le_bytes());
        if stored == computed {
            sections.push(Some(pos + 4..end));
        } else {
            damage.push(format!(
                "{name} section {i} checksum mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ));
            sections.push(None);
        }
        pos = end + 4;
    }
    let footer = footer ^ 0xFFFF_FFFF;
    match bytes.len() - pos {
        0..=3 => damage.push(format!("{name} truncated in its footer")),
        rest => {
            let stored = le_u32(bytes, pos);
            if stored != footer {
                damage.push(format!(
                    "{name} footer checksum mismatch: stored {stored:#010x}, \
                     computed {footer:#010x}"
                ));
            }
            if rest > 4 {
                damage.push(format!("{} byte(s) after the {name} footer", rest - 4));
            }
        }
    }
    Ok(Container { sections, damage })
}

/// A bounds-checked little-endian reader over one section's payload. A
/// read past the end fails with [`io::ErrorKind::InvalidData`] naming the
/// field, so a section that is shorter than its fields claim is reported
/// as corrupt, never as a panic or a bare `UnexpectedEof`.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// The next `n` bytes, borrowed from the underlying buffer.
    pub fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if self.bytes.len() < n {
            return Err(invalid(format!("truncated while reading {what}")));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self, what: &str) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    /// A `u32` length or count, refused above `max`: the ceiling that
    /// keeps a corrupt count from sizing an allocation.
    pub fn count(&mut self, max: usize, what: &str) -> io::Result<usize> {
        let n = self.u32(what)? as usize;
        if n > max {
            return Err(invalid(format!("implausible {what} {n}")));
        }
        Ok(n)
    }

    /// A matrix written by [`put_matrix`]. The declared shape is untrusted:
    /// it is capped, and its data must be present in full before anything
    /// is allocated for it.
    pub fn matrix(&mut self, what: &str) -> io::Result<Matrix> {
        let rows = self.u32("rows")? as usize;
        let cols = self.u32("cols")? as usize;
        let total = rows.saturating_mul(cols);
        if total > MAX_ELEMS {
            return Err(invalid(format!(
                "implausible tensor size {rows}x{cols} for {what}"
            )));
        }
        let data = self.take(total * 4, what)?;
        let data = data
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Succeed only when every byte was consumed: a section longer than
    /// its fields is as corrupt as a shorter one.
    pub fn finish(self, what: &str) -> io::Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(invalid(format!(
                "{} unread byte(s) at the end of {what}",
                self.bytes.len()
            )))
        }
    }
}

/// Append `m` as `u32 rows | u32 cols | f32 LE data...`, the matrix layout
/// every container format shares; [`Cursor::matrix`] reads it back.
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.reserve(8 + m.data().len() * 4);
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for &v in m.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// An [`io::ErrorKind::InvalidData`] error: the one kind every corrupt
/// container read reports.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A durability failure [`write_atomic`] can simulate, modelling what a
/// crash or a misbehaving disk does to an in-flight file write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The rename happened but only a prefix of the data reached the disk:
    /// the file at the destination is truncated mid-record. Loaders must
    /// detect this and fall back to the previous generation.
    TornWrite,
    /// All bytes arrived but one bit flipped in flight. Only a checksum can
    /// catch this.
    BitFlip,
    /// The process died after writing part of the temp file and before the
    /// rename: the destination never appears, the previous generation stays
    /// live, and a stale `.tmp` file is left behind.
    PartialFlush,
}

/// Extension a pending write carries until its atomic rename.
pub const TMP_EXTENSION: &str = "tmp";

/// Write `bytes` to `path` crash-safely: write to `path.tmp` in the same
/// directory, fsync the file, rename over `path`, then fsync the directory
/// so the rename itself is durable. At no instant does `path` hold a
/// partially written file (absent injected faults).
///
/// `fault` deterministically simulates a durability failure instead:
/// - [`DiskFault::TornWrite`] renames a file holding only the first half of
///   `bytes` (a crash racing writeback);
/// - [`DiskFault::BitFlip`] renames the full content with one bit flipped
///   in the middle byte;
/// - [`DiskFault::PartialFlush`] writes half of `bytes` to the temp file
///   and never renames (a crash before commit).
///
/// # Errors
/// Propagates any I/O error from create/write/sync/rename.
pub fn write_atomic(path: &Path, bytes: &[u8], fault: Option<DiskFault>) -> io::Result<()> {
    let tmp = tmp_path(path);
    let (payload, rename): (Vec<u8>, bool) = match fault {
        None => (bytes.to_vec(), true),
        Some(DiskFault::TornWrite) => (bytes[..bytes.len() / 2].to_vec(), true),
        Some(DiskFault::BitFlip) => {
            let mut corrupted = bytes.to_vec();
            if let Some(b) = corrupted.get_mut(bytes.len() / 2) {
                *b ^= 0x01;
            }
            (corrupted, true)
        }
        Some(DiskFault::PartialFlush) => (bytes[..bytes.len() / 2].to_vec(), false),
    };
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&payload)?;
        f.sync_all()?;
    }
    if rename {
        fs::rename(&tmp, path)?;
        sync_parent_dir(path);
    }
    Ok(())
}

/// The temp-file path a pending [`write_atomic`] to `path` uses.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(TMP_EXTENSION);
    path.with_file_name(name)
}

/// Fsync the directory containing `path` so a just-committed rename
/// survives power loss. Best-effort: directory fsync is not supported on
/// every platform, and a failure here cannot un-rename the file.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = OpenOptions::new().read(true).open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "amdgcnn-durable-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn sliced_crc_equals_bytewise_for_every_chunking() {
        // The slicing-by-16 fast path must be bit-identical to the
        // byte-at-a-time definition regardless of how the stream is cut
        // (exercises every remainder length 0..16).
        let data: Vec<u8> = (0..97u32)
            .map(|i| (i.wrapping_mul(31) ^ 0xA5) as u8)
            .collect();
        let bytewise = {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in &data {
                crc = crc32_update(crc, &[b]);
            }
            crc ^ 0xFFFF_FFFF
        };
        for chunk in 1..=data.len() {
            let mut state = 0xFFFF_FFFFu32;
            for c in data.chunks(chunk) {
                state = crc32_update(state, c);
            }
            assert_eq!(state ^ 0xFFFF_FFFF, bytewise, "chunk size {chunk}");
        }
        assert_eq!(crc32(&data), bytewise);
    }

    #[test]
    fn streaming_crc_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut state = 0xFFFF_FFFFu32;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = scratch_dir("replace");
        let path = dir.join("file.bin");
        write_atomic(&path, b"generation-1", None).expect("write");
        write_atomic(&path, b"generation-2", None).expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"generation-2");
        assert!(!tmp_path(&path).exists(), "tmp must be renamed away");
    }

    #[test]
    fn torn_write_truncates_but_renames() {
        let dir = scratch_dir("torn");
        let path = dir.join("file.bin");
        write_atomic(&path, b"0123456789", Some(DiskFault::TornWrite)).expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"01234");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let dir = scratch_dir("flip");
        let path = dir.join("file.bin");
        let data = b"0123456789".to_vec();
        write_atomic(&path, &data, Some(DiskFault::BitFlip)).expect("write");
        let got = fs::read(&path).expect("read");
        assert_eq!(got.len(), data.len());
        let flipped: u32 = got
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn partial_flush_leaves_previous_file_live() {
        let dir = scratch_dir("flush");
        let path = dir.join("file.bin");
        write_atomic(&path, b"good", None).expect("write");
        write_atomic(&path, b"doomed-write", Some(DiskFault::PartialFlush)).expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"good", "rename never ran");
        assert!(tmp_path(&path).exists(), "stale tmp is left behind");
    }
}
