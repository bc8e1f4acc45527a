//! Crash-safe file persistence: CRC-32 integrity checksums and
//! write-to-temp → fsync → atomic-rename file replacement.
//!
//! Every on-disk artifact in this workspace (parameter checkpoints, model
//! artifacts, training-state snapshots) goes through [`write_atomic`], so a
//! crash at any instant leaves either the previous complete file or the new
//! complete file — never a half-written one — and the checksums written by
//! the callers let loaders detect the torn or bit-flipped files a broken
//! disk can still produce.
//!
//! Fault injection: [`write_atomic`] accepts an optional [`DiskFault`] that
//! deterministically simulates the three classic durability failures
//! (torn write, bit flip, partial flush). Recovery paths are tested against
//! these instead of real `kill -9`s, which keeps the tests deterministic.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
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

/// A writer adapter that maintains two running CRC-32 states over
/// everything written: a whole-stream checksum and a resettable section
/// checksum (for per-record integrity footers inside one file).
pub struct CrcWriter<W> {
    inner: W,
    total: u32,
    section: u32,
}

impl<W: Write> CrcWriter<W> {
    /// Wrap `inner`, both checksums fresh.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            total: 0xFFFF_FFFF,
            section: 0xFFFF_FFFF,
        }
    }

    /// Finalized CRC over every byte written so far.
    pub fn total_crc(&self) -> u32 {
        self.total ^ 0xFFFF_FFFF
    }

    /// Finalized CRC over bytes written since the last
    /// [`reset_section`](Self::reset_section).
    pub fn section_crc(&self) -> u32 {
        self.section ^ 0xFFFF_FFFF
    }

    /// Start a fresh section checksum.
    pub fn reset_section(&mut self) {
        self.section = 0xFFFF_FFFF;
    }

    /// Write `bytes` to the inner writer *without* folding them into either
    /// checksum — for writing the checksum values themselves.
    pub fn write_unchecked(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.total = crc32_update(self.total, &buf[..n]);
        self.section = crc32_update(self.section, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader adapter mirroring [`CrcWriter`]: maintains whole-stream and
/// per-section CRC-32 states over everything read, so loaders can verify
/// the checksums the writer appended.
pub struct CrcReader<R> {
    inner: R,
    total: u32,
    section: u32,
}

impl<R: io::Read> CrcReader<R> {
    /// Wrap `inner`, both checksums fresh.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            total: 0xFFFF_FFFF,
            section: 0xFFFF_FFFF,
        }
    }

    /// Finalized CRC over every byte read so far.
    pub fn total_crc(&self) -> u32 {
        self.total ^ 0xFFFF_FFFF
    }

    /// Finalized CRC over bytes read since the last
    /// [`reset_section`](Self::reset_section).
    pub fn section_crc(&self) -> u32 {
        self.section ^ 0xFFFF_FFFF
    }

    /// Start a fresh section checksum.
    pub fn reset_section(&mut self) {
        self.section = 0xFFFF_FFFF;
    }

    /// Read exactly `buf.len()` bytes *without* folding them into either
    /// checksum — for reading stored checksum values.
    pub fn read_exact_unchecked(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)
    }
}

impl<R: io::Read> io::Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.total = crc32_update(self.total, &buf[..n]);
        self.section = crc32_update(self.section, &buf[..n]);
        Ok(n)
    }
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
        // The slicing-by-8 fast path must be bit-identical to the
        // byte-at-a-time definition regardless of how the stream is cut
        // (exercises every remainder length 0..8).
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
    fn crc_writer_sections_and_total() {
        let mut w = CrcWriter::new(Vec::new());
        w.write_all(b"aaaa").expect("write");
        let s1 = w.section_crc();
        w.reset_section();
        w.write_all(b"bbbb").expect("write");
        assert_eq!(s1, crc32(b"aaaa"));
        assert_eq!(w.section_crc(), crc32(b"bbbb"));
        assert_eq!(w.total_crc(), crc32(b"aaaabbbb"));
        assert_eq!(w.into_inner(), b"aaaabbbb".to_vec());
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
