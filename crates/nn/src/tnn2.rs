//! `TNN2`: the versioned, sectioned, CRC-checked container used by
//! full-state training checkpoints, plus the atomic-write path shared
//! with the legacy `TNN1` weight files.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! magic  "TNN2"            4 bytes
//! version u32              currently 1
//! section count u32
//! per section:
//!   name length u32 | name bytes (UTF-8)
//!   payload length u64
//!   payload CRC32 (IEEE) u32
//!   payload bytes
//! ```
//!
//! Readers verify magic, version, and every section's CRC before
//! returning any payload, so a torn, truncated, or bit-flipped file is
//! rejected as [`CheckpointError::Corrupt`] instead of being decoded
//! into garbage training state. Unknown section names are preserved and
//! ignored by consumers, which is the format's forward-compatibility
//! story: new writers may add sections without breaking old readers.
//!
//! ## Atomic writes
//!
//! [`atomic_write`] stages the bytes in a `.tmp.<pid>` sibling, fsyncs
//! it, renames it over the destination, and best-effort-fsyncs the
//! directory. A crash at any point leaves either the old file or the
//! new file, never a torn hybrid. The `ckpt_io` fault site (see
//! `traffic_obs::faults`) can inject a write failure here for
//! resilience tests.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use traffic_tensor::Tensor;

use crate::checkpoint::CheckpointError;

/// File magic for the sectioned format.
pub const MAGIC: &[u8; 4] = b"TNN2";
/// Current format version.
pub const VERSION: u32 = 1;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven, computed at compile time.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 of `bytes` (the common zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Little-endian payload encoding helpers
// ---------------------------------------------------------------------

/// Appends primitives and tensors to a byte payload.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` (bit pattern, so NaNs survive round trips).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a tensor: rank, dims, raw f32 data.
    pub fn tensor(&mut self, t: &Tensor) {
        self.u32(t.shape().len() as u32);
        for &d in t.shape() {
            self.u64(d as u64);
        }
        for &v in t.as_slice() {
            self.f32(v);
        }
    }

    /// Appends `Some(tensor)` / `None` with a presence flag (lazy
    /// optimizer moments).
    pub fn opt_tensor(&mut self, t: Option<&Tensor>) {
        match t {
            Some(t) => {
                self.u32(1);
                self.tensor(t);
            }
            None => self.u32(0),
        }
    }
}

/// Reads primitives and tensors back out of a payload.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading at the payload's first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CheckpointError::Corrupt("payload truncated".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("non-UTF8 string".into()))
    }

    /// Reads a tensor written by [`PayloadWriter::tensor`].
    pub fn tensor(&mut self) -> Result<Tensor, CheckpointError> {
        let rank = self.u32()? as usize;
        if rank > 16 {
            return Err(CheckpointError::Corrupt(format!("implausible tensor rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(self.u64()? as usize);
        }
        let numel: usize = shape.iter().product();
        if numel.checked_mul(4).is_none_or(|bytes| self.pos + bytes > self.buf.len()) {
            return Err(CheckpointError::Corrupt(format!(
                "tensor data truncated (shape {shape:?})"
            )));
        }
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(self.f32()?);
        }
        Ok(Tensor::from_vec(data, &shape))
    }

    /// Reads an optional tensor written by [`PayloadWriter::opt_tensor`].
    pub fn opt_tensor(&mut self) -> Result<Option<Tensor>, CheckpointError> {
        match self.u32()? {
            0 => Ok(None),
            1 => Ok(Some(self.tensor()?)),
            f => Err(CheckpointError::Corrupt(format!("bad presence flag {f}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Container encode / decode
// ---------------------------------------------------------------------

/// Serialises named sections into one `TNN2` byte blob.
pub fn encode(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in sections {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Parses a `TNN2` blob, verifying magic, version, and every CRC.
pub fn decode(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>, CheckpointError> {
    let mut r = PayloadReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic (not a TNN2 checkpoint)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported TNN2 version {version} (reader supports {VERSION})"
        )));
    }
    let count = r.u32()? as usize;
    let mut sections = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = r.str()?;
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        let payload = r.take(len)?;
        if crc32(payload) != crc {
            return Err(CheckpointError::Corrupt(format!("CRC mismatch in section {name:?}")));
        }
        sections.push((name, payload.to_vec()));
    }
    if !r.is_empty() {
        return Err(CheckpointError::Corrupt("trailing bytes after last section".into()));
    }
    Ok(sections)
}

/// Writes a `TNN2` file atomically.
pub fn write_file(path: &Path, sections: &[(&str, Vec<u8>)]) -> Result<(), CheckpointError> {
    atomic_write(path, &encode(sections))?;
    Ok(())
}

/// Reads and verifies a `TNN2` file.
pub fn read_file(path: &Path) -> Result<Vec<(String, Vec<u8>)>, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Crash-safe file replacement: write a temp sibling, fsync, rename over
/// `path`, fsync the directory (best effort). The `ckpt_io` fault site
/// can inject a failure before any byte is staged.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if traffic_obs::faults::fire("ckpt_io").is_some() {
        return Err(std::io::Error::other("injected checkpoint I/O fault (ckpt_io)"));
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => {
            std::fs::create_dir_all(d)?;
            Some(d)
        }
        _ => None,
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
        return result;
    }
    if let Some(d) = dir {
        // Directory fsync makes the rename itself durable; not all
        // platforms allow opening a directory for write, so best effort.
        if let Ok(df) = File::open(d) {
            df.sync_all().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::fault_lock;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("traffic_tnn2_{name}_{}", std::process::id()))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_roundtrip() {
        let _g = fault_lock();
        let mut p = PayloadWriter::new();
        p.u64(42);
        p.str("hello");
        p.tensor(&Tensor::from_vec(vec![1.0, f32::NAN, -3.5], &[3]));
        p.opt_tensor(None);
        p.opt_tensor(Some(&Tensor::zeros(&[2, 2])));
        let sections = vec![("meta", p.into_bytes()), ("empty", Vec::new())];
        let path = tmp("roundtrip");
        write_file(&path, &sections).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "meta");
        let mut r = PayloadReader::new(&back[0].1);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "hello");
        let t = r.tensor().unwrap();
        assert_eq!(t.shape(), &[3]);
        assert!(t.as_slice()[1].is_nan()); // NaN bit pattern survives
        assert_eq!(r.opt_tensor().unwrap(), None);
        assert_eq!(r.opt_tensor().unwrap().unwrap().shape(), &[2, 2]);
        assert!(r.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let sections = vec![("w", vec![1u8, 2, 3, 4, 5, 6, 7, 8])];
        let mut bytes = encode(&sections);
        // Flip one payload byte (the payload is at the tail).
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        match decode(&bytes) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("CRC"), "{m}"),
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let sections = vec![("w", vec![0u8; 64])];
        let bytes = encode(&sections);
        for cut in [3, 9, 13, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(CheckpointError::Corrupt(_))),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&[("w", vec![1u8])]);
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn atomic_write_replaces_not_tears() {
        let _g = fault_lock();
        let path = tmp("atomic");
        std::fs::write(&path, b"old contents").unwrap();
        atomic_write(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        // No temp litter left behind.
        let tmp_sibling = path.with_extension(format!("tmp.{}", std::process::id()));
        assert!(!tmp_sibling.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_io_fault_leaves_old_file_intact() {
        let _g = fault_lock();
        let path = tmp("fault");
        std::fs::write(&path, b"good checkpoint").unwrap();
        traffic_obs::faults::reset();
        traffic_obs::faults::arm("ckpt_io", 1, traffic_obs::faults::FaultMode::Soft);
        let err = atomic_write(&path, b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert_eq!(std::fs::read(&path).unwrap(), b"good checkpoint");
        traffic_obs::faults::reset();
        // Subsequent writes succeed (one-shot fault).
        atomic_write(&path, b"after").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"after");
        std::fs::remove_file(&path).ok();
    }
}
