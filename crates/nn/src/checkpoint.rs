//! Weight checkpointing: save/load a [`ParamStore`] to a simple
//! self-describing binary format (no external serialization crates).
//!
//! Layout: magic `TNN1`, u32 param count, then per parameter:
//! u32 name length, name bytes (UTF-8), u32 rank, u64 dims…, f32 data…
//! All integers little-endian.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use traffic_tensor::Tensor;

use crate::param::ParamStore;

const MAGIC: &[u8; 4] = b"TNN1";

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structure mismatch between file and store.
    Mismatch(String),
    /// The file failed structural validation (bad magic/version, CRC
    /// mismatch, truncation) — it is not a usable checkpoint.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes every parameter of `store` to `path`.
///
/// The write is atomic (staged in a temp sibling, fsynced, renamed —
/// the `TNN2` write path from [`crate::tnn2::atomic_write`]): a crash
/// mid-save leaves the previous file intact instead of a torn `TNN1`.
/// The bytes on disk are exactly the legacy `TNN1` layout, readable by
/// older code.
pub fn save_weights(store: &ParamStore, path: &Path) -> Result<(), CheckpointError> {
    let mut w = Vec::new();
    w.extend_from_slice(MAGIC);
    w.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for p in store.params() {
        let name = p.name().as_bytes();
        w.extend_from_slice(&(name.len() as u32).to_le_bytes());
        w.extend_from_slice(name);
        let value = p.value();
        let shape = value.shape();
        w.extend_from_slice(&(shape.len() as u32).to_le_bytes());
        for &d in shape {
            w.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in value.as_slice() {
            w.extend_from_slice(&v.to_le_bytes());
        }
    }
    crate::tnn2::atomic_write(path, &w)?;
    Ok(())
}

/// Loads weights from `path` into `store`. Every parameter in the store
/// must appear in the file with an identical shape (extra file entries are
/// an error too — checkpoints are exact).
pub fn load_weights(store: &ParamStore, path: &Path) -> Result<(), CheckpointError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Mismatch("bad magic (not a TNN1 checkpoint)".into()));
    }
    let count = read_u32(&mut r)? as usize;
    if count != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "file has {count} params, store has {}",
            store.len()
        )));
    }
    for p in store.params() {
        let name_len = read_u32(&mut r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| CheckpointError::Mismatch("non-UTF8 parameter name".into()))?;
        if name != p.name() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter order mismatch: file {name} vs store {}",
                p.name()
            )));
        }
        let rank = read_u32(&mut r)? as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(read_u64(&mut r)? as usize);
        }
        if shape != p.shape() {
            return Err(CheckpointError::Mismatch(format!(
                "{name}: file shape {shape:?} vs store {:?}",
                p.shape()
            )));
        }
        let numel: usize = shape.iter().product();
        let mut data = vec![0.0f32; numel];
        let mut buf = [0u8; 4];
        for v in &mut data {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        p.set_value(Tensor::from_vec(data, &shape));
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::fault_lock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traffic_tensor::init;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("traffic_ckpt_{name}_{}", std::process::id()))
    }

    fn make_store(seed: u64) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        store.add("layer.weight", init::xavier_uniform(&[4, 3], &mut rng));
        store.add("layer.bias", init::uniform(&[4], -1.0, 1.0, &mut rng));
        store.add("emb", init::normal(&[5, 2], 0.0, 1.0, &mut rng));
        store
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let _g = fault_lock();
        let a = make_store(1);
        let path = tmp("roundtrip");
        save_weights(&a, &path).unwrap();
        let b = make_store(2); // different init
        assert_ne!(a.params()[0].value(), b.params()[0].value());
        load_weights(&b, &path).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value(), pb.value(), "{}", pa.name());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_store_shape() {
        let _g = fault_lock();
        let a = make_store(1);
        let path = tmp("wrong_shape");
        save_weights(&a, &path).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut other = ParamStore::new();
        other.add("layer.weight", init::xavier_uniform(&[4, 3], &mut rng));
        other.add("layer.bias", init::uniform(&[5], -1.0, 1.0, &mut rng)); // wrong dim
        other.add("emb", init::normal(&[5, 2], 0.0, 1.0, &mut rng));
        assert!(matches!(load_weights(&other, &path), Err(CheckpointError::Mismatch(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_param_count() {
        let _g = fault_lock();
        let a = make_store(1);
        let path = tmp("wrong_count");
        save_weights(&a, &path).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut other = ParamStore::new();
        other.add("layer.weight", init::xavier_uniform(&[4, 3], &mut rng));
        assert!(matches!(load_weights(&other, &path), Err(CheckpointError::Mismatch(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let store = make_store(1);
        assert!(load_weights(&store, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
