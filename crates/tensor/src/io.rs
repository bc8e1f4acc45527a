//! Parameter checkpointing: save/load a [`ParamStore`] as an `AMDG`
//! [`durable`] container (no external serialization
//! dependency — little-endian, versioned, name-checked on load).
//!
//! Format (version 3): one container section per parameter, in
//! registration order:
//! ```text
//! section: u32 name len | name bytes | u32 rows | u32 cols | f32 data...
//! ```
//!
//! The container checksums every section, so a torn write or a flipped bit
//! anywhere in the file is detected at load time instead of silently
//! corrupting a model. The model artifact and the training-state snapshot
//! embed parameters as the same sections, through [`param_sections`] and
//! [`params_from_sections`].

use crate::durable::{self, crc32, Cursor, DiskFault};
use crate::param::ParamStore;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

const MAGIC: &[u8; 4] = b"AMDG";
const VERSION: u32 = 3;

/// Ceiling on a declared parameter-name length; anything above is a
/// corrupt or hostile file and is rejected before memory is committed.
const MAX_NAME_LEN: usize = 1 << 16;

/// One container section per parameter: `u32 name len | name | matrix`.
pub fn param_sections(ps: &ParamStore) -> Vec<Vec<u8>> {
    ps.iter()
        .map(|(id, value)| {
            let name = ps.name(id).as_bytes();
            let mut section = Vec::with_capacity(16 + name.len() + value.data().len() * 4);
            section.extend_from_slice(&(name.len() as u32).to_le_bytes());
            section.extend_from_slice(name);
            durable::put_matrix(&mut section, value);
            section
        })
        .collect()
}

/// Rebuild a [`ParamStore`] from sections written by [`param_sections`]:
/// `sections` are ranges into `bytes`, one parameter each. Ids are
/// assigned in section order, which matches the registration order of an
/// identically constructed model.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] when a section does not hold exactly one
/// well-formed parameter.
pub fn params_from_sections(bytes: &[u8], sections: &[Range<usize>]) -> io::Result<ParamStore> {
    let mut ps = ParamStore::new();
    for range in sections {
        let mut r = Cursor::new(&bytes[range.clone()]);
        let name_len = r.count(MAX_NAME_LEN, "parameter name length")?;
        let name = std::str::from_utf8(r.take(name_len, "parameter name")?)
            .map_err(|_| durable::invalid("non-utf8 parameter name"))?
            .to_string();
        let value = r.matrix(&name)?;
        r.finish(&name)?;
        ps.register(name, value);
    }
    Ok(ps)
}

fn encode_params(ps: &ParamStore) -> Vec<u8> {
    durable::encode(MAGIC, VERSION, &param_sections(ps))
}

/// Serialize every parameter (ids are positional, names included for
/// verification) as a checksummed `AMDG` container.
pub fn save_params<W: Write>(ps: &ParamStore, mut w: W) -> io::Result<()> {
    w.write_all(&encode_params(ps))
}

/// Serialize a [`ParamStore`] to `path` crash-safely (write-to-temp +
/// fsync + atomic rename). `fault` is the deterministic durability fault
/// to inject, for testing recovery paths; pass `None` in production.
pub fn save_params_file(path: &Path, ps: &ParamStore, fault: Option<DiskFault>) -> io::Result<()> {
    durable::write_atomic(path, &encode_params(ps), fault)
}

/// Load a [`ParamStore`] from `path`, verifying checksums.
pub fn load_params_file(path: &Path) -> io::Result<ParamStore> {
    load_params(&std::fs::read(path)?)
}

/// Deserialize an `AMDG` container into a fresh [`ParamStore`].
///
/// Every header field is treated as untrusted: counts and shapes are
/// capped and checked against the bytes actually present, and every
/// section checksum and the footer are verified. Any damage — a flipped
/// byte, a truncation, bytes appended after the footer, an older format
/// version — fails with [`io::ErrorKind::InvalidData`].
pub fn load_params(bytes: &[u8]) -> io::Result<ParamStore> {
    let sections = durable::parse(bytes, MAGIC, VERSION)?.into_intact()?;
    params_from_sections(bytes, &sections)
}

/// Copy parameter values from `loaded` into `target`, verifying that
/// names and shapes line up position-by-position (i.e. the two stores were
/// built by the same model constructor).
pub fn restore_into(target: &mut ParamStore, loaded: &ParamStore) -> io::Result<()> {
    if target.len() != loaded.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "parameter count mismatch: {} vs {}",
                target.len(),
                loaded.len()
            ),
        ));
    }
    for (id, value) in loaded.iter() {
        if target.name(id) != loaded.name(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "parameter {} name mismatch: {} vs {}",
                    id.0,
                    target.name(id),
                    loaded.name(id)
                ),
            ));
        }
        if target.get(id).shape() != value.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("parameter {} shape mismatch", loaded.name(id)),
            ));
        }
        target.set(id, (**value).clone());
    }
    Ok(())
}

/// CRC-32 of a serialized store — the cheap way for callers to compare two
/// checkpoints for bit-identity.
pub fn params_digest(ps: &ParamStore) -> u32 {
    crc32(&encode_params(ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn sample_store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.register(
            "layer.weight",
            Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5),
        );
        ps.register(
            "layer.bias",
            Matrix::from_vec(1, 4, vec![-1.0, 0.0, 1.0, 2.5]),
        );
        ps
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ps = sample_store();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");
        assert_eq!(loaded.len(), ps.len());
        for (id, value) in ps.iter() {
            assert_eq!(loaded.name(id), ps.name(id));
            assert_eq!(**loaded.get(id), **value);
        }
    }

    #[test]
    fn restore_into_matching_store() {
        let trained = sample_store();
        let mut buf = Vec::new();
        save_params(&trained, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");

        // Fresh store with identical structure but different values.
        let mut fresh = ParamStore::new();
        fresh.register("layer.weight", Matrix::zeros(3, 4));
        fresh.register("layer.bias", Matrix::zeros(1, 4));
        restore_into(&mut fresh, &loaded).expect("restore");
        assert_eq!(
            **fresh.get(crate::param::ParamId(0)),
            **trained.get(crate::param::ParamId(0))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_params(&b"NOPE"[..]).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut buf = Vec::new();
        save_params(&sample_store(), &mut buf).expect("save");
        buf[0] = b'X';
        let err = load_params(&buf).expect_err("must fail");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_stream_rejected_as_invalid_data() {
        let ps = sample_store();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        // Truncate at every prefix length: the loader must always report
        // corrupt data, never leak a bare UnexpectedEof.
        for cut in 0..buf.len() {
            let err = load_params(&buf[..cut]).expect_err("truncated must fail");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let ps = sample_store();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        for pos in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x10;
            let err = load_params(corrupt.as_slice())
                .expect_err("a flipped byte must never load cleanly");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {pos}");
        }
    }

    #[test]
    fn lying_count_header_rejected_without_huge_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd section count
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = load_params(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("section count"), "{err}");
    }

    #[test]
    fn lying_shape_header_rejected() {
        // One intact section whose matrix claims a 65536x65536 tensor but
        // holds no data: the size cap must refuse it before any allocation.
        let section = |rows: u32, cols: u32| {
            let mut b = Vec::new();
            b.extend_from_slice(&1u32.to_le_bytes());
            b.push(b'w');
            b.extend_from_slice(&rows.to_le_bytes());
            b.extend_from_slice(&cols.to_le_bytes());
            b
        };
        let buf = durable::encode(MAGIC, VERSION, &[section(65536, 65536)]);
        let err = load_params(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A merely-large claim below the cap is checked against the bytes
        // present instead of allocating the full claimed size up front.
        let buf = durable::encode(MAGIC, VERSION, &[section(4096, 4096)]);
        let err = load_params(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let trained = sample_store();
        let mut buf = Vec::new();
        save_params(&trained, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");
        let mut wrong = ParamStore::new();
        wrong.register("layer.weight", Matrix::zeros(3, 4));
        wrong.register("layer.bias", Matrix::zeros(1, 5)); // wrong width
        assert!(restore_into(&mut wrong, &loaded).is_err());
    }

    #[test]
    fn restore_rejects_name_mismatch() {
        let trained = sample_store();
        let mut buf = Vec::new();
        save_params(&trained, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");
        let mut wrong = ParamStore::new();
        wrong.register("other.weight", Matrix::zeros(3, 4));
        wrong.register("layer.bias", Matrix::zeros(1, 4));
        assert!(restore_into(&mut wrong, &loaded).is_err());
    }

    #[test]
    fn digest_distinguishes_stores() {
        let a = sample_store();
        let mut b = sample_store();
        assert_eq!(params_digest(&a), params_digest(&b));
        b.update(crate::param::ParamId(0), |m| m.set(0, 0, 99.0));
        assert_ne!(params_digest(&a), params_digest(&b));
    }

    #[test]
    fn file_roundtrip_is_atomic_and_checksummed() {
        let dir = std::env::temp_dir().join(format!("amdgcnn-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("params.ckpt");
        let ps = sample_store();
        save_params_file(&path, &ps, None).expect("save");
        let loaded = load_params_file(&path).expect("load");
        assert_eq!(params_digest(&loaded), params_digest(&ps));

        // A torn write is detected at load, not silently accepted.
        save_params_file(&path, &ps, Some(DiskFault::TornWrite)).expect("write");
        let err = load_params_file(&path).expect_err("torn file must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
