//! Property tests for the durable container and the binary checkpoint
//! format on top of it: any parameter store survives a save/load round
//! trip bit-exactly, corruption is always reported as invalid data, and a
//! salvage read of a damaged container returns only intact sections.

use amdgcnn_tensor::durable;
use amdgcnn_tensor::io::{load_params, restore_into, save_params};
use amdgcnn_tensor::{Matrix, ParamStore};
use proptest::prelude::*;

/// A strategy for small parameter stores: 1–5 named matrices with random
/// shapes and values (including negatives, zeros, and subnormal-ish
/// magnitudes).
fn arb_store() -> impl Strategy<Value = ParamStore> {
    proptest::collection::vec((1usize..6, 1usize..6, 0u32..u32::MAX), 1..6).prop_map(|shapes| {
        let mut ps = ParamStore::new();
        for (i, (rows, cols, seed)) in shapes.into_iter().enumerate() {
            let m = Matrix::from_fn(rows, cols, |r, c| {
                // Deterministic pseudo-random values across several orders
                // of magnitude, sign included.
                let x = seed
                    .wrapping_mul(2654435761)
                    .wrapping_add((r * 31 + c * 7) as u32);
                (x as f32 / u32::MAX as f32 - 0.5) * 2e3
            });
            ps.register(format!("param.{i}"), m);
        }
        ps
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn save_load_roundtrip_is_bit_exact(ps in arb_store()) {
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");
        prop_assert_eq!(loaded.len(), ps.len());
        for (id, value) in ps.iter() {
            prop_assert_eq!(loaded.name(id), ps.name(id));
            prop_assert_eq!(loaded.get(id).shape(), value.shape());
            // Bit-exact, not approximately-equal: compare raw bits so that
            // -0.0 vs 0.0 or rounding drift would be caught.
            let a: Vec<u32> = value.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = loaded.get(id).data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn any_truncation_is_invalid_data(ps in arb_store(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        let cut = ((buf.len() as f64) * frac) as usize;
        prop_assume!(cut < buf.len());
        let err = load_params(&buf[..cut]).expect_err("truncated must fail");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_magic_is_rejected(ps in arb_store(), byte in 0usize..4, bit in 0u8..8) {
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        buf[byte] ^= 1 << bit;
        let err = load_params(buf.as_slice()).expect_err("bad magic must fail");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn any_single_byte_flip_is_invalid_data(
        ps in arb_store(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        let pos = (((buf.len() - 1) as f64) * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        // Every byte is covered by a header, section or footer CRC, so
        // corruption anywhere — names, shapes, values, checksums — must be
        // detected rather than silently loaded.
        let err = load_params(buf.as_slice()).expect_err("corrupt must fail");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn restore_into_rejects_renamed_params(ps in arb_store()) {
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).expect("save");
        let loaded = load_params(buf.as_slice()).expect("load");

        // Same shapes, different names: must be refused.
        let mut renamed = ParamStore::new();
        for (id, value) in ps.iter() {
            renamed.register(format!("other.{}", id.0), Matrix::zeros(value.rows(), value.cols()));
        }
        prop_assert!(restore_into(&mut renamed, &loaded).is_err());

        // Identical structure: must succeed and copy every value.
        let mut fresh = ParamStore::new();
        for (id, value) in ps.iter() {
            fresh.register(ps.name(id).to_string(), Matrix::zeros(value.rows(), value.cols()));
        }
        restore_into(&mut fresh, &loaded).expect("restore");
        for (id, value) in ps.iter() {
            prop_assert_eq!(fresh.get(id).data(), value.data());
        }
    }
}

/// A strategy for container contents: 0–5 sections of 0–40 arbitrary bytes.
fn arb_sections() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..40), 0..6)
}

/// Check a salvage read of a damaged copy: every section it returns is
/// byte-identical to the one written at that index, and every section it
/// does not return is accounted for as damage.
fn check_salvage(sections: &[Vec<u8>], damaged: &[u8]) {
    // A hard header refusal is a valid outcome for any damage.
    if let Ok(c) = durable::parse(damaged, MAGIC, 1) {
        prop_assert_eq!(c.sections.len(), sections.len());
        let lost = c.sections.iter().filter(|s| s.is_none()).count();
        for (got, want) in c.sections.iter().zip(sections) {
            if let Some(range) = got {
                prop_assert_eq!(&damaged[range.clone()], want.as_slice());
            }
        }
        prop_assert!(
            !c.damage.is_empty(),
            "{} lost section(s), no damage reported",
            lost
        );
    }
}

const MAGIC: &[u8; 4] = b"TEST";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every single-byte flip anywhere in a container — header, lengths,
    /// payloads, section CRCs, footer — fails the strict read, and the
    /// salvage read returns only sections identical to what was written.
    #[test]
    fn container_byte_flips_are_rejected_and_salvage_is_exact(
        sections in arb_sections(),
        bit in 0u8..8,
    ) {
        let buf = durable::encode(MAGIC, 1, &sections);
        let clean = durable::parse(&buf, MAGIC, 1).expect("clean parse");
        prop_assert!(clean.damage.is_empty());
        let ranges = clean.into_intact().expect("intact");
        for (range, want) in ranges.iter().zip(&sections) {
            prop_assert_eq!(&buf[range.clone()], want.as_slice());
        }
        for pos in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 1 << bit;
            let strict = durable::parse(&corrupt, MAGIC, 1).and_then(|c| c.into_intact());
            let err = strict.expect_err("a flipped byte must fail the strict read");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            check_salvage(&sections, &corrupt);
        }
    }

    /// Every truncation fails the strict read; salvage keeps only the
    /// sections that survived whole and reports the rest as damage.
    #[test]
    fn container_truncations_are_rejected_and_salvage_is_exact(sections in arb_sections()) {
        let buf = durable::encode(MAGIC, 1, &sections);
        for cut in 0..buf.len() {
            let strict = durable::parse(&buf[..cut], MAGIC, 1).and_then(|c| c.into_intact());
            let err = strict.expect_err("a truncated container must fail the strict read");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            check_salvage(&sections, &buf[..cut]);
        }
    }

    /// Bytes appended after the footer are damage: the strict read refuses
    /// the file, while a salvage read still has every section intact.
    #[test]
    fn container_appended_bytes_are_rejected(
        sections in arb_sections(),
        tail in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let mut buf = durable::encode(MAGIC, 1, &sections);
        buf.extend_from_slice(&tail);
        let c = durable::parse(&buf, MAGIC, 1).expect("header intact");
        prop_assert_eq!(c.damage.len(), 1);
        prop_assert!(c.sections.iter().all(|s| s.is_some()));
        let err = c.into_intact().expect_err("appended bytes must fail the strict read");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A parameter file in the old `AMDG` v2 layout (no header CRC, inline
    /// records) is refused by version, as `InvalidData`.
    #[test]
    fn old_amdg_v2_header_is_refused(ps in arb_store()) {
        let mut v2 = Vec::new();
        v2.extend_from_slice(b"AMDG");
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&(ps.len() as u32).to_le_bytes());
        for (id, value) in ps.iter() {
            let name = ps.name(id).as_bytes();
            v2.extend_from_slice(&(name.len() as u32).to_le_bytes());
            v2.extend_from_slice(name);
            durable::put_matrix(&mut v2, value);
            v2.extend_from_slice(&0u32.to_le_bytes());
        }
        v2.extend_from_slice(&0u32.to_le_bytes());
        let err = load_params(v2.as_slice()).expect_err("v2 must be refused");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("version 2"), "{}", err);
    }
}
