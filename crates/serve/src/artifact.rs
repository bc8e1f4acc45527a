//! Versioned model artifacts: one file bundling everything needed to stand
//! a trained model back up — the [`ModelConfig`] (including the
//! [`GnnKind`](am_dgcnn::GnnKind)), the feature-construction settings, the
//! dataset identity, and the parameter checkpoint.
//!
//! Format (`AMDM` version 3): a [`durable`]
//! container whose first section is the metadata JSON and whose remaining
//! sections are the parameters, one each, in the `AMDG` section layout
//! ([`param_sections`]):
//!
//! ```text
//! section 0:    meta JSON
//! section 1..n: u32 name len | name | u32 rows | u32 cols | f32 data...
//! ```
//!
//! The JSON keeps the metadata debuggable; the parameters stay binary so
//! checkpoints round-trip bit-exactly. The container checksums every
//! section, so any flipped, missing or appended byte in an artifact is
//! detected at load. [`save_model_file`] writes via temp + fsync + atomic
//! rename, so an artifact path on disk never holds a half-written file.

use am_dgcnn::{DgcnnModel, FeatureConfig, ModelConfig};
use amdgcnn_data::Dataset;
use amdgcnn_tensor::durable::{self, invalid, write_atomic, DiskFault};
use amdgcnn_tensor::io::{param_sections, params_from_sections, restore_into};
use amdgcnn_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"AMDM";
const VERSION: u32 = 3;

/// Cap on the metadata JSON length; a real header is a few hundred
/// bytes, so anything above this is a corrupt file, not a big model.
const MAX_META_LEN: usize = 1 << 20;

/// Everything about a trained model except the parameter values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArtifactMeta {
    /// Name of the dataset the model was trained on; engines refuse to
    /// serve a different graph.
    pub dataset: String,
    /// Full model architecture (embeds the `GnnKind`).
    pub model: ModelConfig,
    /// Feature-construction settings used at training time.
    pub features: FeatureConfig,
    /// Epochs the checkpoint had completed, for provenance.
    pub epochs_trained: usize,
}

impl ArtifactMeta {
    /// Describe a trained model: its config plus the dataset/features it
    /// was trained against. Never fails; the `Result` is kept for existing
    /// callers.
    pub fn describe(
        ds: &Dataset,
        model_cfg: &ModelConfig,
        features: &FeatureConfig,
        epochs_trained: usize,
    ) -> io::Result<Self> {
        Ok(Self {
            dataset: ds.name.to_string(),
            model: model_cfg.clone(),
            features: features.clone(),
            epochs_trained,
        })
    }
}

fn encode_model(meta: &ArtifactMeta, ps: &ParamStore) -> io::Result<Vec<u8>> {
    let meta_json = serde_json::to_vec(meta)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut sections = vec![meta_json];
    sections.extend(param_sections(ps));
    Ok(durable::encode(MAGIC, VERSION, &sections))
}

/// Write a complete model artifact: metadata and parameters as one
/// checksummed container.
pub fn save_model<W: Write>(meta: &ArtifactMeta, ps: &ParamStore, mut w: W) -> io::Result<()> {
    w.write_all(&encode_model(meta, ps)?)
}

/// Read back an artifact written by [`save_model`].
///
/// The whole artifact is read, then verified: bad magic, other versions,
/// any section or footer checksum mismatch, truncation, trailing bytes,
/// oversized or malformed metadata all fail with
/// [`io::ErrorKind::InvalidData`].
pub fn load_model<R: Read>(mut r: R) -> io::Result<(ArtifactMeta, ParamStore)> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let sections = durable::parse(&bytes, MAGIC, VERSION)?.into_intact()?;
    let (meta, params) = sections
        .split_first()
        .ok_or_else(|| invalid("artifact has no metadata section"))?;
    if meta.len() > MAX_META_LEN {
        return Err(invalid(format!(
            "implausible metadata length {}",
            meta.len()
        )));
    }
    let meta: ArtifactMeta = serde_json::from_slice(&bytes[meta.clone()])
        .map_err(|e| invalid(format!("bad artifact metadata: {e}")))?;
    Ok((meta, params_from_sections(&bytes, params)?))
}

/// Durably write an artifact to `path`: serialize, write to a temp file,
/// fsync, and atomically rename into place, so the path never holds a
/// half-written artifact even across a crash.
///
/// `fault` deterministically injects a durability failure for testing;
/// pass `None` in production.
pub fn save_model_file(
    path: &Path,
    meta: &ArtifactMeta,
    ps: &ParamStore,
    fault: Option<DiskFault>,
) -> io::Result<()> {
    write_atomic(path, &encode_model(meta, ps)?, fault)
}

/// Load an artifact from `path` (counterpart of [`save_model_file`]).
pub fn load_model_file(path: &Path) -> io::Result<(ArtifactMeta, ParamStore)> {
    load_model(std::fs::File::open(path)?)
}

/// Reconstruct a runnable model from a loaded artifact: build the
/// architecture from `meta.model`, then overwrite every freshly initialized
/// parameter with the checkpoint values (verifying names and shapes
/// position-by-position).
pub fn instantiate(
    meta: &ArtifactMeta,
    loaded: &ParamStore,
) -> io::Result<(DgcnnModel, ParamStore)> {
    let mut ps = ParamStore::new();
    // The RNG only feeds the initial values, all of which restore_into
    // overwrites; any seed yields the same final parameters.
    let mut rng = StdRng::seed_from_u64(0);
    let model = DgcnnModel::new(meta.model.clone(), &mut ps, &mut rng);
    restore_into(&mut ps, loaded)?;
    Ok((model, ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_dgcnn::GnnKind;
    use amdgcnn_tensor::Matrix;

    fn sample_meta() -> ArtifactMeta {
        ArtifactMeta {
            dataset: "wn18-like".to_string(),
            model: ModelConfig::dgcnn_defaults(GnnKind::am_dgcnn(), 16, 18, 18),
            features: FeatureConfig::for_graph(3),
            epochs_trained: 7,
        }
    }

    fn sample_store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.register("w", Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.25));
        ps.register("b", Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        ps
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let meta = sample_meta();
        let ps = sample_store();
        let mut buf = Vec::new();
        save_model(&meta, &ps, &mut buf).expect("save");
        let (meta2, ps2) = load_model(buf.as_slice()).expect("load");
        assert_eq!(meta, meta2);
        for (id, value) in ps.iter() {
            assert_eq!(ps2.name(id), ps.name(id));
            assert_eq!(value.data(), ps2.get(id).data());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save_model(&sample_meta(), &sample_store(), &mut buf).expect("save");
        buf[0] = b'X';
        let err = load_model(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        save_model(&sample_meta(), &sample_store(), &mut buf).expect("save");
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = load_model(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_invalid_data() {
        let mut buf = Vec::new();
        save_model(&sample_meta(), &sample_store(), &mut buf).expect("save");
        for cut in [0, 3, 6, 10, buf.len() / 2, buf.len() - 1] {
            let err = load_model(&buf[..cut]).expect_err("truncated must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut buf = Vec::new();
        save_model(&sample_meta(), &sample_store(), &mut buf).expect("save");
        for pos in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x08;
            assert!(
                load_model(corrupt.as_slice()).is_err(),
                "flip at byte {pos} must be rejected"
            );
        }
    }

    #[test]
    fn appended_bytes_are_rejected() {
        let mut buf = Vec::new();
        save_model(&sample_meta(), &sample_store(), &mut buf).expect("save");
        buf.extend_from_slice(b"junk");
        let err = load_model(buf.as_slice()).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("after the AMDM footer"), "{err}");
    }

    #[test]
    fn file_save_is_atomic_and_loads_back() {
        let path =
            std::env::temp_dir().join(format!("amdgcnn-artifact-{}.amdm", std::process::id()));
        let meta = sample_meta();
        let ps = sample_store();
        save_model_file(&path, &meta, &ps, None).expect("save file");
        let (meta2, ps2) = load_model_file(&path).expect("load file");
        assert_eq!(meta, meta2);
        assert_eq!(
            amdgcnn_tensor::io::params_digest(&ps),
            amdgcnn_tensor::io::params_digest(&ps2)
        );
        // No stale temp file remains next to the artifact.
        let tmp = amdgcnn_tensor::durable::tmp_path(&path);
        assert!(!tmp.exists(), "temp file must be renamed away");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn features_serialize_as_the_two_config_fields() {
        let json = serde_json::to_string(&sample_meta()).expect("serialize");
        assert!(
            json.contains(r#""features":{"num_node_types":3,"max_drnl":12},"#),
            "{json}"
        );
    }

    #[test]
    fn metadata_of_the_separate_feature_struct_layout_still_reads() {
        // Metadata section of an AMDM file written while the artifact kept
        // its own copy of the feature fields: same names, same order.
        let old = concat!(
            r#"{"dataset":"wn18-like","model":{"gnn":{"Gat":{"edge_attrs":true,"heads":1}},"#,
            r#""node_feat_dim":14,"edge_attr_dim":18,"hidden_dim":32,"num_layers":3,"#,
            r#""sort_k":30,"conv1_channels":16,"conv2_channels":32,"conv2_kernel":5,"#,
            r#""dense_dim":128,"dropout":0.5,"num_classes":18,"num_relations":18},"#,
            r#""features":{"num_node_types":1,"max_drnl":12},"epochs_trained":3}"#
        );
        let meta: ArtifactMeta = serde_json::from_str(old).expect("old metadata must load");
        assert_eq!(meta.features, FeatureConfig::for_graph(1));
        assert_eq!(meta.epochs_trained, 3);
        let again = serde_json::to_string(&meta).expect("serialize");
        assert_eq!(again, old, "re-saving must keep the metadata bytes");
    }
}
