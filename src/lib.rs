//! Umbrella package of the AM-DGCNN reproduction. It holds no code: it
//! exists so the workspace root can carry the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`). The
//! library lives in the `crates/` members.
