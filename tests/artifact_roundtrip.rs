//! Property tests for the model artifact format: for randomly generated
//! databases, a fitted model survives `to_bytes` → `from_bytes` with
//! *bitwise identical* featurization, and corrupted artifacts always come
//! back as typed errors — never panics, never silent misloads.
//!
//! Seeded case generation with plain assertions (the workspace builds
//! offline, without proptest); failures name the replayable case seed.

use leva::{ArtifactError, Featurization, Leva, LevaConfig, LevaModel};
use leva_relational::{Database, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fitting is the expensive part; keep the case count modest but the
/// corruption sweeps per case dense.
const CASES: u64 = 6;

/// A random two-table database sharing an id column, so the graph always
/// has a join to recover.
fn arb_db(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(12usize..40);
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "cat", "num", "target"]);
    for i in 0..n {
        base.push_row(vec![
            format!("e{i}").into(),
            format!("c{}", rng.gen_range(0u32..4)).into(),
            Value::float(rng.gen_range(-100.0f64..100.0)),
            Value::Int(i64::from(rng.gen_bool(0.5))),
        ])
        .unwrap();
    }
    db.add_table(base).unwrap();
    if rng.gen_bool(0.7) {
        let mut aux = Table::new("aux", vec!["id", "tag", "score"]);
        for i in 0..n {
            for _ in 0..rng.gen_range(1usize..3) {
                aux.push_row(vec![
                    format!("e{i}").into(),
                    format!("t{}", rng.gen_range(0u32..5)).into(),
                    Value::float(rng.gen_range(0.0f64..10.0)),
                ])
                .unwrap();
            }
        }
        db.add_table(aux).unwrap();
    }
    db
}

fn fit(db: &Database, with_target: bool) -> LevaModel {
    let builder = Leva::with_config(LevaConfig::fast()).base_table("base");
    let builder = if with_target {
        builder.target("target")
    } else {
        builder
    };
    builder.fit(db).expect("pipeline runs")
}

fn assert_bitwise(case: u64, a: &leva_linalg::Matrix, b: &leva_linalg::Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "case {case}: {what} row count");
    assert_eq!(a.cols(), b.cols(), "case {case}: {what} col count");
    for r in 0..a.rows() {
        for (x, y) in a.row(r).iter().zip(b.row(r)) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: {what} differs at row {r}"
            );
        }
    }
}

/// Round-trip through the artifact is lossless: the loaded model is
/// observationally identical (bitwise) on every featurization path, and
/// re-serializing it reproduces the exact bytes.
#[test]
fn random_models_round_trip_bitwise() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA27F_0000 + case);
        let db = arb_db(&mut rng);
        let model = fit(&db, rng.gen_bool(0.8));
        let bytes = model.to_bytes();
        let back = LevaModel::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: artifact failed to load: {e}"));

        for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
            assert_bitwise(
                case,
                &model.featurize_base(feat),
                &back.featurize_base(feat),
                "featurize_base",
            );
        }
        // External featurization exercises the restored encoders (training
        // histograms) and the graph's value-node map on unseen input.
        let mut ext = Table::new("ext", vec!["id", "cat", "num"]);
        ext.push_row(vec!["e1".into(), "c0".into(), Value::float(3.5)])
            .unwrap();
        ext.push_row(vec!["unseen".into(), "c9".into(), Value::float(1e12)])
            .unwrap();
        assert_bitwise(
            case,
            &model.featurize_external(&ext, Featurization::RowPlusValue),
            &back.featurize_external(&ext, Featurization::RowPlusValue),
            "featurize_external",
        );
        assert_eq!(
            back.to_bytes(),
            bytes,
            "case {case}: artifact is not a serialization fixed point"
        );
    }
}

/// Discovery-enabled models (artifacts with a non-empty `DISC` chunk) are a
/// serialization fixed point too: the discovered relationships and the
/// injection counters restore exactly, featurization is bitwise identical,
/// and re-serializing reproduces the bytes.
#[test]
fn discovery_models_round_trip_bitwise() {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "machine_id", "target"]);
    let mut machines = Table::new("machines", vec!["mid", "site"]);
    for i in 0..36 {
        base.push_row(vec![
            format!("e{i}").into(),
            Value::Int(100 + (i % 12) as i64),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
    }
    for m in 0..12 {
        machines
            .push_row(vec![
                Value::Int(100 + m as i64),
                ["north", "south"][m % 2].into(),
            ])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(machines).unwrap();
    let mut cfg = LevaConfig::fast();
    cfg.discovery.enabled = true;
    let model = Leva::with_config(cfg)
        .base_table("base")
        .target("target")
        .fit(&db)
        .unwrap();
    assert!(!model.discovered.is_empty());
    assert!(model.discovery_injection.edges_added > 0);

    let bytes = model.to_bytes();
    let back = LevaModel::from_bytes(&bytes).expect("discovery artifact loads");
    assert_eq!(back.discovered, model.discovered);
    assert_eq!(back.discovery_injection, model.discovery_injection);
    assert_eq!(back.config.discovery, model.config.discovery);
    assert_bitwise(
        0,
        &model.featurize_base(Featurization::RowPlusValue),
        &back.featurize_base(Featurization::RowPlusValue),
        "featurize_base (discovery)",
    );
    assert_eq!(
        back.to_bytes(),
        bytes,
        "discovery artifact is not a serialization fixed point"
    );
}

/// Every truncation of a valid artifact is a typed error, not a panic.
#[test]
fn truncations_yield_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0xA27F_1000);
    let model = fit(&arb_db(&mut rng), true);
    let bytes = model.to_bytes();
    // Dense over the header region, sampled beyond it, always including
    // the exact end-of-chunk boundaries.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(211));
    cuts.push(bytes.len().saturating_sub(1));
    for cut in cuts {
        let result = catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes[..cut])));
        let decoded = result.unwrap_or_else(|_| panic!("truncation at {cut} panicked"));
        assert!(decoded.is_err(), "truncation at {cut} decoded");
    }
}

/// Random single-bit flips anywhere in the artifact are always detected
/// (header validation or chunk CRC), and never panic.
#[test]
fn bit_flips_yield_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0xA27F_2000);
    let model = fit(&arb_db(&mut rng), true);
    let mut bytes = model.to_bytes();
    for trial in 0..400 {
        let pos = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u8..8);
        bytes[pos] ^= 1 << bit;
        let result = catch_unwind(AssertUnwindSafe(|| LevaModel::from_bytes(&bytes)));
        let decoded =
            result.unwrap_or_else(|_| panic!("trial {trial}: flip at {pos}:{bit} panicked"));
        assert!(
            decoded.is_err(),
            "trial {trial}: flip at byte {pos} bit {bit} went undetected"
        );
        bytes[pos] ^= 1 << bit;
    }
}

/// Version bumps, bad magic, and oversized declared lengths are rejected
/// with the specific typed error, and allocation stays bounded by the
/// input size (a 40-byte buffer claiming 2^60 elements must fail fast).
#[test]
fn hostile_headers_are_typed_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xA27F_3000);
    let model = fit(&arb_db(&mut rng), false);
    let bytes = model.to_bytes();

    let mut bumped = bytes.clone();
    bumped[4] = 0xFE;
    assert!(matches!(
        LevaModel::from_bytes(&bumped).unwrap_err(),
        ArtifactError::UnsupportedVersion(_)
    ));

    assert!(matches!(
        LevaModel::from_bytes(b"XXXXWHATEVER").unwrap_err(),
        ArtifactError::BadMagic
    ));

    // Inflate the first chunk's declared payload length to u64::MAX.
    let mut inflated = bytes.clone();
    inflated[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        LevaModel::from_bytes(&inflated).unwrap_err(),
        ArtifactError::Truncated
    ));

    // Flip one payload byte far from the headers: must be a checksum or
    // decode error, never Ok.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    match LevaModel::from_bytes(&corrupt).unwrap_err() {
        ArtifactError::ChecksumMismatch { .. } | ArtifactError::Decode { .. } => {}
        other => panic!("expected checksum/decode error, got {other}"),
    }
}

/// Regression for a reviewer PoC: a crafted, CRC-valid artifact whose TOKD
/// chunk declares more base-table rows than the GRPH chunk has row nodes
/// used to load fine and then panic (index out of bounds) on the first
/// `featurize_base`. Cross-chunk validation now rejects it at load with a
/// typed error, and even a model mutated into that state in memory
/// featurizes without panicking.
#[test]
fn crafted_cross_chunk_mismatch_is_rejected_at_load() {
    let mut rng = StdRng::seed_from_u64(0xA27F_4000);
    let mut model = fit(&arb_db(&mut rng), true);
    // Duplicate the last TOKD row many times: all token ids stay in range,
    // every per-chunk invariant holds, only the chunks' mutual agreement
    // breaks.
    let extra = model.tokenized.tables[model.base_table_index]
        .rows
        .last()
        .expect("base table has rows")
        .clone();
    for _ in 0..(model.graph.n_nodes() + 10) {
        model.tokenized.tables[model.base_table_index]
            .rows
            .push(extra.clone());
    }
    let bytes = model.to_bytes();
    let err = LevaModel::from_bytes(&bytes).expect_err("crafted artifact must be rejected");
    assert!(
        matches!(err, ArtifactError::Inconsistent { .. }),
        "expected Inconsistent, got {err}"
    );
    // The deploy paths themselves are panic-free even on the mutated
    // in-memory model (out-of-graph rows featurize to zero vectors).
    let result = catch_unwind(AssertUnwindSafe(|| {
        model.featurize_base(Featurization::RowPlusValue)
    }));
    assert!(result.is_ok(), "featurize_base panicked on mutated model");
}

/// A STOR chunk whose dimensionality contradicts CONF (as when chunks are
/// stitched together from two different models) is rejected at load.
#[test]
fn mismatched_store_dim_is_rejected_at_load() {
    let mut rng = StdRng::seed_from_u64(0xA27F_5000);
    let model = fit(&arb_db(&mut rng), true);
    // Shrink the embedding store via PCA projection without updating the
    // config: STOR now contradicts CONF's embedding dimension.
    let projected = model.with_replacement_store(model.store.pca_project(model.store.dim() / 2));
    let err =
        LevaModel::from_bytes(&projected.to_bytes()).expect_err("dim mismatch must be rejected");
    assert!(
        matches!(err, ArtifactError::Inconsistent { .. }),
        "expected Inconsistent, got {err}"
    );
}

/// The golden-fingerprint database of `tests/determinism.rs`.
fn golden_db() -> Database {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "grp", "target"]);
    let mut aux = Table::new("aux", vec!["id", "feature"]);
    for i in 0..30 {
        base.push_row(vec![
            format!("e{i}").into(),
            ["a", "b"][i % 2].into(),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
        aux.push_row(vec![format!("e{i}").into(), format!("f{}", i % 3).into()])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(aux).unwrap();
    db
}

/// Pins the v3 byte layout: the CRC-32 of the golden-fingerprint fit's
/// artifact, with the wall-clock stage timings (the only nondeterministic
/// field) cleared. Any change to chunk framing, chunk order or a payload
/// encoding changes this value.
#[test]
fn v3_artifact_bytes_are_pinned() {
    const PINNED_CRC: u32 = 0x83a9_e8d4;
    let mut model = Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .threads(1)
        .fit(&golden_db())
        .unwrap();
    model.timings = leva::StageTimings::default();
    let bytes = model.to_bytes();
    assert_eq!(leva_interner::codec::crc32(&bytes), PINNED_CRC);
}
