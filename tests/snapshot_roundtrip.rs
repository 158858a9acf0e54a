//! Snapshot persistence: round-trip bit-parity against a freshly built
//! corpus, zero-copy (mmap) vs owned load parity, and robustness of the
//! decoder against malformed files — truncation, bad magic, any version
//! but the current one, corrupted payloads, bad padding, misaligned
//! arenas, and one section's payload fed to another section's decoder
//! must all surface as typed [`SnapshotError`]s, never panics or
//! unaligned casts.

use de_health::core::index::AttributeIndex;
use de_health::core::refined::{ClassifierKind, RefinedContext};
use de_health::corpus::snapshot::{
    ParseOptions, SnapshotError, SnapshotReader, ALIGN, MAGIC, VERSION,
};
use de_health::corpus::split::{closed_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig};
use de_health::mapped::ByteSource;
use de_health::service::{LoadMode, PreparedCorpus};

fn built_corpus(classifier: ClassifierKind) -> PreparedCorpus {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
    PreparedCorpus::build(split.auxiliary, classifier)
}

#[test]
fn roundtrip_is_bit_identical_to_fresh_build() {
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let fresh = built_corpus(classifier);
        let bytes = fresh.to_snapshot_bytes();
        let loaded = PreparedCorpus::from_snapshot_bytes(&bytes).unwrap();

        // The loaded corpus re-serializes to the identical byte stream:
        // forum, per-post features, attribute index and refined context
        // all round-trip bit for bit (floats are stored as raw IEEE-754
        // bits).
        assert_eq!(loaded.to_snapshot_bytes(), bytes, "{classifier:?}");

        // And the derived state matches the freshly built corpus
        // structurally.
        assert_eq!(loaded.n_users(), fresh.n_users());
        assert_eq!(loaded.n_posts(), fresh.n_posts());
        assert_eq!(loaded.index().n_postings(), fresh.index().n_postings());
        assert_eq!(loaded.context().is_sparse(), fresh.context().is_sparse());
        assert_eq!(loaded.uda().present_users(), fresh.uda().present_users());
    }
}

#[test]
fn file_roundtrip_via_save_and_load() {
    let fresh = built_corpus(ClassifierKind::default());
    let path = std::env::temp_dir().join("dehealth-snapshot-roundtrip-test.snap");
    fresh.save(&path).unwrap();
    let (loaded, seconds) = PreparedCorpus::load_timed(&path).unwrap();
    assert!(seconds >= 0.0);
    assert_eq!(loaded.to_snapshot_bytes(), fresh.to_snapshot_bytes());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_files_return_typed_errors_at_every_length() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Every proper prefix must fail with a *typed* error — mostly
    // Truncated, with ChecksumMismatch for prefixes that cut inside a
    // trailing checksum's section, and never a panic. Sampling every
    // offset would be slow; probe a spread plus all boundaries.
    let probes: Vec<usize> =
        (0..bytes.len()).step_by(97).chain([0, 1, 7, 8, 15, 16, 27, bytes.len() - 1]).collect();
    for n in probes {
        match PreparedCorpus::from_snapshot_bytes(&bytes[..n]) {
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::MissingSection(_)
                | SnapshotError::BadMagic,
            ) => {}
            other => panic!("prefix of {n} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    bytes[..MAGIC.len()].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(PreparedCorpus::from_snapshot_bytes(&bytes), Err(SnapshotError::BadMagic)));
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Version 1 (the retired unaligned layout), version 3 (the retired
    // quantized-section layout) and a future version are all refused,
    // by the owned and the mapped load paths alike.
    for version in [1, 3, VERSION + 41] {
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            PreparedCorpus::from_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(v)) if v == version
        ));
        let backing = ByteSource::from_vec(bytes.clone());
        assert!(matches!(
            PreparedCorpus::from_shared_bytes(&backing),
            Err(SnapshotError::UnsupportedVersion(v)) if v == version
        ));
    }
}

#[test]
fn corrupted_payload_fails_its_checksum() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Flip one byte at a spread of payload offsets; every corruption must
    // surface as a checksum mismatch (the header itself is covered by the
    // magic/version/truncation tests above).
    for at in (20..bytes.len()).step_by((bytes.len() / 23).max(1)) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x5a;
        match PreparedCorpus::from_snapshot_bytes(&corrupted) {
            Err(
                SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Truncated { .. }
                | SnapshotError::Malformed { .. }
                | SnapshotError::MissingSection(_),
            ) => {}
            Ok(_) => panic!("corruption at byte {at} went undetected"),
            other => panic!("corruption at byte {at}: unexpected {other:?}"),
        }
    }
}

#[test]
fn io_errors_are_propagated() {
    let missing = std::env::temp_dir().join("dehealth-no-such-snapshot.snap");
    assert!(matches!(PreparedCorpus::load(&missing), Err(SnapshotError::Io(_))));
    assert!(matches!(
        PreparedCorpus::load_with(&missing, LoadMode::Mapped),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn current_snapshots_are_v2_with_aligned_sections() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    assert_eq!(VERSION, 2);
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), VERSION);
    // The in-header alignment guarantee.
    assert_eq!(u16::from_le_bytes([bytes[10], bytes[11]]) as usize, ALIGN);
    assert!(SnapshotReader::parse(&bytes).is_ok());
}

#[test]
fn swapped_section_payloads_yield_typed_errors() {
    // Each strict decoder must reject the other section's payload with a
    // typed error — from the decode itself or from `expect_end` — never
    // a panic or a misinterpretation.
    use de_health::service::corpus::{SECTION_CONTEXT, SECTION_INDEX};
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let bytes = built_corpus(classifier).to_snapshot_bytes();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let typed = |err: SnapshotError| {
            matches!(
                err,
                SnapshotError::Malformed { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::Misaligned { .. }
            )
        };
        let mut s = reader.section(SECTION_CONTEXT).unwrap();
        match AttributeIndex::decode(&mut s, None).and_then(|_| s.expect_end()) {
            Err(e) => assert!(typed(e), "{classifier:?}: context payload as an index"),
            Ok(()) => panic!("{classifier:?}: context payload decoded as an index"),
        }
        let mut s = reader.section(SECTION_INDEX).unwrap();
        match RefinedContext::decode(&mut s, None).and_then(|_| s.expect_end()) {
            Err(e) => assert!(typed(e), "{classifier:?}: index payload as a context"),
            Ok(()) => panic!("{classifier:?}: index payload decoded as a context"),
        }
    }
}

#[test]
fn mapped_and_owned_loads_restore_identical_corpora() {
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let fresh = built_corpus(classifier);
        let path = std::env::temp_dir().join(format!(
            "dehealth-snapshot-mapped-parity-{}.snap",
            if fresh.context().is_sparse() { "sparse" } else { "dense" }
        ));
        fresh.save(&path).unwrap();
        let owned = PreparedCorpus::load_with(&path, LoadMode::Owned).unwrap();
        let mapped = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
        assert!(mapped.is_mapped() && !owned.is_mapped(), "{classifier:?}");
        assert_eq!(mapped.to_snapshot_bytes(), owned.to_snapshot_bytes(), "{classifier:?}");
        assert_eq!(mapped.to_snapshot_bytes(), fresh.to_snapshot_bytes(), "{classifier:?}");
        // The whole index/context footprint stays in the file mapping.
        let stats = mapped.memory_stats();
        assert_eq!(stats.resident_arena_bytes, 0, "{classifier:?}");
        assert!(stats.borrowed_arena_bytes > 0, "{classifier:?}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn misaligned_backing_yields_a_typed_error_not_an_unaligned_cast() {
    // Shift a valid snapshot by 4 bytes inside an 8-aligned buffer:
    // every u64/f64 arena offset is now misaligned in memory. The strict
    // zero-copy decoders must answer with `SnapshotError::Misaligned`.
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    let mut shifted = vec![0u8; 4];
    shifted.extend_from_slice(&bytes);
    let backing = ByteSource::from_vec(shifted);
    let snapshot = &backing.bytes()[4..];
    let reader = SnapshotReader::parse(snapshot).unwrap();
    let mut s = reader.section(de_health::service::corpus::SECTION_INDEX).unwrap();
    match AttributeIndex::decode(&mut s, Some(&backing)) {
        Err(SnapshotError::Misaligned { .. }) => {}
        other => panic!("misaligned index arena must be refused, got {other:?}"),
    }
    let mut s = reader.section(de_health::service::corpus::SECTION_CONTEXT).unwrap();
    match RefinedContext::decode(&mut s, Some(&backing)) {
        Err(SnapshotError::Misaligned { .. }) => {}
        other => panic!("misaligned context arena must be refused, got {other:?}"),
    }
}

#[test]
fn nonzero_v2_padding_is_rejected() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Corrupt the first section header's padding (fixed offset 20..24).
    let mut bad = bytes.clone();
    bad[21] = 0x5a;
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&bad),
        Err(SnapshotError::Malformed { context: "nonzero section header padding" })
    ));
    // Walk the section table to find a section with payload padding and
    // corrupt the first pad byte.
    let mut at = 16usize;
    let mut patched = None;
    while at + 16 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let payload_end = at + 16 + len;
        let pad = len.wrapping_neg() % ALIGN;
        if pad > 0 {
            patched = Some(payload_end);
            break;
        }
        at = payload_end + pad + 8;
    }
    let payload_end = patched.expect("at least one section has payload padding");
    let mut bad = bytes.clone();
    bad[payload_end] = 0xff;
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&bad),
        Err(SnapshotError::Malformed { context: "nonzero section padding" })
    ));
}

#[test]
fn truncated_aligned_tails_are_typed_errors() {
    // Cut a snapshot inside the final checksum, inside the final padding,
    // and on the padding boundary — all must be `Truncated`, and the
    // zero-copy (trusting) parse must agree with the verified one.
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    for cut in [bytes.len() - 1, bytes.len() - 7, bytes.len() - 9, bytes.len() - 16] {
        let prefix = &bytes[..cut];
        assert!(matches!(
            PreparedCorpus::from_snapshot_bytes(prefix),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            SnapshotReader::parse_with(prefix, &ParseOptions::trusting()),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}

#[test]
fn error_display_is_informative() {
    let text = format!("{}", SnapshotError::BadMagic);
    assert!(text.contains("magic"));
    let text = format!("{}", SnapshotError::UnsupportedVersion(9));
    assert!(text.contains('9'));
    let text = format!("{}", SnapshotError::Truncated { context: "section payload" });
    assert!(text.contains("section payload"));
}
