//! Persistence round-trip properties for the on-disk index format
//! (`crates/core/src/persist.rs`).
//!
//! The format must be lossless over *wire-shaped* indexes — ragged
//! per-list entry counts and entry lengths, empty lists, empty entries —
//! not just the uniform padded lists the scheme happens to produce. And a
//! loader fed hostile bytes (wrong magic, absurd length claims, files cut
//! off mid-entry) must fail with the matching [`PersistError`], never
//! panic or mis-load — both the materializing `RsseIndex::load` and the
//! on-disk open, which validates a generational store's base generation
//! directory against its file.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse_core::persist::{PersistError, MAGIC_V2};
use rsse_core::{Label, Rsse, RsseIndex, RsseParams};
use rsse_ir::{Document, FileId};
use rsse_opse::OpseParams;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The base generation file of a freshly saved generational store.
const BASE_GENERATION: &str = "gen-000000.seg";

/// Unique temp paths so parallel tests never collide on a store
/// directory.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rsse_roundtrip_{tag}_{}_{n}", std::process::id()))
}

/// Distinct 20-byte labels: proptest drives only the salt, the counter
/// guarantees distinctness so `from_parts` keeps lists separate.
fn label(i: usize, salt: u8) -> Label {
    let mut l = [salt; 20];
    l[..8].copy_from_slice(&(i as u64).to_be_bytes());
    l
}

fn ragged_index(lists: &[Vec<Vec<u8>>], salt: u8, domain: u64, extra: u64) -> RsseIndex {
    let parts = lists
        .iter()
        .enumerate()
        .map(|(i, entries)| (label(i, salt), entries.clone()))
        .collect();
    let opse = OpseParams::new(domain, domain + extra).unwrap();
    RsseIndex::from_parts(parts, opse)
}

fn scheme_built_index() -> (Rsse, RsseIndex) {
    let docs = vec![
        Document::new(FileId::new(1), "network storage network throughput"),
        Document::new(FileId::new(2), "network packet capture"),
        Document::new(FileId::new(3), "storage arrays and controllers"),
    ];
    let scheme = Rsse::new(b"roundtrip seed", RsseParams::default());
    let index = scheme.build_index(&docs).unwrap();
    (scheme, index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save→load is the identity on arbitrary ragged wire-shaped indexes:
    /// same OPSE parameters, same lists, same entries, byte for byte.
    #[test]
    fn save_load_is_identity_on_ragged_indexes(
        lists in vec(vec(vec(any::<u8>(), 0..40), 0..6), 0..8),
        salt in any::<u8>(),
        domain in 1u64..512,
        extra in 0u64..(1 << 40),
    ) {
        let index = ragged_index(&lists, salt, domain, extra);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = RsseIndex::load(&buf[..]).unwrap();
        prop_assert_eq!(loaded.opse_params(), index.opse_params());
        prop_assert_eq!(loaded.export_parts(), index.export_parts());

        // Determinism: the reloaded index re-saves to the same bytes, so
        // backups of backups stay comparable.
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        prop_assert_eq!(again, buf);
    }

    /// Any strict prefix of a valid file is an error — the loader never
    /// silently returns a partial index.
    #[test]
    fn any_truncation_is_rejected(
        lists in vec(vec(vec(any::<u8>(), 1..20), 1..4), 1..5),
        cut_seed in any::<u64>(),
    ) {
        let index = ragged_index(&lists, 7, 64, 64);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        prop_assert!(RsseIndex::load(&buf[..cut]).is_err(), "cut at {}", cut);
    }
}

#[test]
fn scheme_built_index_roundtrips_search_results() {
    let (scheme, index) = scheme_built_index();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    let loaded = RsseIndex::load(&buf[..]).unwrap();
    for kw in ["network", "storage", "packet", "throughput"] {
        let t = scheme.trapdoor(kw).unwrap();
        assert_eq!(loaded.search(&t, None), index.search(&t, None), "{kw}");
        assert_eq!(
            loaded.search(&t, Some(2)),
            index.search(&t, Some(2)),
            "{kw}"
        );
    }
}

#[test]
fn wrong_magic_is_bad_magic_not_io() {
    let (_, index) = scheme_built_index();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    buf[0] ^= 0x20; // "rSSEIDX2"
    match RsseIndex::load(&buf[..]).unwrap_err() {
        PersistError::BadMagic(m) => assert_eq!(&m[1..], &MAGIC_V2[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

/// Overwrites the store's base generation with `bytes`, reopens the
/// store, and removes it.
fn open_with_base(store: &Path, bytes: &[u8]) -> Result<RsseIndex, PersistError> {
    std::fs::write(store.join(BASE_GENERATION), bytes).unwrap();
    let opened = RsseIndex::open_generational(store);
    let _ = std::fs::remove_dir_all(store);
    opened
}

/// Saves a small ragged index as a one-generation store and returns the
/// store directory, its base generation's bytes, and the byte offset of
/// their directory, for the hostile-directory cases to patch.
fn saved_store_with_dir_offset(tag: &str) -> (PathBuf, Vec<u8>, usize) {
    let lists = vec![
        vec![vec![0x11; 10], vec![0x12; 10]],
        vec![vec![0x21; 4]],
        vec![vec![0x31; 6], vec![0x32; 2], vec![0x33; 8]],
    ];
    let index = ragged_index(&lists, 5, 64, 64);
    let store = temp_path(tag);
    index.save_generational(&store).unwrap();
    let buf = std::fs::read(store.join(BASE_GENERATION)).unwrap();
    let dir_offset = u64::from_be_bytes(buf[buf.len() - 8..].try_into().unwrap()) as usize;
    (store, buf, dir_offset)
}

/// A store whose base generation is `bytes` must refuse to open with
/// `BadDirectory` — and in particular must neither panic nor allocate
/// from the hostile claims.
fn assert_bad_directory(store: &Path, bytes: &[u8], what: &str) {
    match open_with_base(store, bytes) {
        Err(PersistError::BadDirectory(_)) => {}
        other => panic!("{what}: expected BadDirectory, got {other:?}"),
    }
}

/// A file in the retired pre-directory `RSSEIDX1` layout (same body as
/// `RSSEIDX2`, no directory, no trailer) is refused by magic alone, both
/// by the materializing loader and as a store's generation file.
#[test]
fn rsseidx1_files_are_rejected_with_bad_magic() {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"RSSEIDX1");
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&(1u64 << 46).to_be_bytes());
    buf.extend_from_slice(&1u64.to_be_bytes()); // one list
    buf.extend_from_slice(&label(0, 9));
    buf.extend_from_slice(&1u64.to_be_bytes()); // one entry
    buf.extend_from_slice(&4u64.to_be_bytes());
    buf.extend_from_slice(&[0xA1; 4]);
    match RsseIndex::load(&buf[..]).unwrap_err() {
        PersistError::BadMagic(m) => assert_eq!(&m, b"RSSEIDX1"),
        other => panic!("load: expected BadMagic, got {other:?}"),
    }
    let (store, _, _) = saved_store_with_dir_offset("v1");
    match open_with_base(&store, &buf).unwrap_err() {
        PersistError::BadMagic(m) => assert_eq!(&m, b"RSSEIDX1"),
        other => panic!("open_generational: expected BadMagic, got {other:?}"),
    }
}

#[test]
fn hostile_directory_out_of_range_offsets_rejected() {
    let (store, mut buf, dir) = saved_store_with_dir_offset("range");
    // First record's byte_len claims past the directory.
    buf[dir + 28..dir + 36].copy_from_slice(&(1u64 << 29).to_be_bytes());
    assert_bad_directory(&store, &buf, "out-of-range byte_len");

    let (store, mut buf, dir) = saved_store_with_dir_offset("range2");
    // First record's offset points before the file header.
    buf[dir + 20..dir + 28].copy_from_slice(&3u64.to_be_bytes());
    assert_bad_directory(&store, &buf, "offset inside the header");
}

#[test]
fn hostile_directory_overlapping_or_unsorted_offsets_rejected() {
    let (store, mut buf, dir) = saved_store_with_dir_offset("overlap");
    // Second record re-uses the first record's offset: overlapping ranges.
    let first_offset = buf[dir + 20..dir + 28].to_vec();
    buf[dir + 44 + 20..dir + 44 + 28].copy_from_slice(&first_offset);
    assert_bad_directory(&store, &buf, "overlapping ranges");

    let (store, mut buf, dir) = saved_store_with_dir_offset("unsorted");
    // Swap the offsets of records 0 and 1: ranges run right to left.
    let (a, b) = (dir + 20, dir + 44 + 20);
    let first = buf[a..a + 8].to_vec();
    let second = buf[b..b + 8].to_vec();
    buf[a..a + 8].copy_from_slice(&second);
    buf[b..b + 8].copy_from_slice(&first);
    assert_bad_directory(&store, &buf, "unsorted offsets");
}

#[test]
fn hostile_directory_unsorted_labels_rejected() {
    let (store, mut buf, dir) = saved_store_with_dir_offset("labels");
    // Swap the labels of records 0 and 1 (offsets untouched).
    let first = buf[dir..dir + 20].to_vec();
    let second = buf[dir + 44..dir + 44 + 20].to_vec();
    buf[dir..dir + 20].copy_from_slice(&second);
    buf[dir + 44..dir + 44 + 20].copy_from_slice(&first);
    assert_bad_directory(&store, &buf, "unsorted labels");
}

#[test]
fn hostile_directory_absurd_counts_never_over_allocate() {
    // Entry count over the sanity cap: Oversize, before any allocation.
    let (store, mut buf, dir) = saved_store_with_dir_offset("count");
    buf[dir + 36..dir + 44].copy_from_slice(&(2u64 << 30).to_be_bytes());
    assert!(matches!(
        open_with_base(&store, &buf).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Entry count under the cap but impossible for its byte range (each
    // entry needs an 8-byte prefix): BadDirectory, and the count is never
    // trusted as an allocation size.
    let (store, mut buf, dir) = saved_store_with_dir_offset("count2");
    buf[dir + 36..dir + 44].copy_from_slice(&(1u64 << 29).to_be_bytes());
    assert_bad_directory(&store, &buf, "count cannot fit its range");

    // A list-count header claiming far more records than the file holds.
    let (store, mut buf, _) = saved_store_with_dir_offset("count3");
    buf[24..32].copy_from_slice(&(1u64 << 20).to_be_bytes());
    assert_bad_directory(&store, &buf, "list count beyond the file");
}

#[test]
fn hostile_trailer_rejected() {
    let (store, mut buf, _) = saved_store_with_dir_offset("trailer");
    let len = buf.len();
    // Trailer pointing past the end of the file.
    buf[len - 8..].copy_from_slice(&(u64::MAX).to_be_bytes());
    assert_bad_directory(&store, &buf, "trailer out of range");
}

#[test]
fn truncated_tail_is_rejected_at_open() {
    let (store, buf, _) = saved_store_with_dir_offset("trunc");
    assert!(open_with_base(&store, &buf[..buf.len() - 3]).is_err());
}

#[test]
fn oversize_claims_are_rejected_at_every_depth() {
    // A length claim over the 1 GiB sanity cap must surface as Oversize —
    // whether it is the list count, an entry count, or an entry length.
    let huge = (2u64 << 30).to_be_bytes();

    // Hostile list count.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V2);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Hostile entry count inside the first list.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V2);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&[0u8; 20]);
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Hostile entry length inside the first entry.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V2);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&[0u8; 20]);
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));
}

#[test]
fn truncation_mid_entry_is_io_error() {
    // Cut inside the *payload* of the last entry: the header parses, the
    // entry length is honest, but the bytes run out partway through.
    let lists = vec![vec![vec![0xAB; 16], vec![0xCD; 16]]];
    let index = ragged_index(&lists, 3, 64, 64);
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    for missing in 1..16 {
        let cut = buf.len() - missing;
        match RsseIndex::load(&buf[..cut]).unwrap_err() {
            PersistError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            other => panic!("expected Io at cut {cut}, got {other:?}"),
        }
    }
}
