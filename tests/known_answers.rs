//! Known-answer pins for the persisted RSSE index.
//!
//! The index owner's build is deterministic under a fixed master seed: the
//! OPM score ciphertexts come from a keyed coin tape and the entry nonces
//! from per-list sealers. So the `RSSEIDX2` bytes of a fixed corpus are a
//! fixed string, and their SHA-256 below pins every layer that feeds
//! them — HMAC tapes, HYGEINV draws, OPM, AES-CTR entry encryption, and
//! the segment writer. A faster cipher or a storage refactor must leave
//! this digest, and so every index already on disk, unchanged. The
//! owner's file ciphertexts (AES-CTR under the file key, nonce bound to
//! the file id) are pinned the same way.
//!
//! The primitives under the index are pinned one by one as well — the
//! `Tape` coin stream, `hygeinv` draws, and OPM ciphertexts — so a
//! faster HMAC or sampler that changes an output fails at the layer that
//! broke, not only in the whole-index digest. The basic scheme's index,
//! the other half of the owner's `Setup`, is pinned beside the RSSE one.

use rsse::cloud::FileCrypter;
use rsse::core::{Rsse, RsseIndex, RsseParams};
use rsse::crypto::{Digest, SecretKey, Sha256, Tape};
use rsse::hgd::{hygeinv, MAX_POPULATION};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;
use rsse::opse::{Opm, OpseParams};
use rsse::sse::BasicScheme;

/// SHA-256 of `RsseIndex::save` over [`corpus`] under [`SEED`].
const INDEX_SHA256: &str = "771c6d9a987c1d35d7dea3b2963e5a72b5137a63a2b9309a5593ebfe8f6fe098";

/// SHA-256 over the basic scheme's index of [`corpus`] under [`SEED`]:
/// `export_parts` in label order, each label followed by its entries.
const BASIC_INDEX_SHA256: &str = "e959f681547ec712af74ee0b8f2304006efe5259aee24b1e8191c2a0876dafe8";

/// SHA-256 over the concatenated `FileCrypter` ciphertexts of [`corpus`]
/// under [`SEED`], in document order.
const FILES_SHA256: &str = "d0edf3cc5750b7a4755819292bd48c32119068b8cd7d6ecf8b1d8f15e682db8d";

/// Documents in the pinned corpus: a few dozen keeps the dev-profile build
/// well under a second.
const NUM_DOCS: usize = 36;

/// Master seed of the pinned build and file key.
const SEED: &[u8] = b"known answers";

/// First 64 bytes of `Tape::new(key, TAPE_TRANSCRIPT)`, for the key
/// bytes `00..1f` and for `SecretKey::derive(SEED, "tape")`.
const TAPE_TRANSCRIPT: &[u8] = b"known answer transcript";
const TAPE_64: [&str; 2] = [
    "f1f3b7613344dbc2eb18ea36e3c4fb17626985ddfc4b4e3c1cdacefb02f7c8ee\
     a63ec8b26404c88578a452fb2f1dcbcda61699e4c5c62023ac72f0ea1b8fc87a",
    "b859937dae4069c2a41821aee5a473d524605c6833d3fb05db2b3feaa2441445\
     ae36d1bc38b735f0fa5a4c49b11d61088a473fb0baa95fd5b7a1429b3f9de716",
];

/// SHA-256 of the first [`LONG_TAPE_LEN`] bytes of the same two tapes.
/// 40,000 bytes is 1,250 blocks, so the big-endian block counter carries
/// out of its low byte (block 255 → 256) well inside the stream.
const LONG_TAPE_LEN: usize = 40_000;
const LONG_TAPE_SHA256: [&str; 2] = [
    "095979dfcc51bee10f92a0d8ff8e859ef0d48b4ce631633d12303f942c5a8084",
    "ad8c8482aa871c4284d25274027209975bc2f284f8c14a30b1f397c7d4e44a29",
];

/// `(m, N, n)` and the first four `hygeinv(tape, m, N, n)` draws off a
/// fresh `Tape::new(key 00..1f, b"hygeinv")`: the paper's running
/// `M = 128` over `|R| = 2^46`, a small population, and one at
/// `MAX_POPULATION`.
const HYGEINV_DRAWS: [(u64, u64, u64, [u64; 4]); 3] = [
    (128, 1 << 46, 1 << 45, [65, 69, 66, 62]),
    (37, 1000, 250, [10, 11, 10, 8]),
    (1 << 20, MAX_POPULATION, 1 << 40, [260, 269, 261, 250]),
];

/// `Opm::encrypt(m, b"file-0001")` under `SecretKey::derive(SEED, "opm")`
/// and the paper's `M = 128`, `|R| = 2^46`, at the lowest, a middle and
/// the highest score level.
const OPM_CIPHERTEXTS: [(u64, u64); 3] = [
    (1, 875_864_618_378),
    (64, 38_466_039_833_107),
    (128, 70_328_357_645_635),
];

fn key_00_1f() -> SecretKey {
    SecretKey::from_bytes(core::array::from_fn(|i| i as u8))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusParams {
        num_docs: NUM_DOCS,
        ..CorpusParams::small(42)
    })
}

fn pinned_index() -> RsseIndex {
    let scheme = Rsse::new(SEED, RsseParams::default());
    scheme.build_index(corpus().documents()).unwrap()
}

fn saved_index_bytes() -> Vec<u8> {
    let index = pinned_index();
    let mut bytes = Vec::new();
    index.save(&mut bytes).unwrap();
    bytes
}

#[test]
fn saved_index_bytes_match_pin() {
    let bytes = saved_index_bytes();
    assert_eq!(&bytes[..8], b"RSSEIDX2");
    assert_eq!(hex(&Sha256::digest(&bytes)), INDEX_SHA256);
}

#[test]
fn basic_index_matches_pin() {
    let corpus = corpus();
    let plaintext = InvertedIndex::build(corpus.documents());
    let index = BasicScheme::new(SEED)
        .build_index(&plaintext, Default::default())
        .unwrap();
    let mut digest = Sha256::new();
    for (label, entries) in index.export_parts() {
        digest.update(&label);
        for entry in &entries {
            digest.update(entry);
        }
    }
    assert_eq!(hex(&digest.finalize()), BASIC_INDEX_SHA256);
}

#[test]
fn file_ciphertexts_match_pin() {
    let corpus = corpus();
    let mut digest = Sha256::new();
    for file in FileCrypter::new(SEED).encrypt_collection(corpus.documents()) {
        digest.update(file.ciphertext());
    }
    let got = hex(&digest.finalize());
    assert_eq!(got, FILES_SHA256);
}

/// A one-generation store is the `RsseIndex::save` format byte for byte:
/// the base generation `save_generational` writes hashes to the same pin.
#[test]
fn base_generation_bytes_match_the_saved_index_pin() {
    let dir = std::env::temp_dir().join(format!("rsse_known_answers_gen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    pinned_index().save_generational(&dir).unwrap();
    let bytes = std::fs::read(dir.join("gen-000000.seg")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&Sha256::digest(&bytes)), INDEX_SHA256);
}

#[test]
fn tape_streams_match_pin() {
    for (key, want) in [key_00_1f(), SecretKey::derive(SEED, "tape")]
        .iter()
        .zip(TAPE_64)
    {
        let mut out = [0u8; 64];
        Tape::new(key, TAPE_TRANSCRIPT).fill_bytes(&mut out);
        assert_eq!(hex(&out), want);
    }
}

#[test]
fn long_tape_streams_match_pin() {
    for (key, want) in [key_00_1f(), SecretKey::derive(SEED, "tape")]
        .iter()
        .zip(LONG_TAPE_SHA256)
    {
        let mut out = vec![0u8; LONG_TAPE_LEN];
        Tape::new(key, TAPE_TRANSCRIPT).fill_bytes(&mut out);
        assert_eq!(hex(&Sha256::digest(&out)), want);
    }
}

#[test]
fn hygeinv_draws_match_pin() {
    for (m, population, draws, want) in HYGEINV_DRAWS {
        let mut tape = Tape::new(&key_00_1f(), b"hygeinv");
        let got = want.map(|_| hygeinv(&mut tape, m, population, draws).unwrap());
        assert_eq!(got, want, "hygeinv(m={m}, N={population}, n={draws})");
    }
}

#[test]
fn opm_ciphertexts_match_pin() {
    let opm = Opm::new(SecretKey::derive(SEED, "opm"), OpseParams::paper_default());
    for (m, want) in OPM_CIPHERTEXTS {
        assert_eq!(opm.encrypt(m, b"file-0001").unwrap(), want, "m={m}");
    }
}
