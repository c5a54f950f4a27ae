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

use rsse::cloud::FileCrypter;
use rsse::core::{Rsse, RsseParams};
use rsse::crypto::{Digest, Sha256};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};

/// SHA-256 of `RsseIndex::save` over [`corpus`] under [`SEED`].
const INDEX_SHA256: &str = "771c6d9a987c1d35d7dea3b2963e5a72b5137a63a2b9309a5593ebfe8f6fe098";

/// SHA-256 over the concatenated `FileCrypter` ciphertexts of [`corpus`]
/// under [`SEED`], in document order.
const FILES_SHA256: &str = "d0edf3cc5750b7a4755819292bd48c32119068b8cd7d6ecf8b1d8f15e682db8d";

/// Documents in the pinned corpus: a few dozen keeps the dev-profile build
/// well under a second.
const NUM_DOCS: usize = 36;

/// Master seed of the pinned build and file key.
const SEED: &[u8] = b"known answers";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusParams {
        num_docs: NUM_DOCS,
        ..CorpusParams::small(42)
    })
}

fn saved_index_bytes() -> Vec<u8> {
    let scheme = Rsse::new(SEED, RsseParams::default());
    let index = scheme.build_index(corpus().documents()).unwrap();
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
fn file_ciphertexts_match_pin() {
    let corpus = corpus();
    let mut digest = Sha256::new();
    for file in FileCrypter::new(SEED).encrypt_collection(corpus.documents()) {
        digest.update(file.ciphertext());
    }
    let got = hex(&digest.finalize());
    assert_eq!(got, FILES_SHA256);
}
