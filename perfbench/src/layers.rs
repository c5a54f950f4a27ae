//! Per-layer timings, taken by calling each module's public functions
//! directly, each call batch wrapped in a span.

use crate::spec::MASTER_SEED;
use crate::trace::Tracer;
use rsse_cloud::{FileCrypter, SearchMode, User};
use rsse_core::entry::ENTRY_CT_LEN;
use rsse_core::{Rsse, RsseIndex, RsseParams};
use rsse_crypto::ctr::NONCE_LEN;
use rsse_crypto::{Aes128, SecretKey, SemanticCipher, Tape};
use rsse_ir::{Document, InvertedIndex};
use rsse_opse::{Opm, OpseParams};
use rsse_sse::BasicScheme;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per timing; the median batch is reported.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the time per call of `f`, in ns.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch = (calls / BATCHES).max(1);
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    batches.sort_unstable_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// What the layer timings run on.
pub struct LayerInput<'a> {
    /// The corpus.
    pub docs: &'a [Document],
    /// Single-keyword query terms of the workload.
    pub search_terms: &'a [String],
    /// Two-keyword queries of the workload (may be empty).
    pub conj_queries: &'a [String],
    /// Documents to time `add_document` on.
    pub adds: &'a [Document],
    /// Scratch directory for the segment write.
    pub work_dir: &'a Path,
}

/// Times every library layer the benchmark reaches from outside, into
/// `out` by metric name.
pub fn measure(input: &LayerInput<'_>, tracer: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let params = RsseParams::default();

    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0u8; 16];
    out.insert(
        "crypto.aes_block_ns",
        tracer.time("crypto.aes_block", || {
            per_call_ns(200_000, |_| aes.encrypt_block(black_box(&mut block)))
        }),
    );

    let cipher = SemanticCipher::new(&SecretKey::derive(MASTER_SEED, "perfbench/entry"));
    let entry = cipher.encrypt_with_nonce([3u8; NONCE_LEN], &[0u8; ENTRY_CT_LEN - NONCE_LEN]);
    out.insert(
        "crypto.entry_decrypt_ns",
        tracer.time("crypto.entry_decrypt", || {
            per_call_ns(100_000, |_| {
                black_box(cipher.decrypt(black_box(&entry)).expect("entry decrypts"));
            })
        }),
    );

    let tape_key = SecretKey::derive(MASTER_SEED, "perfbench/tape");
    out.insert(
        "crypto.tape_new_ns",
        tracer.time("crypto.tape_new", || {
            per_call_ns(50_000, |i| {
                let mut tape = Tape::new(&tape_key, &(i as u64).to_be_bytes());
                black_box(tape.next_u64());
            })
        }),
    );

    let crypter = FileCrypter::new(MASTER_SEED);
    let files = crypter.encrypt_collection(&input.docs[..input.docs.len().min(200)]);
    out.insert(
        "crypto.file_decrypt_us",
        tracer.time("crypto.file_decrypt", || {
            per_call_ns(2_000, |i| {
                black_box(
                    crypter
                        .decrypt(&files[i % files.len()])
                        .expect("file decrypts"),
                );
            }) / 1e3
        }),
    );

    out.insert(
        "hgd.hygeinv_us",
        tracer.time("hgd.hygeinv", || {
            per_call_ns(20_000, |i| {
                let mut tape = Tape::new(&tape_key, &(i as u64).to_be_bytes());
                black_box(rsse_hgd::hygeinv(&mut tape, 128, 1 << 46, 1 << 45).expect("valid draw"));
            }) / 1e3
        }),
    );

    let opm = Opm::new_uncached(
        SecretKey::derive(MASTER_SEED, "perfbench/opm"),
        OpseParams::paper_default(),
    );
    out.insert(
        "opse.opm_encrypt_us",
        tracer.time("opse.opm_encrypt", || {
            per_call_ns(2_000, |i| {
                let level = (i as u64 % 128) + 1;
                black_box(
                    opm.encrypt(level, &(i as u64).to_be_bytes())
                        .expect("in domain"),
                );
            }) / 1e3
        }),
    );

    let started = Instant::now();
    let plain = tracer.time("ir.index_build", || InvertedIndex::build(input.docs));
    out.insert("ir.index_build_s", started.elapsed().as_secs_f64());

    let started = Instant::now();
    tracer.time("sse.basic_build", || {
        black_box(
            BasicScheme::new(MASTER_SEED)
                .build_index(&plain, Default::default())
                .expect("basic index builds"),
        )
    });
    out.insert("sse.basic_build_s", started.elapsed().as_secs_f64());

    let scheme = Rsse::new(MASTER_SEED, params);
    let (index, report) = tracer.time("core.build_index", || {
        scheme
            .build_index_with_report(&plain)
            .expect("index builds")
    });
    out.insert("core.build_index_s", report.build_time.as_secs_f64());
    out.insert("core.build_raw_s", report.raw_index_time.as_secs_f64());
    out.insert("opse.opm_ops", report.opm_operations as f64);

    let dir = input.work_dir.join("segment-write");
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let written = tracer.time("core.segment_write", || {
        index.save_generational(&dir).expect("segment writes")
    });
    out.insert("core.segment_write_s", started.elapsed().as_secs_f64());
    drop(written);
    let _ = std::fs::remove_dir_all(&dir);

    let updater = scheme.updater_for(&plain).expect("updater fits");
    out.insert(
        "core.update_us",
        tracer.time("core.update", || {
            per_call_ns(input.adds.len(), |i| {
                black_box(updater.add_document(&input.adds[i]).expect("add encrypts"));
            }) / 1e3
        }),
    );

    search_layers(input, &scheme, &index, tracer, out);
}

fn search_layers(
    input: &LayerInput<'_>,
    scheme: &Rsse,
    index: &RsseIndex,
    tracer: &Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let trapdoors: Vec<_> = input
        .search_terms
        .iter()
        .map(|t| scheme.trapdoor(t).expect("query term has a trapdoor"))
        .collect();
    out.insert(
        "core.search_us",
        tracer.time("core.search", || {
            per_call_ns(500, |i| {
                black_box(index.search(&trapdoors[i % trapdoors.len()], Some(10)));
            }) / 1e3
        }),
    );

    let conj: Vec<_> = input
        .conj_queries
        .iter()
        .map(|q| scheme.multi_trapdoor(q).expect("query has trapdoors"))
        .collect();
    let (conj_us, per_result) = if conj.is_empty() {
        (0.0, 0.0)
    } else {
        let before = index.conjunctive_stats();
        let us = tracer.time("core.conj_search", || {
            per_call_ns(500, |i| {
                black_box(index.search_conjunctive(&conj[i % conj.len()], Some(10)));
            }) / 1e3
        });
        let after = index.conjunctive_stats();
        let entries = (after.driver_entries - before.driver_entries) as f64;
        let results = (after.candidates - before.candidates) as f64;
        (us, entries / results.max(1.0))
    };
    out.insert("core.conj_search_us", conj_us);
    out.insert("core.conj_entries_per_result", per_result);

    let user = User::new(MASTER_SEED, RsseParams::default());
    out.insert(
        "client.trapdoor_us",
        tracer.time("client.trapdoor", || {
            if input.conj_queries.is_empty() {
                per_call_ns(5_000, |i| {
                    let term = &input.search_terms[i % input.search_terms.len()];
                    black_box(
                        user.search_request(term, Some(10), SearchMode::Rsse)
                            .expect("request builds"),
                    );
                })
            } else {
                per_call_ns(5_000, |i| {
                    let q = &input.conj_queries[i % input.conj_queries.len()];
                    black_box(
                        user.conjunctive_request(q, Some(10))
                            .expect("request builds"),
                    );
                })
            }
        }) / 1e3,
    );
}
