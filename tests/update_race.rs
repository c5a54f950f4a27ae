//! Adds racing searches: a document an update makes searchable must
//! already have its file on the server.
//!
//! `CloudServer::apply_update` ingests the new encrypted files before it
//! appends their postings to the index. Were the order reversed, a search
//! landing between the two steps would rank the new document and then
//! return no file for it (`FileStore::fetch_many` skips ids it does not
//! hold). Here one thread adds documents while others search the keyword
//! every added document carries, and every reply's files must follow its
//! ranking exactly.

use rsse::cloud::{Deployment, FileCrypter, Message, SearchMode};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::{Document, FileId, InvertedIndex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const SEED: &[u8] = b"update race";

/// Documents added while the searchers run.
const ADDS: u64 = 300;

/// Concurrent searching threads.
const SEARCHERS: usize = 3;

/// A document mentioning `alpha` with a long body, so gathering the files
/// of a ranking takes long enough for adds to queue behind it.
fn doc(id: u64) -> Document {
    let body = "alpha beta gamma delta ".repeat(64);
    Document::new(FileId::new(id), format!("{body} report {id}"))
}

#[test]
fn every_ranked_document_comes_back_with_its_file() {
    let docs: Vec<Document> = (1..=24).map(doc).collect();
    let params = RsseParams::default();
    // No ranking cache: it would answer from the pre-add ranking until the
    // update invalidates it, so only searches that read the index can
    // observe a half-applied add.
    let cloud = Deployment::bootstrap_with_cache(SEED, params, &docs, 0).unwrap();
    let server = cloud.server();
    let scheme = Rsse::new(SEED, params);
    let plain_index = InvertedIndex::build(&docs);
    let updater = scheme.updater_for(&plain_index).unwrap();
    let crypter = FileCrypter::new(SEED);
    let request = cloud
        .user()
        .search_request("alpha", None, SearchMode::Rsse)
        .unwrap();

    let adding = AtomicBool::new(true);
    let searches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..SEARCHERS {
            scope.spawn(|| {
                // At least one search after the last add, so the final
                // ranking is checked too.
                loop {
                    let done = !adding.load(Ordering::Acquire);
                    let Message::RsseResponse { ranking, files } =
                        server.handle(request.clone()).unwrap()
                    else {
                        panic!("expected an RsseResponse");
                    };
                    let ranked: Vec<u64> = ranking.iter().map(|&(id, _)| id).collect();
                    let returned: Vec<u64> = files.iter().map(|f| f.id().as_u64()).collect();
                    assert_eq!(returned, ranked, "files do not follow the ranking");
                    searches.fetch_add(1, Ordering::Relaxed);
                    if done {
                        break;
                    }
                }
            });
        }
        for id in 1000..1000 + ADDS {
            let doc = doc(id);
            let update = updater.add_document(&doc).unwrap();
            server.apply_update(update, vec![crypter.encrypt(&doc)]);
        }
        adding.store(false, Ordering::Release);
    });

    assert!(searches.load(Ordering::Relaxed) >= SEARCHERS);
    let Message::RsseResponse { ranking, .. } = server.handle(request).unwrap() else {
        panic!("expected an RsseResponse");
    };
    assert_eq!(ranking.len() as u64, 24 + ADDS, "every add is searchable");
}
