//! Output checks: every reply cheaply, a fixed sample deeply.
//!
//! The oracle holds the plaintext side of the benchmark's corpus — posting
//! sets and quantized score levels of every query term — plus the
//! documents the generator added, in the order it sent them. A reply may
//! show an added document only once its update was sent, so checks take
//! `visible`, the number of adds sent when the reply was read.

use rsse_cloud::{EncryptedFile, User};
use rsse_core::{Rsse, RsseParams, ScoreDecryptor};
use rsse_ir::score::{scores_for_term_with, CollectionStats};
use rsse_ir::{Document, FileId, InvertedIndex, Tokenizer};
use std::collections::{HashMap, HashSet};

/// File ids of added documents start here, far above the corpus ids.
pub const ADDED_ID_BASE: u64 = 1_000_000;

/// A document the generator adds during a run, with the score levels it
/// contributes to the query terms it contains.
#[derive(Debug, Clone)]
pub struct Added {
    /// The plaintext document.
    pub doc: Document,
    /// Query-term index → quantized level of this document for the term.
    pub levels: HashMap<u16, u64>,
}

/// The plaintext ground truth the checks compare replies against.
#[derive(Debug)]
pub struct Oracle {
    /// Query terms; queries name them by index.
    pub terms: Vec<String>,
    docs: Vec<Document>,
    /// Per query term: file id → quantized level, corpus documents only.
    levels: Vec<HashMap<u64, u64>>,
    /// Per query term: corpus levels, best first.
    sorted_levels: Vec<Vec<u64>>,
    /// Documents the generator may add, in send order.
    pub added: Vec<Added>,
}

/// A check failure, with what was wrong.
pub type CheckResult = Result<(), String>;

impl Oracle {
    /// Ground truth for `terms` over `docs` (ids `1..=docs.len()`), scored
    /// and quantized exactly as `BuildIndex` does, and for the documents
    /// in `to_add`, scored as the owner's `IndexUpdater` scores them.
    pub fn new(
        docs: &[Document],
        index: &InvertedIndex,
        params: RsseParams,
        terms: Vec<String>,
        to_add: Vec<Document>,
    ) -> Self {
        let quantizer = Rsse::new(b"oracle", params)
            .fit_quantizer(index)
            .expect("the corpus is scorable");
        let mut levels = Vec::with_capacity(terms.len());
        let mut sorted_levels = Vec::with_capacity(terms.len());
        for term in &terms {
            let map: HashMap<u64, u64> = scores_for_term_with(index, term, params.scoring)
                .into_iter()
                .map(|(f, s)| (f.as_u64(), quantizer.level(s)))
                .collect();
            let mut sorted: Vec<u64> = map.values().copied().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            levels.push(map);
            sorted_levels.push(sorted);
        }
        let stats = CollectionStats::of(index);
        let tokenizer = Tokenizer::new();
        let term_idx: HashMap<&str, u16> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i as u16))
            .collect();
        let added = to_add
            .into_iter()
            .map(|doc| {
                let tokens = tokenizer.tokenize(doc.text());
                let mut tf: HashMap<&str, u32> = HashMap::new();
                for t in &tokens {
                    *tf.entry(t.as_str()).or_insert(0) += 1;
                }
                let levels = tf
                    .iter()
                    .filter_map(|(t, &count)| {
                        let idx = *term_idx.get(t)?;
                        let df = index.document_frequency(t).max(1);
                        let score = params.scoring.score(count, tokens.len() as u32, df, &stats);
                        Some((idx, quantizer.level(score)))
                    })
                    .collect();
                Added { doc, levels }
            })
            .collect();
        Oracle {
            terms,
            docs: docs.to_vec(),
            levels,
            sorted_levels,
            added,
        }
    }

    /// Expected level of `file` for term `t`, if the file may match it
    /// given `visible` sent adds.
    fn level(&self, t: u16, file: u64, visible: usize) -> Option<u64> {
        if file >= ADDED_ID_BASE {
            let j = (file - ADDED_ID_BASE) as usize;
            if j >= visible {
                return None;
            }
            return self.added.get(j)?.levels.get(&t).copied();
        }
        self.levels[t as usize].get(&file).copied()
    }

    /// Number of corpus documents matching every term of `query` — a
    /// floor on the result count, since documents are only ever added.
    fn floor_count(&self, query: &[u16]) -> usize {
        let (first, rest) = query.split_first().expect("queries name a term");
        self.levels[*first as usize]
            .keys()
            .filter(|f| {
                rest.iter()
                    .all(|t| self.levels[*t as usize].contains_key(f))
            })
            .count()
    }

    /// The cheap check every reply gets: at most `k` results and at least
    /// as many as the corpus alone guarantees, distinct ids, every id in
    /// the plaintext posting list of every query term (or an added
    /// document containing them all), files in ranking order, and ranking
    /// keys non-increasing (the mapped score for one keyword, the sum of
    /// mapped scores for a conjunction).
    pub fn check_reply(
        &self,
        query: &[u16],
        k: usize,
        ranking: &[(u64, Vec<u64>)],
        file_ids: &[u64],
        visible: usize,
    ) -> CheckResult {
        let floor = self.floor_count(query).min(k);
        if ranking.len() > k || ranking.len() < floor {
            return Err(format!(
                "{} results, expected between {floor} and {k}",
                ranking.len()
            ));
        }
        let mut seen = HashSet::with_capacity(ranking.len());
        let mut prev_key: Option<u128> = None;
        for (id, scores) in ranking {
            if !seen.insert(*id) {
                return Err(format!("file {id} listed twice"));
            }
            if scores.len() != query.len() {
                return Err(format!("file {id} carries {} scores", scores.len()));
            }
            for t in query {
                if self.level(*t, *id, visible).is_none() {
                    return Err(format!("file {id} is not in the posting list of term {t}"));
                }
            }
            let key: u128 = scores.iter().map(|&s| s as u128).sum();
            if prev_key.is_some_and(|p| p < key) {
                return Err(format!("file {id} ranked below a lower score"));
            }
            prev_key = Some(key);
        }
        if let Some(i) = (0..ranking.len()).find(|&i| file_ids.get(i) != Some(&ranking[i].0)) {
            return Err(format!(
                "files do not follow the ranking: rank {i} names file {} but the reply carries {} files ({:?})",
                ranking[i].0,
                file_ids.len(),
                file_ids.get(i)
            ));
        }
        if file_ids.len() != ranking.len() {
            return Err(format!(
                "{} files for {} ranked results",
                file_ids.len(),
                ranking.len()
            ));
        }
        Ok(())
    }

    /// The deep check a fixed sample gets: the files decrypt
    /// (`User::decrypt_files`) to the plaintext documents, every mapped
    /// score decrypts (`Rsse::decrypt_level`) to the plaintext level of
    /// its (term, file) pair, and for one keyword the returned levels are
    /// the plaintext top-k levels: exactly, when nothing was added, and
    /// otherwise between the corpus-only and the with-every-visible-add
    /// top-k.
    pub fn deep_check(
        &self,
        user: &User,
        decryptor: &ScoreDecryptor<'_>,
        query: &[u16],
        ranking: &[(u64, Vec<u64>)],
        files: &[EncryptedFile],
        visible: usize,
    ) -> CheckResult {
        let docs = user
            .decrypt_files(files)
            .map_err(|e| format!("files do not decrypt: {e}"))?;
        if docs.len() != ranking.len() {
            return Err("file count differs from ranking".into());
        }
        for (doc, (id, _)) in docs.iter().zip(ranking) {
            let expected = self.document(*id).ok_or(format!("unknown file {id}"))?;
            if doc.id() != FileId::new(*id) || doc.text() != expected.text() {
                return Err(format!("file {id} decrypts to the wrong document"));
            }
        }
        let mut got = Vec::with_capacity(ranking.len());
        for (id, scores) in ranking {
            for (t, s) in query.iter().zip(scores) {
                let level = decryptor
                    .decrypt_level(&self.terms[*t as usize], *s)
                    .map_err(|e| format!("score of file {id} does not decrypt: {e}"))?;
                if Some(level) != self.level(*t, *id, visible) {
                    return Err(format!("file {id} decrypts to level {level} for term {t}"));
                }
                got.push(level);
            }
        }
        if let [t] = query {
            let lower = &self.sorted_levels[*t as usize];
            let mut upper = lower.clone();
            upper.extend(
                self.added[..visible.min(self.added.len())]
                    .iter()
                    .filter_map(|a| a.levels.get(t)),
            );
            upper.sort_unstable_by(|a, b| b.cmp(a));
            for (i, level) in got.iter().enumerate() {
                let lo = lower.get(i).copied().unwrap_or(0);
                let hi = upper.get(i).copied().unwrap_or(0);
                if *level < lo || *level > hi {
                    return Err(format!(
                        "rank {i} has level {level}, plaintext top-k allows {lo}..={hi}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn document(&self, id: u64) -> Option<&Document> {
        if id >= ADDED_ID_BASE {
            return self
                .added
                .get((id - ADDED_ID_BASE) as usize)
                .map(|a| &a.doc);
        }
        self.docs.get((id as usize).checked_sub(1)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_cloud::{CloudServer, DataOwner, Message, SearchMode};
    use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};

    struct Fixture {
        oracle: Oracle,
        owner: DataOwner,
        server: CloudServer,
        scheme: Rsse,
        opse: rsse_opse::OpseParams,
    }

    fn fixture() -> Fixture {
        let corpus = SyntheticCorpus::generate(&CorpusParams::small(3));
        let docs = corpus.documents();
        let index = InvertedIndex::build(docs);
        let params = RsseParams::default();
        let terms = vec!["network".to_string(), "protocol".to_string()];
        let oracle = Oracle::new(docs, &index, params, terms, Vec::new());
        let owner = DataOwner::new(b"check", params);
        let server = CloudServer::from_outsource(owner.outsource(docs).unwrap()).unwrap();
        let scheme = Rsse::new(b"check", params);
        let opse = scheme.updater_for(&index).unwrap().opse_params();
        Fixture {
            oracle,
            owner,
            server,
            scheme,
            opse,
        }
    }

    fn search(f: &Fixture, term: &str) -> (Vec<(u64, Vec<u64>)>, Vec<EncryptedFile>) {
        let user = f.owner.authorize_user();
        let req = user
            .search_request(term, Some(10), SearchMode::Rsse)
            .unwrap();
        let Message::RsseResponse { ranking, files } = f.server.handle(req).unwrap() else {
            panic!("not a search reply");
        };
        (
            ranking.into_iter().map(|(id, s)| (id, vec![s])).collect(),
            files,
        )
    }

    fn ids(files: &[EncryptedFile]) -> Vec<u64> {
        files.iter().map(|f| f.id().as_u64()).collect()
    }

    #[test]
    fn genuine_replies_pass_both_checks() {
        let f = fixture();
        let user = f.owner.authorize_user();
        let dec = f.scheme.score_decryptor(f.opse);
        for t in [0u16, 1] {
            let (ranking, files) = search(&f, &f.oracle.terms[t as usize].clone());
            assert_eq!(ranking.len(), 10);
            f.oracle
                .check_reply(&[t], 10, &ranking, &ids(&files), 0)
                .unwrap();
            f.oracle
                .deep_check(&user, &dec, &[t], &ranking, &files, 0)
                .unwrap();
        }
    }

    #[test]
    fn tampered_replies_are_rejected() {
        let f = fixture();
        let (ranking, files) = search(&f, "network");
        let file_ids = ids(&files);
        let check =
            |r: &[(u64, Vec<u64>)], fids: &[u64]| f.oracle.check_reply(&[0], 10, r, fids, 0);
        check(&ranking, &file_ids).unwrap();

        // Swapped order: the lower score now ranks first.
        let mut swapped = ranking.clone();
        let last = swapped.len() - 1;
        swapped.swap(0, last);
        let mut swapped_ids = file_ids.clone();
        swapped_ids.swap(0, last);
        if swapped[0].1 != swapped[last].1 {
            assert!(check(&swapped, &swapped_ids).is_err());
        }

        // A foreign id: a file outside the keyword's posting list.
        let foreign = (1..=200u64)
            .find(|id| !f.oracle.levels[1].contains_key(id))
            .expect("protocol is in about half the files");
        let (ranking1, files1) = search(&f, "protocol");
        let mut forged = ranking1.clone();
        forged[0].0 = foreign;
        let mut forged_ids = ids(&files1);
        forged_ids[0] = foreign;
        assert!(f
            .oracle
            .check_reply(&[1], 10, &forged, &forged_ids, 0)
            .is_err());
        // An added document that was never sent is foreign too.
        let mut early = ranking.clone();
        early[0].0 = ADDED_ID_BASE;
        let mut early_ids = file_ids.clone();
        early_ids[0] = ADDED_ID_BASE;
        assert!(check(&early, &early_ids).is_err());

        // A short list: fewer results than the plaintext list guarantees.
        assert!(check(&ranking[..9], &file_ids[..9]).is_err());
        // A duplicated id.
        let mut dup = ranking.clone();
        dup[1] = dup[0].clone();
        let mut dup_ids = file_ids.clone();
        dup_ids[1] = dup_ids[0];
        assert!(check(&dup, &dup_ids).is_err());
        // Files out of ranking order.
        let mut shuffled = file_ids.clone();
        shuffled.swap(0, 1);
        assert!(check(&ranking, &shuffled).is_err());
    }

    #[test]
    fn deep_check_catches_wrong_levels_and_files() {
        let f = fixture();
        let user = f.owner.authorize_user();
        let dec = f.scheme.score_decryptor(f.opse);
        let (ranking, files) = search(&f, "network");
        // A score moved to another file fails level decryption matching.
        let mut moved = ranking.clone();
        let (a, b) = (moved[0].1.clone(), moved[9].1.clone());
        if a != b {
            moved[0].1 = b;
            moved[9].1 = a;
            assert!(f
                .oracle
                .deep_check(&user, &dec, &[0], &moved, &files, 0)
                .is_err());
        }
        // A file swapped for another decrypts to the wrong document.
        let mut files2 = files.clone();
        files2.swap(0, 1);
        assert!(f
            .oracle
            .deep_check(&user, &dec, &[0], &ranking, &files2, 0)
            .is_err());
        // A ranking that skips the true best result breaks the top-k levels.
        let (full, full_files) = {
            let user = f.owner.authorize_user();
            let req = user
                .search_request("network", Some(11), SearchMode::Rsse)
                .unwrap();
            let Message::RsseResponse { ranking, files } = f.server.handle(req).unwrap() else {
                panic!("not a search reply");
            };
            (ranking, files)
        };
        let skipped: Vec<(u64, Vec<u64>)> = full[1..].iter().map(|(i, s)| (*i, vec![*s])).collect();
        if f.oracle.sorted_levels[0][0] != f.oracle.sorted_levels[0][10] {
            assert!(f
                .oracle
                .deep_check(&user, &dec, &[0], &skipped, &full_files[1..], 0)
                .is_err());
        }
    }
}
