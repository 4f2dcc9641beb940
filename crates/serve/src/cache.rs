//! The version-chain cache: parsed trees plus their subtree-fingerprint
//! indexes, with quarantine-and-rebuild crash hygiene.
//!
//! Every cached tree is [compact](Tree::is_compact), so requests take the
//! preorder-scan paths of the matching and scripting kernels. A caller's
//! tree that edits left dirty (a `replay_on` result, a perturbed version)
//! is compacted on ingest; that renumbers its nodes, which no response
//! shows, since responses carry no node ids.
//!
//! Each ingested document is a chain of versions. For every version the
//! cache holds the parsed [`Tree`] and a prebuilt [`FingerprintIndex`],
//! so a `diff(doc, vN, vM)` request seeds the matcher from
//! [`prune_identical_indexed`](hierdiff_matching::prune_identical_indexed)
//! without rebuilding either index — the chain-reuse path the paper's
//! pruning optimization (Section 4) makes possible.
//!
//! When a request panics, the entries it touched are *quarantined*: the
//! index is assumed corrupt, and the next access rebuilds it from the
//! tree before use. [`DocCache::validate`] re-derives every index and
//! checks tree well-formedness, so a post-soak sweep can prove no
//! corruption survived.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use hierdiff_doc::DocValue;
use hierdiff_tree::{FingerprintIndex, Tree};

use crate::error::ServeError;

/// One cached version: the parsed tree and its fingerprint index.
#[derive(Clone)]
pub(crate) struct VersionEntry {
    /// The parsed tree (shared with in-flight requests).
    pub tree: Arc<Tree<DocValue>>,
    /// Prebuilt subtree-fingerprint index over `tree`.
    pub index: Arc<FingerprintIndex>,
    /// Node count, for admission estimates without touching the tree.
    pub nodes: usize,
}

impl VersionEntry {
    fn new(mut tree: Tree<DocValue>) -> VersionEntry {
        tree.compact();
        let index = FingerprintIndex::build(&tree);
        VersionEntry {
            nodes: tree.len(),
            tree: Arc::new(tree),
            index: Arc::new(index),
        }
    }
}

struct Chain {
    entries: Vec<VersionEntry>,
    quarantined: Vec<bool>,
}

/// Outcome of a [`DiffService::validate_cache`](crate::DiffService::validate_cache) sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheValidation {
    /// Version entries checked.
    pub checked: usize,
    /// Entries whose cached index disagreed with a fresh rebuild, or
    /// whose tree failed well-formedness validation (0 = clean).
    pub corrupt: usize,
    /// Entries still flagged quarantined at sweep time (they validate
    /// against their tree like any other, but had not yet been rebuilt
    /// by an access).
    pub quarantined: usize,
}

impl CacheValidation {
    /// True when every entry checked out.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
    }
}

/// Thread-safe document/version cache. Lookups clone `Arc`s out under a
/// read lock; no lock is held while diffing.
#[derive(Default)]
pub(crate) struct DocCache {
    chains: RwLock<HashMap<String, Chain>>,
}

impl DocCache {
    pub fn new() -> DocCache {
        DocCache::default()
    }

    /// Ingests (or replaces) a document's version chain, compacting each
    /// version and building its fingerprint index. Returns the total node
    /// count.
    pub fn insert_chain(&self, doc: &str, versions: Vec<Tree<DocValue>>) -> usize {
        let entries: Vec<VersionEntry> = versions.into_iter().map(VersionEntry::new).collect();
        let total: usize = entries.iter().map(|e| e.nodes).sum();
        let quarantined = vec![false; entries.len()];
        self.chains
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                doc.to_string(),
                Chain {
                    entries,
                    quarantined,
                },
            );
        total
    }

    /// Node counts for a version pair, for the admission estimate.
    /// Validates document and version indexes.
    pub fn pair_nodes(&self, doc: &str, old: usize, new: usize) -> Result<usize, ServeError> {
        let chains = self.chains.read().unwrap_or_else(PoisonError::into_inner);
        let chain = chains
            .get(doc)
            .ok_or_else(|| ServeError::UnknownDocument(doc.to_string()))?;
        let fetch = |v: usize| {
            chain
                .entries
                .get(v)
                .map(|e| e.nodes)
                .ok_or(ServeError::UnknownVersion {
                    doc: doc.to_string(),
                    version: v,
                    versions: chain.entries.len(),
                })
        };
        Ok(fetch(old)? + fetch(new)?)
    }

    /// Fetches a version entry for diffing. A quarantined entry is
    /// rebuilt from its tree first (fresh index, flag cleared); the
    /// returned bool reports whether a rebuild happened (a cache miss in
    /// the serve counters).
    pub fn lookup(&self, doc: &str, version: usize) -> Result<(VersionEntry, bool), ServeError> {
        {
            let chains = self.chains.read().unwrap_or_else(PoisonError::into_inner);
            let chain = chains
                .get(doc)
                .ok_or_else(|| ServeError::UnknownDocument(doc.to_string()))?;
            match (chain.entries.get(version), chain.quarantined.get(version)) {
                (Some(entry), Some(false)) => return Ok((entry.clone(), false)),
                (None, _) | (_, None) => {
                    return Err(ServeError::UnknownVersion {
                        doc: doc.to_string(),
                        version,
                        versions: chain.entries.len(),
                    })
                }
                (Some(_), Some(true)) => {} // fall through to rebuild
            }
        }
        let mut chains = self.chains.write().unwrap_or_else(PoisonError::into_inner);
        let chain = chains
            .get_mut(doc)
            .ok_or_else(|| ServeError::UnknownDocument(doc.to_string()))?;
        let (Some(entry), Some(flag)) = (
            chain.entries.get_mut(version),
            chain.quarantined.get_mut(version),
        ) else {
            return Err(ServeError::UnknownVersion {
                doc: doc.to_string(),
                version,
                versions: chain.entries.len(),
            });
        };
        if *flag {
            entry.index = Arc::new(FingerprintIndex::build(&entry.tree));
            *flag = false;
            Ok((entry.clone(), true))
        } else {
            // Another worker rebuilt it between our locks.
            Ok((entry.clone(), false))
        }
    }

    /// Quarantines the given versions of `doc` (out-of-range indexes are
    /// ignored: the panic may have been the lookup itself). Returns how
    /// many entries were newly quarantined.
    pub fn quarantine(&self, doc: &str, versions: &[usize]) -> usize {
        let mut chains = self.chains.write().unwrap_or_else(PoisonError::into_inner);
        let Some(chain) = chains.get_mut(doc) else {
            return 0;
        };
        let mut newly = 0;
        for &v in versions {
            if let Some(flag) = chain.quarantined.get_mut(v) {
                if !*flag {
                    *flag = true;
                    newly += 1;
                }
            }
        }
        newly
    }

    /// Re-validates every cached entry: the tree must pass structural
    /// validation and the cached index must equal a fresh rebuild
    /// (compared by dense hash vector). Read-only; does not clear
    /// quarantine flags.
    pub fn validate(&self) -> CacheValidation {
        let chains = self.chains.read().unwrap_or_else(PoisonError::into_inner);
        let mut out = CacheValidation::default();
        for chain in chains.values() {
            for (entry, &flag) in chain.entries.iter().zip(&chain.quarantined) {
                out.checked += 1;
                if flag {
                    out.quarantined += 1;
                }
                let fresh = FingerprintIndex::build(&entry.tree);
                // analyze: allow(S050) opaque-receiver fan: `tree.validate` is Tree::validate, not a DocCache::validate re-entry under `chains`
                let ok = entry.tree.validate().is_ok()
                    && fresh.dense_hashes() == entry.index.dense_hashes();
                if !ok {
                    out.corrupt += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_workload::{generate_docset, DocSetProfile};

    fn cache_with_set() -> (DocCache, usize) {
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        let n = set.versions.len();
        let cache = DocCache::new();
        cache.insert_chain("paper", set.versions);
        (cache, n)
    }

    #[test]
    fn lookup_unknowns_are_typed() {
        let (cache, n) = cache_with_set();
        assert!(matches!(
            cache.lookup("nope", 0),
            Err(ServeError::UnknownDocument(_))
        ));
        assert!(matches!(
            cache.lookup("paper", n),
            Err(ServeError::UnknownVersion { versions, .. }) if versions == n
        ));
        assert!(cache.lookup("paper", 0).is_ok());
    }

    #[test]
    fn quarantine_rebuilds_on_next_access() {
        let (cache, _) = cache_with_set();
        let (before, miss) = cache.lookup("paper", 1).unwrap();
        assert!(!miss);
        assert_eq!(cache.quarantine("paper", &[1, 99]), 1, "99 ignored");
        let (after, miss) = cache.lookup("paper", 1).unwrap();
        assert!(miss, "rebuild counts as a miss");
        assert_eq!(
            before.index.dense_hashes(),
            after.index.dense_hashes(),
            "rebuild from an intact tree reproduces the index"
        );
        let (_, miss) = cache.lookup("paper", 1).unwrap();
        assert!(!miss, "flag cleared after rebuild");
    }

    #[test]
    fn every_cached_version_is_compact() {
        let set = generate_docset(&DocSetProfile::paper_sets()[0]);
        assert!(
            set.versions.iter().any(|t| !t.is_compact()),
            "the generated chain holds dirty versions"
        );
        let (cache, n) = cache_with_set();
        cache.quarantine("paper", &[1]);
        for v in 0..n {
            let (entry, _) = cache.lookup("paper", v).unwrap();
            assert!(entry.tree.is_compact(), "version {v}");
        }
        assert!(cache.validate().is_clean());
    }

    #[test]
    fn validation_sweep_is_clean_and_counts_quarantine() {
        let (cache, n) = cache_with_set();
        cache.quarantine("paper", &[0]);
        let v = cache.validate();
        assert_eq!(v.checked, n);
        assert_eq!(v.quarantined, 1);
        assert!(v.is_clean(), "{v:?}");
    }
}
