//! Version management (Section 1's "version and configuration management"
//! motivation): store a document's history as *deltas* instead of full
//! snapshots, using forward edit scripts and their inverses.
//!
//! Run with: `cargo run --example version_store`
//!
//! The store keeps only the latest version plus backward deltas: each older
//! version is reconstructed by applying inverse scripts. This is the
//! classic RCS layout, built from the paper's machinery: `diff` detects
//! the delta, `invert_script` turns it into an undo script.

use std::collections::HashMap;

use hierdiff::doc::DocValue;
use hierdiff::edit::{apply_script, invert_script, EditScript};
use hierdiff::tree::{isomorphic, Tree};
use hierdiff::workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff::Differ;

/// A delta-compressed version store: latest snapshot + backward deltas.
struct VersionStore {
    latest: Tree<DocValue>,
    /// `backward[i]` turns version `i+1` into version `i`.
    backward: Vec<EditScript<DocValue>>,
}

impl VersionStore {
    fn new(initial: Tree<DocValue>) -> VersionStore {
        VersionStore {
            latest: initial,
            backward: Vec::new(),
        }
    }

    /// Commits a new version: detect the delta, store its inverse, advance.
    ///
    /// The stored head is the old head with the script replayed on it
    /// (isomorphic to `next`), so the backward script's node ids line up
    /// with the head.
    fn commit(&mut self, next: Tree<DocValue>) -> usize {
        let result = Differ::new()
            .delta(false)
            .diff(&self.latest, &next)
            .expect("document versions share the Document root");
        assert!(!result.mces.wrapped, "document roots always match");
        let backward =
            invert_script(&self.latest, &result.script).expect("generated scripts replay");
        self.backward.push(backward);
        self.latest = result
            .mces
            .replay_on(&self.latest)
            .expect("generated scripts replay");
        result.script.len()
    }

    /// Latest version number (0-based).
    fn head(&self) -> usize {
        self.backward.len()
    }

    /// Reconstructs version `v` by walking backward deltas from the head.
    ///
    /// Nodes a backward delta re-inserts receive fresh ids, so older deltas
    /// referencing those nodes are rewritten through an accumulated id
    /// translation (`EditScript::map_ids`), chasing chains in case a node
    /// is re-inserted more than once along the walk.
    fn checkout(&self, v: usize) -> Tree<DocValue> {
        let mut tree = self.latest.clone();
        let mut translation: HashMap<hierdiff::tree::NodeId, hierdiff::tree::NodeId> =
            HashMap::new();
        for back in self.backward.iter().skip(v).rev() {
            let resolved = back.map_ids(|mut id| {
                while let Some(&next) = translation.get(&id) {
                    id = next;
                }
                id
            });
            let remap =
                apply_script(&mut tree, &resolved, |_, _| ()).expect("backward deltas replay");
            translation.extend(remap);
        }
        tree
    }
}

fn main() {
    let profile = DocProfile::default();
    let v0 = generate_document(2026, &profile);
    println!(
        "base document: {} nodes, {} sentences",
        v0.len(),
        v0.leaves().count()
    );

    // Simulate a revision history.
    let mut versions = vec![v0.clone()];
    let mut store = VersionStore::new(v0);
    for step in 0..5u64 {
        let (next, report) = perturb(
            versions.last().unwrap(),
            3000 + step,
            6 + step as usize * 3,
            &EditMix::revision(),
            &profile,
        );
        let ops = store.commit(next.clone());
        println!(
            "commit v{}: {} applied edits detected as {} script ops",
            step + 1,
            report.total(),
            ops
        );
        versions.push(next);
    }

    // Every historical version reconstructs exactly.
    for (v, expected) in versions.iter().enumerate() {
        let got = store.checkout(v);
        assert!(
            isomorphic(&got, expected),
            "checkout of v{v} does not match the original"
        );
        println!("checkout v{v}: {} nodes ✓", got.len());
    }
    println!(
        "\nstore keeps 1 snapshot + {} backward deltas instead of {} snapshots",
        store.head(),
        versions.len()
    );
}
