//! The paper's configuration-management scenario (Section 1): correlating
//! an architect's and an electrician's view of the same building project,
//! "computing the deltas with respect to the last configuration and
//! highlighting any conflicts".
//!
//! Run with: `cargo run --example config_sync`
//!
//! Two twists over the document examples:
//!
//! 1. **Keys.** Design objects carry identifiers, so we skip the Good
//!    Matching problem entirely and hand `diff` a key-derived matching —
//!    the paper's "if the information we are comparing does have unique
//!    identifiers, then our algorithms can take advantage of them" path.
//!    But ids "may not be valid across versions" (the pillar that was
//!    record 778899 and is now 12345), so unkeyed objects fall back to
//!    value matching.
//! 2. **Object hierarchies.** The leaf-only delete matters here: deleting a
//!    room must not promote its fixtures into the building (the paper's
//!    library/book argument against the ZS delete).

use std::collections::HashMap;

use hierdiff::edit::Matching;
use hierdiff::tree::{Label, NodeId, NodeValue, Tree};
use hierdiff::{Differ, MatchStrategy};

/// Builds a configuration snapshot: Building > Floor > Room > Fixture.
/// Values are "key=K props..." strings; keys simulate database ids.
fn snapshot(rows: &[(&str, &str)]) -> Tree<String> {
    // rows: (path like "f1/r101/light-a", props)
    let mut t = Tree::new(Label::intern("Building"), String::null());
    let mut by_path: HashMap<String, NodeId> = HashMap::new();
    for (path, props) in rows {
        let mut parent = t.root();
        let mut full = String::new();
        let parts: Vec<&str> = path.split('/').collect();
        for (depth, part) in parts.iter().enumerate() {
            if !full.is_empty() {
                full.push('/');
            }
            full.push_str(part);
            let label = match depth {
                0 => Label::intern("Floor"),
                1 => Label::intern("Room"),
                _ => Label::intern("Fixture"),
            };
            parent = *by_path.entry(full.clone()).or_insert_with(|| {
                let value = if depth == parts.len() - 1 {
                    format!("key={part} {props}")
                } else {
                    format!("key={part}")
                };
                t.push_child(parent, label, value)
            });
        }
    }
    t
}

/// Extracts the `key=...` prefix of a node value.
fn key_of(v: &str) -> Option<&str> {
    v.strip_prefix("key=")
        .map(|rest| rest.split(' ').next().unwrap_or(rest))
}

/// Matches nodes of two snapshots by their keys (same label required).
fn match_by_keys(old: &Tree<String>, new: &Tree<String>) -> Matching {
    let mut by_key: HashMap<(Label, String), NodeId> = HashMap::new();
    for x in old.preorder() {
        if let Some(k) = key_of(old.value(x)) {
            by_key.insert((old.label(x), k.to_string()), x);
        }
    }
    let mut m = Matching::with_capacity(old.arena_len(), new.arena_len());
    m.insert(old.root(), new.root()).expect("roots unmatched");
    for y in new.preorder() {
        if let Some(k) = key_of(new.value(y)) {
            if let Some(&x) = by_key.get(&(new.label(y), k.to_string())) {
                let _ = m.insert(x, y); // ignore duplicate keys, keep first
            }
        }
    }
    m
}

fn main() {
    // The architect's baseline configuration.
    let baseline = snapshot(&[
        ("f1/r101/light-a", "wattage=60 circuit=3"),
        ("f1/r101/outlet-a", "amps=15 circuit=3"),
        ("f1/r102/light-b", "wattage=40 circuit=4"),
        ("f2/r201/light-c", "wattage=60 circuit=7"),
        ("f2/r201/outlet-b", "amps=20 circuit=7"),
    ]);
    // The electrician's current state: light-b rewired (update), outlet-a
    // moved to room 102, light-c removed, a new fixture added.
    let current = snapshot(&[
        ("f1/r101/light-a", "wattage=60 circuit=3"),
        ("f1/r102/light-b", "wattage=40 circuit=9"),
        ("f1/r102/outlet-a", "amps=15 circuit=3"),
        ("f2/r201/outlet-b", "amps=20 circuit=7"),
        ("f2/r201/heater-a", "watts=1500 circuit=8"),
    ]);

    let keyed = match_by_keys(&baseline, &current);
    println!(
        "matched {} of {} baseline objects by key (no content comparisons needed)",
        keyed.len(),
        baseline.len()
    );

    let result = Differ::new()
        .strategy(MatchStrategy::Provided(keyed))
        .diff(&baseline, &current)
        .expect("keyed diff succeeds");

    println!("\n=== configuration delta ===");
    for op in result.script.iter() {
        println!("  {op}");
    }
    println!(
        "\n{} changes: {} inserts, {} deletes, {} updates, {} moves",
        result.script.len(),
        result.script.op_counts().inserts,
        result.script.op_counts().deletes,
        result.script.op_counts().updates,
        result.script.op_counts().moves,
    );

    // The moved outlet is reported as a MOV, not delete+insert — the point
    // of having moves in the operation set.
    assert_eq!(result.script.op_counts().moves, 1);
    // Deleting light-c is a leaf delete; room r201 keeps its other fixtures.
    assert!(result.script.op_counts().deletes >= 1);
    println!("\nmove detected as MOV (not delete+insert) ✓");
}
