//! Brute-force oracle for the Zhang–Shasha implementation: uniform-cost
//! search over the true edit space (relabel / ZS-delete with child
//! promotion / ZS-insert) on tiny trees, compared against the DP distance.
//!
//! The search operates on a value-level tree representation so states can
//! be canonicalized and deduplicated.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hierdiff_tree::{Label, NodeValue, Tree};
use hierdiff_zs::{tree_distance, UnitCost};

/// A plain nested tree: (label-symbol, children).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
struct T(u8, Vec<T>);

impl T {
    fn size(&self) -> usize {
        1 + self.1.iter().map(T::size).sum::<usize>()
    }
}

/// All single-ops applicable to `t` under ZS semantics, with unit cost:
/// * relabel any node to any symbol in `alphabet`;
/// * delete any non-root node, promoting its children in place;
/// * insert a new node anywhere: as parent of a contiguous run of children
///   of some node (the ZS insert, inverse of its delete).
fn neighbors(t: &T, alphabet: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    // Relabels.
    fn relabels(t: &T, alphabet: &[u8], out: &mut Vec<T>) {
        for &a in alphabet {
            if a != t.0 {
                out.push(T(a, t.1.clone()));
            }
        }
        for (i, c) in t.1.iter().enumerate() {
            let mut subs = Vec::new();
            relabels(c, alphabet, &mut subs);
            for s in subs {
                let mut kids = t.1.clone();
                kids[i] = s;
                out.push(T(t.0, kids));
            }
        }
    }
    relabels(t, alphabet, &mut out);

    // Deletes (non-root): replace child i by its children.
    fn deletes(t: &T, out: &mut Vec<T>) {
        for (i, c) in t.1.iter().enumerate() {
            // Delete child i.
            let mut kids = Vec::new();
            kids.extend_from_slice(&t.1[..i]);
            kids.extend(c.1.iter().cloned());
            kids.extend_from_slice(&t.1[i + 1..]);
            out.push(T(t.0, kids));
            // Or recurse into child i.
            let mut subs = Vec::new();
            deletes(c, &mut subs);
            for s in subs {
                let mut kids = t.1.clone();
                kids[i] = s;
                out.push(T(t.0, kids));
            }
        }
    }
    deletes(t, &mut out);

    // Inserts: at every node, wrap any contiguous run of children
    // (possibly empty, at any gap) in a new node with any symbol.
    fn inserts(t: &T, alphabet: &[u8], out: &mut Vec<T>) {
        let n = t.1.len();
        for start in 0..=n {
            for end in start..=n {
                for &a in alphabet {
                    let mut kids = Vec::new();
                    kids.extend_from_slice(&t.1[..start]);
                    kids.push(T(a, t.1[start..end].to_vec()));
                    kids.extend_from_slice(&t.1[end..]);
                    out.push(T(t.0, kids));
                }
            }
        }
        for (i, c) in t.1.iter().enumerate() {
            let mut subs = Vec::new();
            inserts(c, alphabet, &mut subs);
            for s in subs {
                let mut kids = t.1.clone();
                kids[i] = s;
                out.push(T(t.0, kids));
            }
        }
    }
    inserts(t, alphabet, &mut out);

    // Root-level ops: ZS's delete/insert also apply at the root (the DP
    // works over forests). To keep states single-rooted: a new root may
    // wrap the whole tree, and a root with exactly one child may be
    // deleted.
    for &a in alphabet {
        out.push(T(a, vec![t.clone()]));
    }
    if t.1.len() == 1 {
        out.push(t.1[0].clone());
    }

    out.sort();
    out.dedup();
    out
}

/// Uniform-cost search for the cheapest op sequence from `a` to `b`.
/// `None` if no path within `limit` cost (should not happen for sane
/// limits).
fn brute_distance(a: &T, b: &T, alphabet: &[u8], limit: usize) -> Option<usize> {
    let max_size = a.size().max(b.size()) + limit; // prune runaway growth
    let mut dist: HashMap<T, usize> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(usize, T)>> = BinaryHeap::new();
    dist.insert(a.clone(), 0);
    heap.push(Reverse((0, a.clone())));
    while let Some(Reverse((d, t))) = heap.pop() {
        if &t == b {
            return Some(d);
        }
        if d > limit {
            // Everything remaining costs more than the cap.
            return None;
        }
        if dist.get(&t).copied().unwrap_or(usize::MAX) < d {
            continue;
        }
        for n in neighbors(&t, alphabet) {
            if n.size() > max_size {
                continue;
            }
            let nd = d + 1;
            if nd > limit {
                continue;
            }
            if nd < dist.get(&n).copied().unwrap_or(usize::MAX) {
                dist.insert(n.clone(), nd);
                heap.push(Reverse((nd, n)));
            }
        }
    }
    None
}

/// Converts the plain representation into the workspace tree type (label =
/// symbol, all values null).
fn to_tree(t: &T) -> Tree<String> {
    fn label(sym: u8) -> Label {
        Label::intern(&format!("zsbf{sym}"))
    }
    fn add(tree: &mut Tree<String>, parent: hierdiff_tree::NodeId, t: &T) {
        let id = tree.push_child(parent, label(t.0), String::null());
        for c in &t.1 {
            add(tree, id, c);
        }
    }
    let mut tree = Tree::new(label(t.0), String::null());
    let root = tree.root();
    for c in &t.1 {
        add(&mut tree, root, c);
    }
    tree
}

/// Enumerates all trees with exactly `n` nodes over `alphabet`.
fn all_trees(n: usize, alphabet: &[u8]) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return alphabet.iter().map(|&a| T(a, Vec::new())).collect();
    }
    // Root + a forest of n-1 nodes.
    let mut out = Vec::new();
    for &a in alphabet {
        for forest in all_forests(n - 1, alphabet) {
            out.push(T(a, forest));
        }
    }
    out
}

fn all_forests(n: usize, alphabet: &[u8]) -> Vec<Vec<T>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    // First tree takes k nodes, rest is a forest of n-k.
    for k in 1..=n {
        for first in all_trees(k, alphabet) {
            for rest in all_forests(n - k, alphabet) {
                let mut f = vec![first.clone()];
                f.extend(rest);
                out.push(f);
            }
        }
    }
    out
}

#[test]
fn zs_matches_brute_force_on_all_tiny_pairs() {
    // All trees with ≤ 3 nodes over a 2-symbol alphabet; every ordered
    // pair (a few hundred Dijkstra runs over the true edit space).
    let alphabet = [0u8, 1];
    let mut trees = Vec::new();
    for n in 1..=3 {
        trees.extend(all_trees(n, &alphabet));
    }
    assert!(trees.len() >= 10, "enumeration produced {}", trees.len());
    // Debug builds sample every other tree on each side (the full cross
    // product is exhaustive in release / CI).
    let stride = if cfg!(debug_assertions) { 2 } else { 1 };
    let mut checked = 0;
    for a in trees.iter().step_by(stride) {
        for b in trees.iter().step_by(stride) {
            let (ta, tb) = (to_tree(a), to_tree(b));
            let zs = tree_distance(&ta, ta.root(), &tb, tb.root(), &UnitCost) as usize;
            if zs > 4 {
                // Uniform-cost search is exponential in the distance; the
                // far-apart tiny pairs are all degenerate
                // relabel-everything cases, so cap the oracle's effort.
                continue;
            }
            // Search the true edit space up to cost `zs`: finding a cheaper
            // path means ZS is suboptimal; finding none at all means ZS
            // reported an unachievable (too low) distance.
            let bf = brute_distance(a, b, &alphabet, zs)
                .unwrap_or_else(|| panic!("ZS distance {zs} unachievable for {a:?} -> {b:?}"));
            assert_eq!(bf, zs, "ZS missed the optimum for {a:?} -> {b:?}");
            checked += 1;
        }
    }
    assert!(checked >= 25, "only {checked} pairs checked");
}

#[test]
fn zs_matches_brute_force_on_selected_4_node_pairs() {
    // A sample of 4-node pairs (the full cross product would be slow).
    let alphabet = [0u8, 1];
    let four: Vec<T> = all_trees(4, &alphabet);
    let step = if cfg!(debug_assertions) {
        (four.len() / 3).max(1)
    } else {
        (four.len() / 5).max(1)
    };
    let sample: Vec<&T> = four.iter().step_by(step).collect();
    for (i, a) in sample.iter().enumerate() {
        for b in sample.iter().skip(i) {
            let (ta, tb) = (to_tree(a), to_tree(b));
            let zs = tree_distance(&ta, ta.root(), &tb, tb.root(), &UnitCost) as usize;
            if zs > 3 {
                continue; // see the cap note in the tiny-pairs test
            }
            let bf = brute_distance(a, b, &alphabet, zs)
                .unwrap_or_else(|| panic!("ZS distance {zs} unachievable for {a:?} -> {b:?}"));
            assert_eq!(bf, zs, "ZS missed the optimum for {a:?} -> {b:?}");
        }
    }
}
