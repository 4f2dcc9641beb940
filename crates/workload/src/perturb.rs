//! Seeded random edit perturbation: derives a "new version" from a document
//! by applying a configurable mix of sentence-, paragraph-, and
//! section-level edits — the generator behind the version chains of the
//! Section 8 experiments.

use hierdiff_doc::{labels, words, DocValue};
use hierdiff_tree::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::docgen::{random_sentence, DocProfile};

/// Relative weights of the edit kinds applied by [`perturb`].
#[derive(Clone, Copy, Debug)]
pub struct EditMix {
    /// Insert a fresh sentence.
    pub sentence_insert: u32,
    /// Delete a sentence.
    pub sentence_delete: u32,
    /// Rewrite a few words of a sentence (an *update*).
    pub sentence_update: u32,
    /// Move a sentence (within or across paragraphs).
    pub sentence_move: u32,
    /// Shuffle a sentence to a different position *within its own
    /// paragraph* — an intra-parent move, the misaligned-node generator for
    /// the EditScript O(ND) experiment (Theorem C.2's `D`).
    pub sentence_shuffle: u32,
    /// Insert a fresh paragraph.
    pub paragraph_insert: u32,
    /// Delete a whole paragraph.
    pub paragraph_delete: u32,
    /// Move a paragraph (within or across sections).
    pub paragraph_move: u32,
    /// Move a whole section.
    pub section_move: u32,
}

impl Default for EditMix {
    /// A document-editing mix: mostly sentence-level churn, occasional
    /// paragraph restructuring, rare section moves — the revision pattern
    /// of the paper's conference-paper corpus.
    fn default() -> EditMix {
        EditMix {
            sentence_insert: 25,
            sentence_delete: 20,
            sentence_update: 30,
            sentence_move: 8,
            sentence_shuffle: 2,
            paragraph_insert: 5,
            paragraph_delete: 4,
            paragraph_move: 5,
            section_move: 1,
        }
    }
}

impl EditMix {
    /// A *revision* mix modeling how conference papers are actually
    /// reworked between versions: sentence churn plus substantial block
    /// restructuring (paragraph and section moves). Calibrated so the
    /// weighted/unweighted distance ratio `e/d` of detected scripts lands
    /// in the band the paper reports for its corpus (≈ 3.4, Section 8) —
    /// subtree moves are what push `e` above `d`, since a move counts once
    /// in `d` but `|x|` (its leaves) in `e`.
    pub fn revision() -> EditMix {
        EditMix {
            sentence_insert: 10,
            sentence_delete: 8,
            sentence_update: 12,
            sentence_move: 6,
            sentence_shuffle: 2,
            paragraph_insert: 3,
            paragraph_delete: 2,
            paragraph_move: 30,
            section_move: 12,
        }
    }

    /// A mix with only sentence-level updates (minimal structural change).
    pub fn updates_only() -> EditMix {
        EditMix {
            sentence_insert: 0,
            sentence_delete: 0,
            sentence_update: 1,
            sentence_move: 0,
            sentence_shuffle: 0,
            paragraph_insert: 0,
            paragraph_delete: 0,
            paragraph_move: 0,
            section_move: 0,
        }
    }

    /// A move-heavy mix (stresses the align/move phases; drives the
    /// EditScript-scaling experiment E6).
    pub fn moves_only() -> EditMix {
        EditMix {
            sentence_insert: 0,
            sentence_delete: 0,
            sentence_update: 0,
            sentence_move: 3,
            sentence_shuffle: 0,
            paragraph_insert: 0,
            paragraph_delete: 0,
            paragraph_move: 1,
            section_move: 0,
        }
    }

    /// A mix of only intra-parent sentence shuffles: every edit is a
    /// misaligned node, maximizing the `D` of Theorem C.2.
    pub fn shuffles_only() -> EditMix {
        EditMix {
            sentence_insert: 0,
            sentence_delete: 0,
            sentence_update: 0,
            sentence_move: 0,
            sentence_shuffle: 1,
            paragraph_insert: 0,
            paragraph_delete: 0,
            paragraph_move: 0,
            section_move: 0,
        }
    }

    fn total(&self) -> u32 {
        self.sentence_insert
            + self.sentence_delete
            + self.sentence_update
            + self.sentence_move
            + self.sentence_shuffle
            + self.paragraph_insert
            + self.paragraph_delete
            + self.paragraph_move
            + self.section_move
    }
}

/// What [`perturb`] actually applied (the ground truth the detector should
/// approximately recover).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerturbReport {
    /// Sentences inserted.
    pub sentence_inserts: usize,
    /// Sentences deleted.
    pub sentence_deletes: usize,
    /// Sentences updated.
    pub sentence_updates: usize,
    /// Sentences moved.
    pub sentence_moves: usize,
    /// Sentences shuffled within their paragraph.
    pub sentence_shuffles: usize,
    /// Paragraphs inserted (with their sentences).
    pub paragraph_inserts: usize,
    /// Paragraphs deleted (with their sentences).
    pub paragraph_deletes: usize,
    /// Paragraphs moved.
    pub paragraph_moves: usize,
    /// Sections moved.
    pub section_moves: usize,
}

impl PerturbReport {
    /// Total applied edit count (the intended unweighted distance scale).
    pub fn total(&self) -> usize {
        self.sentence_inserts
            + self.sentence_deletes
            + self.sentence_updates
            + self.sentence_moves
            + self.sentence_shuffles
            + self.paragraph_inserts
            + self.paragraph_deletes
            + self.paragraph_moves
            + self.section_moves
    }
}

/// The ground-truth correspondence between a tree and a version produced
/// from it by [`perturb`]: because perturbation operates on a clone,
/// surviving nodes keep their ids, so the true matching is the identity on
/// ids alive in both trees (updated and moved nodes included; deleted and
/// freshly inserted nodes excluded). This is the oracle for matcher
/// precision/recall experiments.
pub fn ground_truth_matching(
    original: &Tree<DocValue>,
    perturbed: &Tree<DocValue>,
) -> hierdiff_edit::Matching {
    let mut m = hierdiff_edit::Matching::with_capacity(original.arena_len(), perturbed.arena_len());
    for id in original.preorder() {
        if perturbed.is_alive(id) {
            debug_assert_eq!(original.label(id), perturbed.label(id));
            assert!(m.insert(id, id).is_ok(), "identity matching is one-to-one");
        }
    }
    m
}

/// Applies `edits` random edits (drawn from `mix`) to a clone of `tree`,
/// deterministically from `seed`. Returns the new version and a report of
/// what was applied.
pub fn perturb(
    tree: &Tree<DocValue>,
    seed: u64,
    edits: usize,
    mix: &EditMix,
    profile: &DocProfile,
) -> (Tree<DocValue>, PerturbReport) {
    assert!(mix.total() > 0, "edit mix must have positive weight");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = tree.clone();
    let mut report = PerturbReport::default();
    let mut applied = 0usize;
    let mut attempts = 0usize;
    while applied < edits && attempts < edits * 20 + 100 {
        attempts += 1;
        if apply_one(&mut t, &mut rng, mix, profile, &mut report) {
            applied += 1;
        }
    }
    debug_assert!(t.validate().is_ok());
    (t, report)
}

fn nodes_with_label(t: &Tree<DocValue>, label: hierdiff_tree::Label) -> Vec<NodeId> {
    t.preorder().filter(|&n| t.label(n) == label).collect()
}

fn pick(rng: &mut StdRng, v: &[NodeId]) -> Option<NodeId> {
    if v.is_empty() {
        None
    } else {
        Some(v[rng.gen_range(0..v.len())])
    }
}

fn apply_one(
    t: &mut Tree<DocValue>,
    rng: &mut StdRng,
    mix: &EditMix,
    profile: &DocProfile,
    report: &mut PerturbReport,
) -> bool {
    let roll = rng.gen_range(0..mix.total());
    let mut acc = 0u32;
    let mut hit = |w: u32| {
        acc += w;
        roll < acc
    };

    if hit(mix.sentence_insert) {
        let paras = nodes_with_label(t, labels::paragraph());
        let Some(p) = pick(rng, &paras) else {
            return false;
        };
        let pos = rng.gen_range(0..=t.arity(p));
        let text = random_sentence(rng, profile);
        if t.insert(p, pos, labels::sentence(), DocValue::text(text))
            .is_err()
        {
            return false;
        }
        report.sentence_inserts += 1;
        return true;
    }
    if hit(mix.sentence_delete) {
        let sents = nodes_with_label(t, labels::sentence());
        let Some(s) = pick(rng, &sents) else {
            return false;
        };
        if t.delete_leaf(s).is_err() {
            return false;
        }
        report.sentence_deletes += 1;
        return true;
    }
    if hit(mix.sentence_update) {
        let sents = nodes_with_label(t, labels::sentence());
        let Some(s) = pick(rng, &sents) else {
            return false;
        };
        let old = t.value(s).as_text().unwrap_or("").to_string();
        let updated = rewrite_words(&old, rng, profile);
        if updated == old {
            return false;
        }
        if t.update(s, DocValue::text(updated)).is_err() {
            return false;
        }
        report.sentence_updates += 1;
        return true;
    }
    if hit(mix.sentence_move) {
        let sents = nodes_with_label(t, labels::sentence());
        let paras = nodes_with_label(t, labels::paragraph());
        let Some(s) = pick(rng, &sents) else {
            return false;
        };
        let Some(p) = pick(rng, &paras) else {
            return false;
        };
        let arity = t.arity(p) - usize::from(t.parent(s) == Some(p));
        let pos = rng.gen_range(0..=arity);
        if t.parent(s) == Some(p) && t.position(s) == Some(pos) {
            return false; // no-op move
        }
        if t.move_subtree(s, p, pos).is_err() {
            return false;
        }
        report.sentence_moves += 1;
        return true;
    }
    if hit(mix.sentence_shuffle) {
        // Intra-parent shuffle: pick a paragraph with ≥ 2 sentences and
        // move one of them to a different slot under the same parent.
        let paras: Vec<NodeId> = nodes_with_label(t, labels::paragraph())
            .into_iter()
            .filter(|&p| t.arity(p) >= 2)
            .collect();
        let Some(p) = pick(rng, &paras) else {
            return false;
        };
        let kids: Vec<NodeId> = t.children(p).to_vec();
        let s = kids[rng.gen_range(0..kids.len())];
        let Some(old_pos) = t.position(s) else {
            return false;
        };
        // `move_subtree` measures the position after detaching `s`, which
        // equals the final index of `s` among its siblings; a move back to
        // `old_pos` is a no-op, so draw the final index from the other
        // slots.
        let target = {
            let r = rng.gen_range(0..kids.len() - 1);
            if r >= old_pos {
                r + 1
            } else {
                r
            }
        };
        if t.move_subtree(s, p, target).is_err() {
            return false;
        }
        report.sentence_shuffles += 1;
        return true;
    }
    if hit(mix.paragraph_insert) {
        let secs = nodes_with_label(t, labels::section());
        let parent = pick(rng, &secs).unwrap_or(t.root());
        let pos = rng.gen_range(0..=t.arity(parent));
        let Ok(p) = t.insert(parent, pos, labels::paragraph(), DocValue::None) else {
            return false;
        };
        let (lo, hi) = profile.sentences_per_paragraph;
        for _ in 0..rng.gen_range(lo..=hi) {
            let text = random_sentence(rng, profile);
            t.push_child(p, labels::sentence(), DocValue::text(text));
        }
        report.paragraph_inserts += 1;
        return true;
    }
    if hit(mix.paragraph_delete) {
        let paras = nodes_with_label(t, labels::paragraph());
        if paras.len() <= 1 {
            return false; // keep at least one paragraph
        }
        let Some(p) = pick(rng, &paras) else {
            return false;
        };
        if t.delete_subtree(p).is_err() {
            return false;
        }
        report.paragraph_deletes += 1;
        return true;
    }
    if hit(mix.paragraph_move) {
        let paras = nodes_with_label(t, labels::paragraph());
        let secs = nodes_with_label(t, labels::section());
        let Some(p) = pick(rng, &paras) else {
            return false;
        };
        let target = pick(rng, &secs).unwrap_or(t.root());
        let arity = t.arity(target) - usize::from(t.parent(p) == Some(target));
        let pos = rng.gen_range(0..=arity);
        if t.parent(p) == Some(target) && t.position(p) == Some(pos) {
            return false;
        }
        if t.move_subtree(p, target, pos).is_err() {
            return false;
        }
        report.paragraph_moves += 1;
        return true;
    }
    // Section move.
    {
        let secs = nodes_with_label(t, labels::section());
        if secs.len() < 2 {
            return false;
        }
        let s = secs[rng.gen_range(0..secs.len())];
        let root = t.root();
        let arity = t.arity(root) - 1;
        let pos = rng.gen_range(0..=arity);
        if t.position(s) == Some(pos) {
            return false;
        }
        if t.move_subtree(s, root, pos).is_err() {
            return false;
        }
        report.section_moves += 1;
        true
    }
}

/// Replaces roughly a quarter of the words of `sentence` with fresh
/// vocabulary — an update that stays well under the `compare < 1` bar, so
/// the matcher treats it as the same sentence, updated.
fn rewrite_words(sentence: &str, rng: &mut StdRng, profile: &DocProfile) -> String {
    let toks: Vec<String> = words(sentence).iter().map(|w| w.to_string()).collect();
    if toks.is_empty() {
        return sentence.to_string();
    }
    let replacements = (toks.len() / 4).max(1);
    let mut out = toks;
    for _ in 0..replacements {
        let i = rng.gen_range(0..out.len());
        out[i] = format!("w{}", rng.gen_range(0..profile.vocabulary));
    }
    let mut s = out.join(" ");
    s.push('.');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::generate_document;
    use hierdiff_matching::{fast_match, MatchParams};

    fn base() -> Tree<DocValue> {
        generate_document(100, &DocProfile::default())
    }

    #[test]
    fn deterministic() {
        let t = base();
        let (a, ra) = perturb(&t, 7, 10, &EditMix::default(), &DocProfile::default());
        let (b, rb) = perturb(&t, 7, 10, &EditMix::default(), &DocProfile::default());
        assert!(hierdiff_tree::isomorphic(&a, &b));
        assert_eq!(ra, rb);
    }

    #[test]
    fn applies_requested_edit_count() {
        let t = base();
        let (t2, report) = perturb(&t, 3, 25, &EditMix::default(), &DocProfile::default());
        assert_eq!(report.total(), 25);
        t2.validate().unwrap();
        assert!(!hierdiff_tree::isomorphic(&t, &t2));
    }

    #[test]
    fn zero_edits_is_identity() {
        let t = base();
        let (t2, report) = perturb(&t, 3, 0, &EditMix::default(), &DocProfile::default());
        assert_eq!(report.total(), 0);
        assert!(hierdiff_tree::isomorphic(&t, &t2));
    }

    #[test]
    fn updates_only_mix_preserves_structure() {
        let t = base();
        let (t2, report) = perturb(&t, 5, 12, &EditMix::updates_only(), &DocProfile::default());
        assert_eq!(report.sentence_updates, 12);
        assert_eq!(t.len(), t2.len());
        // Same shape: labels in preorder agree.
        let l1: Vec<_> = t.preorder().map(|n| t.label(n)).collect();
        let l2: Vec<_> = t2.preorder().map(|n| t2.label(n)).collect();
        assert_eq!(l1, l2);
    }

    #[test]
    fn updated_sentences_stay_matchable() {
        // The rewrite keeps ~3/4 of the words, so compare < 1 ≤ f is not
        // guaranteed for default f = 0.5, but the match rate should remain
        // high: the detector finds most updates as updates, not
        // delete+insert pairs.
        let t = base();
        let (t2, _) = perturb(&t, 5, 15, &EditMix::updates_only(), &DocProfile::default());
        let m = fast_match(&t, &t2, MatchParams::default()).unwrap();
        // At least 90% of nodes should match.
        assert!(
            m.matching.len() * 10 >= t.len() * 9,
            "only {} of {} matched",
            m.matching.len(),
            t.len()
        );
    }

    #[test]
    fn moves_only_mix_preserves_node_count() {
        let t = base();
        let (t2, report) = perturb(&t, 9, 8, &EditMix::moves_only(), &DocProfile::default());
        assert_eq!(report.sentence_moves + report.paragraph_moves, 8);
        assert_eq!(t.len(), t2.len());
    }

    #[test]
    fn ground_truth_is_identity_on_survivors() {
        let t = base();
        let (t2, _) = perturb(&t, 31, 10, &EditMix::default(), &DocProfile::default());
        let gt = crate::perturb::ground_truth_matching(&t, &t2);
        assert!(gt.len() > t.len() / 2, "most nodes survive 10 edits");
        for (x, y) in gt.iter() {
            assert_eq!(x, y);
            assert!(t.is_alive(x) && t2.is_alive(y));
        }
        // The ground truth drives the edit-script generator directly.
        let res = hierdiff_edit::edit_script(&t, &t2, &gt).unwrap();
        hierdiff_edit::verify_result(&t, &t2, &gt, &res).unwrap();
    }

    #[test]
    fn detector_recovers_edit_scale() {
        // The detected unweighted distance should be within a small factor
        // of the applied edit count (moves of paragraphs count once but
        // delete+insert pairs of unmatched content can inflate it).
        let t = base();
        let applied = 12;
        let (t2, _) = perturb(&t, 21, applied, &EditMix::default(), &DocProfile::default());
        let m = fast_match(&t, &t2, MatchParams::default()).unwrap();
        let res = hierdiff_edit::edit_script(&t, &t2, &m.matching).unwrap();
        let d = res.stats.unweighted_distance();
        assert!(d >= applied / 3, "d = {d} too small for {applied} edits");
        assert!(d <= applied * 12, "d = {d} too large for {applied} edits");
    }
}
