//! Sequence diffs on top of the LCS: the classic keep/insert/delete run
//! decomposition (what `diff` prints for lines, we use for words).
//!
//! The paper's *ediff* reference (Section 2) refines line diffs by
//! highlighting intra-line changes; `hierdiff-doc` uses this module the
//! same way, refining *updated sentences* down to the changed words.

use hierdiff_guard::Guard;

use crate::{lcs_myers, LcsStats, Pair};

/// One run of a sequence diff.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqEdit<T> {
    /// Elements common to both sequences.
    Keep(Vec<T>),
    /// Elements present only in the old sequence.
    Delete(Vec<T>),
    /// Elements present only in the new sequence.
    Insert(Vec<T>),
}

impl<T> SeqEdit<T> {
    /// The run's elements.
    pub fn items(&self) -> &[T] {
        match self {
            SeqEdit::Keep(v) | SeqEdit::Delete(v) | SeqEdit::Insert(v) => v,
        }
    }
}

/// Decomposes `(old, new)` into maximal Keep/Delete/Insert runs, in output
/// order (deletions before insertions at each change point).
pub fn sequence_diff<T: Clone + PartialEq>(old: &[T], new: &[T]) -> Vec<SeqEdit<T>> {
    // An unlimited guard never trips; were it to, an empty pair list still
    // decomposes into a valid (delete-all, insert-all) diff.
    let pairs: Vec<Pair> = lcs_myers(
        old,
        new,
        |a, b| a == b,
        &mut LcsStats::default(),
        &Guard::unlimited(),
    )
    .unwrap_or_default();
    let mut out: Vec<SeqEdit<T>> = Vec::new();
    let mut i = 0usize; // cursor into old
    let mut j = 0usize; // cursor into new
    let mut keep_run: Vec<T> = Vec::new();
    let flush_keep = |out: &mut Vec<SeqEdit<T>>, keep_run: &mut Vec<T>| {
        if !keep_run.is_empty() {
            out.push(SeqEdit::Keep(std::mem::take(keep_run)));
        }
    };
    for (pi, pj) in pairs {
        if i < pi || j < pj {
            flush_keep(&mut out, &mut keep_run);
            if i < pi {
                out.push(SeqEdit::Delete(old[i..pi].to_vec()));
            }
            if j < pj {
                out.push(SeqEdit::Insert(new[j..pj].to_vec()));
            }
        }
        keep_run.push(old[pi].clone());
        i = pi + 1;
        j = pj + 1;
    }
    if i < old.len() || j < new.len() {
        flush_keep(&mut out, &mut keep_run);
        if i < old.len() {
            out.push(SeqEdit::Delete(old[i..].to_vec()));
        }
        if j < new.len() {
            out.push(SeqEdit::Insert(new[j..].to_vec()));
        }
    }
    flush_keep(&mut out, &mut keep_run);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn identical_is_one_keep() {
        let a = words("the quick brown fox");
        let d = sequence_diff(&a, &a);
        assert_eq!(d, vec![SeqEdit::Keep(a)]);
    }

    #[test]
    fn disjoint_is_delete_then_insert() {
        let a = words("alpha beta");
        let b = words("gamma delta");
        let d = sequence_diff(&a, &b);
        assert_eq!(d, vec![SeqEdit::Delete(a), SeqEdit::Insert(b)]);
    }

    #[test]
    fn single_substitution() {
        let a = words("the quick brown fox");
        let b = words("the quick red fox");
        let d = sequence_diff(&a, &b);
        assert_eq!(
            d,
            vec![
                SeqEdit::Keep(words("the quick")),
                SeqEdit::Delete(words("brown")),
                SeqEdit::Insert(words("red")),
                SeqEdit::Keep(words("fox")),
            ]
        );
    }

    #[test]
    fn pure_insert_and_delete_at_ends() {
        let a = words("b c");
        let b = words("a b c d");
        let d = sequence_diff(&a, &b);
        assert_eq!(
            d,
            vec![
                SeqEdit::Insert(words("a")),
                SeqEdit::Keep(words("b c")),
                SeqEdit::Insert(words("d")),
            ]
        );
        let d = sequence_diff(&b, &a);
        assert_eq!(
            d,
            vec![
                SeqEdit::Delete(words("a")),
                SeqEdit::Keep(words("b c")),
                SeqEdit::Delete(words("d")),
            ]
        );
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<&str> = Vec::new();
        assert!(sequence_diff(&e, &e).is_empty());
        assert_eq!(
            sequence_diff(&e, &words("x")),
            vec![SeqEdit::Insert(words("x"))]
        );
        assert_eq!(
            sequence_diff(&words("x"), &e),
            vec![SeqEdit::Delete(words("x"))]
        );
    }

    proptest::proptest! {
        /// Reconstructing old (Keep + Delete) and new (Keep + Insert) from
        /// the runs is exact — the round-trip property.
        #[test]
        fn prop_roundtrip(a in proptest::collection::vec(0u8..5, 0..30),
                          b in proptest::collection::vec(0u8..5, 0..30)) {
            let d = sequence_diff(&a, &b);
            let mut old_r = Vec::new();
            let mut new_r = Vec::new();
            for run in &d {
                match run {
                    SeqEdit::Keep(v) => {
                        old_r.extend(v.iter().copied());
                        new_r.extend(v.iter().copied());
                    }
                    SeqEdit::Delete(v) => old_r.extend(v.iter().copied()),
                    SeqEdit::Insert(v) => new_r.extend(v.iter().copied()),
                }
            }
            proptest::prop_assert_eq!(old_r, a);
            proptest::prop_assert_eq!(new_r, b);
        }
    }
}
