//! Hirschberg's linear-space LCS: divide-and-conquer over the DP recurrence.
//!
//! O(|a|·|b|) time like the quadratic DP but only O(min(|a|,|b|)) working
//! space, making it the safe choice for very long, very dissimilar sequences
//! where Myers' O(D²) trace would blow up.

use crate::Pair;

/// LCS via Hirschberg's algorithm. See [`crate::lcs_myers`] for the contract.
pub fn lcs_hirschberg<T, U>(a: &[T], b: &[U], mut equal: impl FnMut(&T, &U) -> bool) -> Vec<Pair> {
    let mut pairs = Vec::new();
    solve(a, b, 0, 0, &mut equal, &mut pairs);
    pairs
}

/// Last row of the LCS-length DP for `a` vs `b` (forward direction).
fn last_row<T, U>(a: &[T], b: &[U], equal: &mut impl FnMut(&T, &U) -> bool) -> Vec<u32> {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            cur[j + 1] = if equal(x, y) {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

/// Like [`last_row`] but for the reversed sequences.
fn last_row_rev<T, U>(a: &[T], b: &[U], equal: &mut impl FnMut(&T, &U) -> bool) -> Vec<u32> {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for x in a.iter().rev() {
        for (j, y) in b.iter().rev().enumerate() {
            cur[j + 1] = if equal(x, y) {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

fn solve<T, U>(
    a: &[T],
    b: &[U],
    a_off: usize,
    b_off: usize,
    equal: &mut impl FnMut(&T, &U) -> bool,
    out: &mut Vec<Pair>,
) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a.len() == 1 {
        // Find the first element of b equal to a[0], if any.
        if let Some(j) = b.iter().position(|y| equal(&a[0], y)) {
            out.push((a_off, b_off + j));
        }
        return;
    }
    let mid = a.len() / 2;
    let (a1, a2) = a.split_at(mid);
    let fwd = last_row(a1, b, equal);
    let rev = last_row_rev(a2, b, equal);
    // Split b at the j maximizing fwd[j] + rev[m - j] (ties keep the
    // rightmost j, matching `Iterator::max_by_key` semantics).
    let m = b.len();
    let mut split = 0;
    let mut best = fwd[0] + rev[m];
    for j in 1..=m {
        let score = fwd[j] + rev[m - j];
        if score >= best {
            best = score;
            split = j;
        }
    }
    let (b1, b2) = b.split_at(split);
    solve(a1, b1, a_off, b_off, equal, out);
    solve(a2, b2, a_off + mid, b_off + split, equal, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_common_subsequence, lcs_dp};

    fn eq(a: &u8, b: &u8) -> bool {
        a == b
    }

    #[test]
    fn empty_and_singleton() {
        let e: [u8; 0] = [];
        assert!(lcs_hirschberg(&e, &e, eq).is_empty());
        assert_eq!(lcs_hirschberg(&[1], &[1], eq), vec![(0, 0)]);
        assert!(lcs_hirschberg(&[1], &[2], eq).is_empty());
    }

    #[test]
    fn matches_dp_on_classics() {
        for (a, b) in [
            (&b"ABCBDAB"[..], &b"BDCABA"[..]),
            (&b"kitten"[..], &b"sitting"[..]),
            (&b"XMJYAUZ"[..], &b"MZJAWXU"[..]),
        ] {
            let h = lcs_hirschberg(a, b, eq);
            let d = lcs_dp(a, b, eq);
            assert!(is_common_subsequence(&h, a, b, eq));
            assert_eq!(h.len(), d.len());
        }
    }

    #[test]
    fn long_sequences_linear_space_smoke() {
        let a: Vec<u8> = (0..2000u32).map(|i| (i % 7) as u8).collect();
        let b: Vec<u8> = (0..2000u32).map(|i| (i % 5) as u8).collect();
        let h = lcs_hirschberg(&a, &b, eq);
        let d = lcs_dp(&a, &b, eq);
        assert!(is_common_subsequence(&h, &a, &b, eq));
        assert_eq!(h.len(), d.len());
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_dp(a in proptest::collection::vec(0u8..4, 0..36),
                           b in proptest::collection::vec(0u8..4, 0..36)) {
            let h = lcs_hirschberg(&a, &b, eq);
            let d = lcs_dp(&a, &b, eq);
            proptest::prop_assert!(is_common_subsequence(&h, &a, &b, eq));
            proptest::prop_assert_eq!(h.len(), d.len());
        }
    }
}
