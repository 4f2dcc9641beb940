//! Classic quadratic dynamic-programming LCS (Wagner–Fischer style).
//!
//! O(|a|·|b|) time and space. Serves as the reference oracle for the other
//! implementations (and for `hierdiff-doc`'s bit-parallel sentence kernel)
//! and as the baseline of the `lcs_dp` rows of the `experiments -- kernels`
//! report.

use crate::Pair;

/// LCS by dynamic programming. See [`crate::lcs_myers`] for the contract.
pub fn lcs_dp<T, U>(a: &[T], b: &[U], mut equal: impl FnMut(&T, &U) -> bool) -> Vec<Pair> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    // table[i][j] = |LCS(a[..i], b[..j])|, flattened row-major.
    let width = m + 1;
    let mut table = vec![0u32; (n + 1) * width];
    for i in 1..=n {
        for j in 1..=m {
            table[i * width + j] = if equal(&a[i - 1], &b[j - 1]) {
                table[(i - 1) * width + (j - 1)] + 1
            } else {
                table[(i - 1) * width + j].max(table[i * width + (j - 1)])
            };
        }
    }
    // Backtrack from (n, m).
    let mut pairs = Vec::with_capacity(table[n * width + m] as usize);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        let here = table[i * width + j];
        if table[(i - 1) * width + j] == here {
            i -= 1;
        } else if table[i * width + (j - 1)] == here {
            j -= 1;
        } else {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        }
    }
    pairs.reverse();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_common_subsequence;

    fn eq(a: &char, b: &char) -> bool {
        a == b
    }

    #[test]
    fn empty_sequences() {
        let e: [char; 0] = [];
        let a = ['x'];
        assert!(lcs_dp(&e, &e, eq).is_empty());
        assert!(lcs_dp(&a, &e, eq).is_empty());
        assert!(lcs_dp(&e, &a, eq).is_empty());
    }

    #[test]
    fn identical_sequences() {
        let a: Vec<char> = "abcdef".chars().collect();
        let pairs = lcs_dp(&a, &a, eq);
        assert_eq!(pairs, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_sequences() {
        let a: Vec<char> = "abc".chars().collect();
        let b: Vec<char> = "xyz".chars().collect();
        assert!(lcs_dp(&a, &b, eq).is_empty());
    }

    #[test]
    fn textbook_example() {
        let a: Vec<char> = "ABCBDAB".chars().collect();
        let b: Vec<char> = "BDCABA".chars().collect();
        let pairs = lcs_dp(&a, &b, eq);
        assert_eq!(pairs.len(), 4);
        assert!(is_common_subsequence(&pairs, &a, &b, eq));
    }

    #[test]
    fn duplicates_handled() {
        let a: Vec<char> = "aaaa".chars().collect();
        let b: Vec<char> = "aa".chars().collect();
        let pairs = lcs_dp(&a, &b, eq);
        assert_eq!(pairs.len(), 2);
        assert!(is_common_subsequence(&pairs, &a, &b, eq));
    }

    #[test]
    fn permuted_sequences() {
        let a = ["a", "b", "c", "d", "e", "f"];
        let b = ["c", "d", "a", "e", "f", "b"];
        // Longest common subsequence is c, d, e, f.
        let pairs = lcs_dp(&a, &b, |x, y| x == y);
        assert_eq!(pairs, vec![(2, 0), (3, 1), (4, 3), (5, 4)]);
        assert!(is_common_subsequence(&pairs, &a, &b, |x, y| x == y));
    }

    #[test]
    fn custom_equality_function() {
        // Equality on absolute value: the predicate, not `==`, decides.
        let a = [-1, 2, -3];
        let b = [1, 3];
        let pairs = lcs_dp(&a, &b, |x: &i32, y: &i32| x.abs() == y.abs());
        assert_eq!(pairs, vec![(0, 0), (2, 1)]);
    }
}
