//! The document node value and the sentence `compare` function.
//!
//! Section 7: "Our comparison function for leaf nodes — which are
//! sentences — first computes the LCS of the words in the sentences, then
//! counts the number of words not in the LCS." Normalized into the
//! `[0, 2]` range required by the cost model (Section 3.2):
//!
//! ```text
//! compare(s1, s2) = (|w1| + |w2| − 2·|LCS(w1, w2)|) / max(|w1|, |w2|)
//! ```
//!
//! Identical sentences score 0; completely disjoint equal-length sentences
//! score 2; and the cost-model consistency rule holds — an update is cheaper
//! than delete + insert exactly when more than half the words survive.
//!
//! # The compare kernel
//!
//! FastMatch's running time is `r1·c + r2` (Section 8), and `c` — one
//! sentence compare — dominates it on documents. The compare is therefore
//! split in two, following [`NodeValue`]'s prepared-form contract:
//!
//! * **Prepare** (`DocValue::prepare`, yielding [`WordTokens`]): one pass over the text records each
//!   word's byte span and a 64-bit hash of its ASCII-folded bytes.
//! * **Count** (`DocValue::compare_prepared`): `|LCS(w1, w2)|` by the bit-vector
//!   LCS-length algorithm (Allison & Dix 1986; Crochemore et al., IPL 2001;
//!   Hyyrö 2004). The shorter sentence's words are bit positions; each word
//!   of the longer sentence updates the bit vector `V` with
//!   `V' = (V + (V & M)) | (V & !M)`, where `M` marks the positions holding
//!   that word. `|LCS|` is the number of zero bits left in `V`. Sentences
//!   over 64 words use several 64-bit blocks with the addition's carry
//!   rippling between them.
//!
//! **Hash-then-verify is exact.** A bit of `M` is set only when the hashes
//! agree *and* `eq_ignore_ascii_case` confirms the two words. Words equal
//! under `eq_ignore_ascii_case` have identical folded bytes and so identical
//! hashes, so no true match is missed; a colliding hash fails the byte
//! check, so no false match is made. The match matrix is the one
//! `lcs_dp(words(a), words(b), eq_ignore_ascii_case)` sees, and the LCS
//! length — hence the distance — is the same bit for bit (the tests check
//! this against that reference).
//!
//! **The per-run cache.** [`word_distance`] and `DocValue::compare` scan
//! both sentences on every call. Matchers instead go through
//! `MatchCtx::equal_leaves` (crate `hierdiff-matching`), which prepares
//! each leaf the first time it is compared and keeps the tokens for the
//! rest of the matching run, so a sentence is scanned once per run rather
//! than once per compare. Tokens are never stored in the tree: resident
//! trees (the serving tier) would pay their memory for nothing.

use hierdiff_tree::NodeValue;
use serde::{Deserialize, Serialize};

/// Value carried by document tree nodes: sentence text on `Sentence` leaves,
/// heading text on `Section`/`Subsection` nodes, nothing elsewhere.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DocValue {
    /// No value (interior structural nodes).
    #[default]
    None,
    /// Text content (sentence or heading).
    Text(String),
}

impl DocValue {
    /// Builds a text value.
    pub fn text(s: impl Into<String>) -> DocValue {
        DocValue::Text(s.into())
    }

    /// The text content, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            DocValue::None => None,
            DocValue::Text(s) => Some(s),
        }
    }
}

impl NodeValue for DocValue {
    type Prepared = WordTokens;

    fn null() -> Self {
        DocValue::None
    }

    fn compare(&self, other: &Self) -> f64 {
        match (self, other) {
            (DocValue::None, DocValue::None) => 0.0,
            (DocValue::Text(a), DocValue::Text(b)) => word_distance(a, b),
            _ => 2.0,
        }
    }

    fn prepare(&self) -> WordTokens {
        WordTokens::scan(self.as_text().unwrap_or_default())
    }

    fn compare_prepared(&self, wa: &WordTokens, other: &Self, wb: &WordTokens) -> f64 {
        match (self, other) {
            (DocValue::None, DocValue::None) => 0.0,
            (DocValue::Text(a), DocValue::Text(b)) => sentence_distance(a, wa, b, wb),
            _ => 2.0,
        }
    }
}

/// The prepared form of a [`DocValue`]: per word of its text, the word's
/// byte span and a hash of its ASCII-folded bytes. Only meaningful next to
/// the value it was prepared from.
#[derive(Debug, Default)]
pub struct WordTokens {
    hashes: Vec<u64>,
    spans: Vec<(usize, usize)>,
}

impl WordTokens {
    /// Tokenizes `text` (the words [`words`] returns).
    fn scan(text: &str) -> WordTokens {
        let mut tokens = WordTokens::default();
        scan_words(text, |start, word| {
            tokens.hashes.push(fold_hash(word));
            tokens.spans.push((start, start + word.len()));
        });
        tokens
    }

    /// Number of words.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the text has no words.
    fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }
}

/// The one word scanner: calls `emit(byte_offset, word)` for each maximal
/// run of alphanumeric characters and apostrophes in `text`, in order
/// (apostrophes kept inside words so contractions survive).
fn scan_words<'t>(text: &'t str, mut emit: impl FnMut(usize, &'t str)) {
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        if c.is_alphanumeric() || c == '\'' {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            emit(s, text.get(s..i).unwrap_or_default());
        }
    }
    if let Some(s) = start {
        emit(s, text.get(s..).unwrap_or_default());
    }
}

/// FNV-1a over the ASCII-lowercased bytes of `word`: words equal under
/// `eq_ignore_ascii_case` hash equal.
fn fold_hash(word: &str) -> u64 {
    word.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Splits `text` into word tokens: maximal alphanumeric runs (apostrophes
/// kept inside words so contractions survive).
pub fn words(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    scan_words(text, |_, w| out.push(w));
    out
}

/// The paper's sentence distance in `[0, 2]` (see module docs). Word
/// equality is ASCII-case-insensitive. Two sentences with no words at all
/// (pure punctuation) compare equal iff their raw text is equal.
pub fn word_distance(a: &str, b: &str) -> f64 {
    if a == b {
        return 0.0;
    }
    sentence_distance(a, &WordTokens::scan(a), b, &WordTokens::scan(b))
}

/// [`word_distance`] from prepared tokens: `wa` must be
/// `WordTokens::scan(a)` and `wb` `WordTokens::scan(b)`.
fn sentence_distance(a: &str, wa: &WordTokens, b: &str, wb: &WordTokens) -> f64 {
    if a == b {
        return 0.0;
    }
    if wa.is_empty() && wb.is_empty() {
        return 2.0; // different punctuation-only strings
    }
    let common = lcs_len(a, wa, b, wb);
    let max = wa.len().max(wb.len()) as f64;
    (wa.len() + wb.len() - 2 * common) as f64 / max
}

/// `|LCS|` of two token sequences under ASCII-case-insensitive word
/// equality, by the bit-vector algorithm (see module docs).
fn lcs_len(a: &str, wa: &WordTokens, b: &str, wb: &WordTokens) -> usize {
    // The shorter side's words are the bit positions.
    let ((p_text, p), (t_text, t)) = if wa.len() <= wb.len() {
        ((a, wa), (b, wb))
    } else {
        ((b, wb), (a, wa))
    };
    let m = p.len();
    if m == 0 {
        return 0;
    }
    let mut single = [!0u64; 1];
    let mut multi: Vec<u64>;
    let v: &mut [u64] = if m <= 64 {
        &mut single
    } else {
        multi = vec![!0u64; m.div_ceil(64)];
        &mut multi
    };
    for (&h, &(ts, te)) in t.hashes.iter().zip(&t.spans) {
        let word = t_text.get(ts..te).unwrap_or_default();
        let mut carry = 0u64;
        for ((vk, hashes), spans) in v
            .iter_mut()
            .zip(p.hashes.chunks(64))
            .zip(p.spans.chunks(64))
        {
            // Hash hits, then the byte check that makes them exact.
            let mut mask = 0u64;
            for (bit, &ph) in hashes.iter().enumerate() {
                mask |= u64::from(ph == h) << bit;
            }
            let mut hits = mask;
            while hits != 0 {
                let bit = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let same = spans
                    .get(bit)
                    .and_then(|&(ps, pe)| p_text.get(ps..pe))
                    .is_some_and(|w| w.eq_ignore_ascii_case(word));
                if !same {
                    mask &= !(1u64 << bit);
                }
            }
            let u = *vk & mask;
            let (sum, c1) = vk.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(carry);
            carry = u64::from(c1 | c2);
            *vk = sum | (*vk & !mask);
        }
    }
    // Zero bits among the m live positions (the last block's padding bits
    // above m are excluded).
    let ones: usize = v
        .iter()
        .zip(p.hashes.chunks(64))
        .map(|(vk, hashes)| {
            let live = if hashes.len() == 64 {
                !0
            } else {
                (1u64 << hashes.len()) - 1
            };
            (vk & live).count_ones() as usize
        })
        .sum();
    m - ones
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn words_tokenize() {
        assert_eq!(words("Hello, world!"), vec!["Hello", "world"]);
        assert_eq!(words("don't stop"), vec!["don't", "stop"]);
        assert_eq!(words("  a  b  "), vec!["a", "b"]);
        assert!(words("...").is_empty());
        assert_eq!(words("TeX78 rocks"), vec!["TeX78", "rocks"]);
    }

    #[test]
    fn identical_sentences_distance_zero() {
        assert_eq!(word_distance("the cat sat", "the cat sat"), 0.0);
    }

    #[test]
    fn case_insensitive_words() {
        assert_eq!(word_distance("The Cat", "the cat"), 0.0);
    }

    #[test]
    fn disjoint_sentences_distance_two() {
        assert_eq!(word_distance("alpha beta", "gamma delta"), 2.0);
    }

    #[test]
    fn small_edits_stay_below_one() {
        // One word changed out of five: distance (5+5−2·4)/5 = 0.4 < 1 —
        // update beats delete+insert, per the cost-model consistency rule.
        let d = word_distance("one two three four five", "one two three four SIX");
        assert!((d - 0.4).abs() < 1e-9, "{d}");
    }

    #[test]
    fn heavy_edits_exceed_one() {
        // One shared word out of four: (4+4−2)/4 = 1.5 > 1.
        let d = word_distance("a b c d", "a x y z");
        assert!(d > 1.0, "{d}");
    }

    #[test]
    fn range_bounds() {
        for (a, b) in [
            ("", ""),
            ("x", ""),
            ("", "y"),
            ("a b", "a"),
            ("lorem ipsum dolor", "ipsum lorem dolor"),
        ] {
            let d = word_distance(a, b);
            assert!((0.0..=2.0).contains(&d), "({a:?}, {b:?}) -> {d}");
            assert_eq!(d, word_distance(b, a), "symmetry for ({a:?}, {b:?})");
        }
    }

    #[test]
    fn empty_vs_nonempty_is_one() {
        assert_eq!(word_distance("", "hello"), 1.0);
    }

    #[test]
    fn docvalue_compare_dispatch() {
        use hierdiff_tree::NodeValue;
        assert_eq!(DocValue::None.compare(&DocValue::None), 0.0);
        assert_eq!(DocValue::None.compare(&DocValue::text("x")), 2.0);
        assert_eq!(
            DocValue::text("same words").compare(&DocValue::text("same words")),
            0.0
        );
        assert!(DocValue::None.is_null());
        assert!(!DocValue::text("x").is_null());
    }

    #[test]
    fn word_order_matters() {
        // Reordered words reduce the LCS: "a b c" vs "c b a" share LCS of
        // length 1 ("b" or "a"/"c") → distance (3+3−2)/3 = 4/3.
        let d = word_distance("a b c", "c b a");
        assert!(d > 1.0, "{d}");
    }

    /// The pre-kernel tokenizer: a char-predicate split.
    fn reference_words(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// The pre-kernel compare: `reference_words` + quadratic-DP LCS pairs.
    fn reference_distance(a: &str, b: &str) -> f64 {
        if a == b {
            return 0.0;
        }
        let wa = reference_words(a);
        let wb = reference_words(b);
        if wa.is_empty() && wb.is_empty() {
            return 2.0;
        }
        let common = hierdiff_lcs::lcs_dp(&wa, &wb, |x, y| x.eq_ignore_ascii_case(y)).len();
        let max = wa.len().max(wb.len()) as f64;
        (wa.len() + wb.len() - 2 * common) as f64 / max
    }

    /// Every compare path equals the reference bit for bit, both ways round.
    fn assert_matches_reference(a: &str, b: &str) {
        assert_eq!(words(a), reference_words(a), "tokens of {a:?}");
        for (x, y) in [(a, b), (b, a)] {
            let want = reference_distance(x, y).to_bits();
            assert_eq!(word_distance(x, y).to_bits(), want, "({x:?}, {y:?})");
            let (vx, vy) = (DocValue::text(x), DocValue::text(y));
            let prepared = vx.compare_prepared(&vx.prepare(), &vy, &vy.prepare());
            assert_eq!(prepared.to_bits(), want, "prepared ({x:?}, {y:?})");
            assert_eq!(vx.compare(&vy).to_bits(), want, "compare ({x:?}, {y:?})");
        }
        assert_eq!(
            word_distance(a, b).to_bits(),
            word_distance(b, a).to_bits(),
            "symmetry ({a:?}, {b:?})"
        );
    }

    #[test]
    fn kernel_matches_reference_on_edge_cases() {
        for (a, b) in [
            // ASCII case folding.
            ("The CAT sat", "the cat SAT on the mat"),
            ("HELLO world", "hello WORLD"),
            // Non-ASCII letters stay distinct under ASCII folding.
            ("École élève", "école Élève"),
            ("Straße groß", "STRAßE GROSS"),
            ("straße", "strasse"),
            ("naïve café", "NAÏVE CAFÉ"),
            // Non-ASCII separators split words.
            ("a—b…c", "a b c"),
            ("x\u{a0}y", "x y"),
            // Apostrophes and digits.
            ("don't stop 42", "DON'T stop 42"),
            ("rock'n'roll 1996", "rock n roll 1996"),
            ("'quoted' TeX78", "quoted tex78"),
            // Punctuation-only and empty strings.
            ("...", "!!"),
            ("...", "..."),
            ("", ""),
            ("", "..."),
            ("", "word"),
            ("?!", "word."),
        ] {
            assert_matches_reference(a, b);
        }
    }

    /// A sentence of `n` words over a `vocab`-word vocabulary with mixed
    /// case and punctuation.
    fn random_sentence(rng: &mut StdRng, n: usize, vocab: usize) -> String {
        const FORMS: [&str; 6] = ["w", "W", "é", "É", "x'", "7"];
        const SEPS: [&str; 5] = [" ", ", ", " — ", "; ", "  "];
        let mut s = String::new();
        for i in 0..n {
            if i > 0 {
                s.push_str(SEPS[rng.gen_range(0..SEPS.len())]);
            }
            s.push_str(FORMS[rng.gen_range(0..FORMS.len())]);
            s.push_str(&rng.gen_range(0..vocab).to_string());
        }
        if rng.gen_bool(0.5) {
            s.push('.');
        }
        s
    }

    /// `b` derived from `a` by a few word substitutions, deletions and
    /// case flips, so pairs share long common subsequences.
    fn edited(rng: &mut StdRng, a: &str) -> String {
        let mut out: Vec<String> = Vec::new();
        for w in a.split(' ') {
            match rng.gen_range(0..8) {
                0 => {}
                1 => out.push(format!("new{}", rng.gen_range(0..50))),
                2 => out.push(w.to_ascii_uppercase()),
                _ => out.push(w.to_string()),
            }
        }
        out.join(" ")
    }

    #[test]
    fn kernel_matches_reference_at_block_edges() {
        let mut rng = StdRng::seed_from_u64(64);
        for &(n1, n2) in &[
            (63, 63),
            (64, 64),
            (65, 65),
            (130, 130),
            (63, 64),
            (64, 65),
            (65, 130),
            (130, 1),
            (128, 129),
        ] {
            for vocab in [4, 40, 400] {
                let a = random_sentence(&mut rng, n1, vocab);
                let b = random_sentence(&mut rng, n2, vocab);
                assert_eq!(words(&a).len(), n1);
                assert_matches_reference(&a, &b);
                assert_matches_reference(&a, &edited(&mut rng, &a));
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(1996);
        for _ in 0..3000 {
            let n = rng.gen_range(0..24);
            let vocab = rng.gen_range(1..30);
            let a = random_sentence(&mut rng, n, vocab);
            let b = if rng.gen_bool(0.5) {
                edited(&mut rng, &a)
            } else {
                let n = rng.gen_range(0..24);
                random_sentence(&mut rng, n, vocab)
            };
            assert_matches_reference(&a, &b);
        }
    }

    #[test]
    fn prepared_none_and_mixed_values() {
        let (none, text) = (DocValue::None, DocValue::text("x"));
        assert_eq!(
            none.compare_prepared(&none.prepare(), &none, &none.prepare()),
            0.0
        );
        assert_eq!(
            none.compare_prepared(&none.prepare(), &text, &text.prepare()),
            2.0
        );
        assert_eq!(
            text.compare_prepared(&text.prepare(), &none, &none.prepare()),
            2.0
        );
        assert!(none.prepare().is_empty());
        assert_eq!(WordTokens::scan("Hello, world!").len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let v = DocValue::text("hello");
        let j = serde_json::to_string(&v).unwrap();
        let back: DocValue = serde_json::from_str(&j).unwrap();
        assert_eq!(back, v);
    }
}
