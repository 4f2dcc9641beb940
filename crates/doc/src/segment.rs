//! Text segmentation: paragraphs into sentences.
//!
//! The paper's textual units (Section 7) are sentences, paragraphs, items,
//! subsections, sections, lists, and the document. Paragraph splitting (on
//! blank lines) happens in the format parsers; this module handles the
//! sentence level.

/// Blessed indexing funnels (see DESIGN.md, "Static analysis"): every
/// char-buffer access in the scanner flows through these two helpers,
/// keeping the S004 panic-reachability audit to two waived sites. `i` and
/// `j` are cursor positions bounded by explicit `< chars.len()` checks.
#[inline(always)]
fn ch(chars: &[char], i: usize) -> char {
    chars[i] // analyze: allow(S004) the blessed funnel
}

#[inline(always)]
fn span(chars: &[char], lo: usize, hi: usize) -> &[char] {
    &chars[lo..hi] // analyze: allow(S004) the blessed funnel
}

/// Splits a paragraph of text into sentences.
///
/// A sentence ends at `.`, `!` or `?` (a run of them, allowing `?!`),
/// optionally followed by closing quotes/parens, when followed by
/// whitespace. Common abbreviation patterns (`e.g.`, `i.e.`, `etc.`,
/// initials like `J.`) do not end a sentence unless followed by a capital
/// letter after whitespace is absent — we keep the heuristic simple and
/// deterministic: a period preceded by a single letter or by a known
/// abbreviation does not split.
pub fn split_sentences(text: &str) -> Vec<String> {
    const ABBREVIATIONS: &[&str] = &[
        "e.g", "i.e", "etc", "cf", "vs", "fig", "sec", "no", "dr", "mr", "mrs", "ms", "prof", "st",
        "jr", "sr", "inc", "dept",
    ];

    let chars: Vec<char> = text.chars().collect();
    let mut sentences = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = ch(&chars, i);
        if c == '.' || c == '!' || c == '?' {
            // Consume the full terminator run plus trailing closers.
            let mut j = i;
            while j + 1 < chars.len() && matches!(ch(&chars, j + 1), '.' | '!' | '?') {
                j += 1;
            }
            while j + 1 < chars.len() && matches!(ch(&chars, j + 1), '"' | '\'' | ')' | ']' | '}') {
                j += 1;
            }
            let at_end = j + 1 >= chars.len();
            let followed_by_space = !at_end && ch(&chars, j + 1).is_whitespace();
            let abbreviation =
                c == '.' && i == j && is_abbreviation(span(&chars, start, i), ABBREVIATIONS);
            if (at_end || followed_by_space) && !abbreviation {
                let s: String = span(&chars, start, j + 1).iter().collect();
                let trimmed = s.trim();
                if !trimmed.is_empty() {
                    sentences.push(normalize_ws(trimmed));
                }
                start = j + 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    let tail: String = span(&chars, start.min(chars.len()), chars.len())
        .iter()
        .collect();
    let tail = tail.trim();
    if !tail.is_empty() {
        sentences.push(normalize_ws(tail));
    }
    sentences
}

/// Whether the text ending just before a period looks like an abbreviation
/// or a single-letter initial.
fn is_abbreviation(before: &[char], abbreviations: &[&str]) -> bool {
    // Collect the final word before the period; apostrophes count as word
    // characters so contractions ("isn't.") are full words, not initials.
    let mut word: Vec<char> = Vec::new();
    for &c in before.iter().rev() {
        if c.is_alphabetic() || c == '.' || c == '\'' {
            word.push(c.to_ascii_lowercase());
        } else {
            break;
        }
    }
    word.reverse();
    let word: String = word.into_iter().collect();
    if word.chars().filter(|c| c.is_alphabetic()).count() == 1 && !word.contains('\'') {
        return true; // single-letter initial, e.g. "J."
    }
    abbreviations.contains(&word.trim_end_matches('.'))
}

/// Collapses internal whitespace runs to single spaces.
pub fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sentences() {
        let s = split_sentences("One sentence. Another one! A third? Done.");
        assert_eq!(
            s,
            vec!["One sentence.", "Another one!", "A third?", "Done."]
        );
    }

    #[test]
    fn trailing_unterminated_text_is_a_sentence() {
        let s = split_sentences("Complete sentence. trailing fragment");
        assert_eq!(s, vec!["Complete sentence.", "trailing fragment"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = split_sentences("We use LCS, e.g. Myers' algorithm. It is fast.");
        assert_eq!(s, vec!["We use LCS, e.g. Myers' algorithm.", "It is fast."]);
    }

    #[test]
    fn initials_do_not_split() {
        let s = split_sentences("Written by J. Widom. It is good.");
        assert_eq!(s, vec!["Written by J. Widom.", "It is good."]);
    }

    #[test]
    fn multi_punctuation_runs() {
        let s = split_sentences("Really?! Yes... Sure.");
        assert_eq!(s, vec!["Really?!", "Yes...", "Sure."]);
    }

    #[test]
    fn closing_quotes_stay_attached() {
        let s = split_sentences("He said \"stop.\" Then left.");
        assert_eq!(s, vec!["He said \"stop.\"", "Then left."]);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n ").is_empty());
    }

    #[test]
    fn whitespace_normalized() {
        let s = split_sentences("Spaced   out\ttext.  Next.");
        assert_eq!(s, vec!["Spaced out text.", "Next."]);
    }

    #[test]
    fn contractions_do_end_sentences() {
        let s = split_sentences(
            "This feature may seem strange, but it isn't. When concepts appear, rules follow.",
        );
        assert_eq!(
            s,
            vec![
                "This feature may seem strange, but it isn't.",
                "When concepts appear, rules follow."
            ]
        );
    }

    #[test]
    fn decimal_numbers_do_not_split() {
        // "3.14" has no whitespace after the period.
        let s = split_sentences("Pi is 3.14 roughly. Indeed.");
        assert_eq!(s, vec!["Pi is 3.14 roughly.", "Indeed."]);
    }
}
