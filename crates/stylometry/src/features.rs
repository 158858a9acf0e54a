//! Per-post feature extraction.
//!
//! `extract` maps one post to a dense vector of `M` non-negative values in
//! the [`crate::registry`] layout. All frequency features are *relative*
//! (divided by the relevant token/character count) so posts of different
//! lengths are comparable; the raw length features themselves are kept in
//! natural units. A value of `0` means "the post does not exhibit this
//! feature", which is exactly the attribute semantics of Section II-B.
//!
//! Extraction is one pass over the post's tokens. Each word is lowercased
//! once; an ASCII word then answers its function-word index, misspelling
//! index and closed-class tag with one [`lexicon::lookup`]. Counts are
//! kept as integers and divided once per block. The result is bit for bit
//! what the earlier multi-pass extractor gave (kept as the test-only
//! `reference` module): dividing an integer count once equals adding
//! `1.0` that many times and dividing, and Yule's K sums integer-valued
//! squares, exact in any order.

use std::collections::HashMap;
use std::sync::LazyLock;

use dehealth_text::lexicon::{self, function_word_index, misspelling_index};
use dehealth_text::pos::{open_class_tag, tag_word, PosTag};
use dehealth_text::tokenize::{paragraphs, tokenize, TokenKind, WordShape};

use crate::registry::{idx, M, MAX_WORD_LEN, N_POS, PUNCT_CHARS, SPECIAL_CHARS};
use crate::vector::FeatureVector;

fn shape_slot(shape: WordShape) -> usize {
    match shape {
        WordShape::AllUpper => 0,
        WordShape::AllLower => 1,
        WordShape::Capitalized => 2,
        WordShape::Camel => 3,
        WordShape::Other => 4,
    }
}

/// What one ASCII character counts toward.
#[derive(Debug, Clone, Copy, Default)]
struct AsciiClass {
    whitespace: bool,
    letter: bool,
    upper: bool,
    /// The letter, digit, special-character or punctuation feature the
    /// character feeds, if any (the four sets are disjoint).
    slot: Option<usize>,
}

/// The 128 ASCII characters, classified with the same predicates and
/// inventories a per-character scan would use.
static ASCII: LazyLock<[AsciiClass; 128]> = LazyLock::new(|| {
    std::array::from_fn(|b| {
        let c = char::from(b as u8);
        let slot = if c.is_ascii_alphabetic() {
            Some(idx::LETTER + usize::from(c.to_ascii_lowercase() as u8 - b'a'))
        } else if c.is_ascii_digit() {
            Some(idx::DIGIT + usize::from(c as u8 - b'0'))
        } else if let Some(k) = SPECIAL_CHARS.iter().position(|&s| s == c) {
            Some(idx::SPECIAL + k)
        } else {
            PUNCT_CHARS.iter().position(|&s| s == c).map(|k| idx::PUNCT + k)
        };
        AsciiClass {
            whitespace: c.is_whitespace(),
            letter: c.is_alphabetic(),
            upper: c.is_uppercase(),
            slot,
        }
    })
});

/// One word's character counts, gathered in one pass without allocating.
#[derive(Debug, Clone, Copy)]
struct WordStats {
    chars: usize,
    letters: usize,
    upper: usize,
    first_letter_upper: bool,
    ascii: bool,
}

impl WordStats {
    fn of(word: &str) -> Self {
        let mut s = Self { chars: 0, letters: 0, upper: 0, first_letter_upper: false, ascii: true };
        for c in word.chars() {
            s.chars += 1;
            s.ascii &= c.is_ascii();
            if c.is_alphabetic() {
                let upper = c.is_uppercase();
                if s.letters == 0 {
                    s.first_letter_upper = upper;
                }
                s.letters += 1;
                s.upper += usize::from(upper);
            }
        }
        s
    }

    /// The word's shape, by the rules of `Token::shape`.
    fn shape(&self) -> WordShape {
        if self.letters == 0 {
            WordShape::Other
        } else if self.upper == self.letters {
            if self.letters >= 2 {
                WordShape::AllUpper
            } else {
                WordShape::Other
            }
        } else if self.upper == 0 {
            WordShape::AllLower
        } else if self.first_letter_upper && self.upper == 1 {
            WordShape::Capitalized
        } else {
            WordShape::Camel
        }
    }
}

/// Write `counts[range] / denom` into `v` (a zero `denom` leaves the
/// block at zero: its counts are zero too).
fn put_relative(v: &mut [f64], counts: &[u64], range: std::ops::Range<usize>, denom: usize) {
    if denom == 0 {
        return;
    }
    let denom = denom as f64;
    for i in range {
        if counts[i] != 0 {
            v[i] = counts[i] as f64 / denom;
        }
    }
}

/// Extract the Table-I feature vector of one post.
///
/// Never panics; empty or pathological inputs yield an all-zero vector.
///
/// ```
/// use dehealth_stylometry::{extract, feature_name};
/// let v = extract("I recieve the results tomorrow!");
/// // The misspelling feature fires...
/// let idx = (0..dehealth_stylometry::M)
///     .find(|&i| feature_name(i) == "misspell_recieve")
///     .unwrap();
/// assert!(v.get(idx) > 0.0);
/// // ...and the function word "the" is counted.
/// assert!(v.iter_nonzero().count() > 10);
/// ```
#[must_use]
pub fn extract(text: &str) -> FeatureVector {
    // Integer counts, indexed like the feature space.
    let mut counts = [0u64; M];

    // --- Character classes (one table lookup per ASCII character) ---
    let ascii = &*ASCII;
    let (mut n_chars, mut n_letters, mut n_upper) = (0usize, 0usize, 0usize);
    for c in text.chars() {
        if let Some(class) = ascii.get(c as usize) {
            n_chars += usize::from(!class.whitespace);
            n_letters += usize::from(class.letter);
            n_upper += usize::from(class.upper);
            if let Some(slot) = class.slot {
                counts[slot] += 1;
            }
        } else {
            n_chars += usize::from(!c.is_whitespace());
            if c.is_alphabetic() {
                n_letters += 1;
                n_upper += usize::from(c.is_uppercase());
            }
        }
    }

    // --- Tokens: word length, shape, lexicons and POS tags in one pass ---
    let tokens = tokenize(text);
    // Every word's lowercase form, back to back: the lexicon key while the
    // word is tagged, and the frequency-table key afterwards.
    let mut lower = String::with_capacity(text.len());
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(tokens.len());
    let (mut n_words, mut word_chars) = (0usize, 0usize);
    let mut prev_shape: Option<usize> = None;
    let mut prev_tag: Option<PosTag> = None;
    let mut sentence_initial = true;
    for tok in &tokens {
        let tag = match tok.kind {
            TokenKind::Punct => PosTag::Punct,
            TokenKind::Symbol => PosTag::Sym,
            TokenKind::Number => PosTag::Cd,
            TokenKind::Word => {
                let stats = WordStats::of(tok.text);
                n_words += 1;
                word_chars += stats.chars;
                if let Some(k) = stats.chars.min(MAX_WORD_LEN).checked_sub(1) {
                    counts[idx::WORD_LEN + k] += 1;
                }
                let shape = stats.shape();
                let slot = shape_slot(shape);
                counts[idx::SHAPE + slot] += 1;
                if let Some(p) = prev_shape.filter(|&p| p < 4 && slot < 4) {
                    counts[idx::SHAPE + 5 + p * 4 + slot] += 1;
                }
                prev_shape = Some(slot);

                let start = lower.len();
                let tag = if stats.ascii {
                    lower.push_str(tok.text);
                    lower[start..].make_ascii_lowercase();
                    let word = &lower[start..];
                    let entry = lexicon::lookup(word);
                    if let Some(e) = entry {
                        if let Some(i) = e.function_word {
                            counts[idx::FUNC + usize::from(i)] += 1;
                        }
                        if let Some(i) = e.misspelling {
                            counts[idx::MISSPELL + usize::from(i)] += 1;
                        }
                    }
                    entry
                        .and_then(|e| e.closed_class)
                        .unwrap_or_else(|| open_class_tag(word, shape, sentence_initial))
                } else {
                    // Non-ASCII words keep the lexicons' own lowercasing,
                    // which differs from the tagger's: `li\u{212A}e` (a
                    // Kelvin sign) tags as `like` but is no function word.
                    if let Some(i) = function_word_index(tok.text) {
                        counts[idx::FUNC + i] += 1;
                    }
                    if let Some(i) = misspelling_index(tok.text) {
                        counts[idx::MISSPELL + i] += 1;
                    }
                    lower.push_str(&tok.text.to_lowercase());
                    tag_word(&lower[start..], shape, sentence_initial)
                };
                spans.push((start, lower.len()));
                tag
            }
        };
        // A determiner or possessive followed by a base verb is almost
        // always a noun ("my ache", "the need"). The fix-up only turns VB
        // into NN, so the previous final tag decides it.
        let tag = if tag == PosTag::Vb && matches!(prev_tag, Some(PosTag::Dt | PosTag::PrpDollar)) {
            PosTag::Nn
        } else {
            tag
        };
        counts[idx::POS + tag.index()] += 1;
        if let Some(p) = prev_tag {
            counts[idx::POS_BIGRAM + p.index() * N_POS + tag.index()] += 1;
        }
        prev_tag = Some(tag);
        sentence_initial = matches!(tok.text, "." | "!" | "?");
    }

    let mut v = vec![0.0f64; M];

    // --- Length (raw units) ---
    v[idx::LENGTH] = n_chars as f64;
    v[idx::LENGTH + 1] = paragraphs(text).len() as f64;
    if n_words > 0 {
        v[idx::LENGTH + 2] = word_chars as f64 / n_words as f64;
    }

    // --- Word length histogram (relative to word count) ---
    put_relative(&mut v, &counts, idx::WORD_LEN..idx::WORD_LEN + MAX_WORD_LEN, n_words);

    // --- Vocabulary richness over case-folded word types ---
    if n_words > 0 {
        let mut freqs: HashMap<&str, usize> = HashMap::with_capacity(n_words);
        for &(start, end) in &spans {
            *freqs.entry(&lower[start..end]).or_insert(0) += 1;
        }
        if n_words >= 2 {
            let m2: f64 = freqs.values().map(|&c| (c * c) as f64).sum();
            let n = n_words as f64;
            v[idx::VOCAB] = 1e4 * (m2 - n) / (n * n);
        }
        // Types occurring exactly 1, 2, 3 and 4 times.
        let mut legomena = [0usize; 4];
        for &c in freqs.values() {
            if let Some(slot) = legomena.get_mut(c - 1) {
                *slot += 1;
            }
        }
        for (k, &l) in legomena.iter().enumerate() {
            v[idx::VOCAB + 1 + k] = l as f64 / n_words as f64;
        }
    }

    // --- Character-class frequencies (relative to non-space chars) ---
    put_relative(&mut v, &counts, idx::LETTER..idx::LETTER + 26, n_chars);
    put_relative(&mut v, &counts, idx::DIGIT..idx::DIGIT + 10, n_chars);
    put_relative(&mut v, &counts, idx::SPECIAL..idx::SPECIAL + 21, n_chars);
    put_relative(&mut v, &counts, idx::PUNCT..idx::PUNCT + 10, n_chars);
    if n_letters > 0 {
        v[idx::UPPER_PCT] = n_upper as f64 / n_letters as f64;
    }

    // --- Word shape: 5 class frequencies + 16 bigrams over main classes ---
    put_relative(&mut v, &counts, idx::SHAPE..idx::SHAPE + 5, n_words);
    put_relative(&mut v, &counts, idx::SHAPE + 5..idx::SHAPE + 21, n_words.saturating_sub(1));

    // --- Function words and misspellings (relative to word count) ---
    put_relative(&mut v, &counts, idx::FUNC..idx::FUNC + 337, n_words);
    put_relative(&mut v, &counts, idx::MISSPELL..idx::MISSPELL + 248, n_words);

    // --- POS tags and bigrams (relative to tag / bigram counts) ---
    put_relative(&mut v, &counts, idx::POS..idx::POS + N_POS, tokens.len());
    put_relative(
        &mut v,
        &counts,
        idx::POS_BIGRAM..idx::POS_BIGRAM + N_POS * N_POS,
        tokens.len().saturating_sub(1),
    );

    FeatureVector::from_dense(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feature_name;

    fn value(text: &str, name: &str) -> f64 {
        let v = extract(text);
        let i = (0..M)
            .find(|&i| feature_name(i) == name)
            .unwrap_or_else(|| panic!("no feature named {name}"));
        v.get(i)
    }

    #[test]
    fn empty_post_is_all_zero() {
        let v = extract("");
        assert!(v.iter_nonzero().next().is_none());
    }

    #[test]
    fn length_features() {
        assert_eq!(value("ab cd", "n_chars"), 4.0);
        assert_eq!(value("one\n\ntwo", "n_paragraphs"), 2.0);
        assert!((value("ab cdef", "avg_chars_per_word") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn word_length_histogram_sums_to_one() {
        let v = extract("a bb ccc dddd");
        let sum: f64 = (0..MAX_WORD_LEN).map(|k| v.get(idx::WORD_LEN + k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((v.get(idx::WORD_LEN) - 0.25).abs() < 1e-12); // one 1-char word of 4
    }

    #[test]
    fn letter_frequency_case_folded() {
        // "Aa" -> 2 of 2 chars are 'a'.
        assert!((value("Aa", "letter_a") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digit_frequency() {
        assert!((value("a 1 2 2", "digit_2") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uppercase_percentage() {
        assert!((value("AB cd", "uppercase_pct") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn special_and_punct_counts() {
        assert!(value("a $ b", "special_$") > 0.0);
        assert!(value("hello, world", "punct_,") > 0.0);
        assert_eq!(value("hello world", "punct_,"), 0.0);
    }

    #[test]
    fn function_word_frequency() {
        // "the" twice of 4 words.
        assert!((value("the cat the dog", "func_the") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn misspelling_detected() {
        assert!(value("i recieve mail", "misspell_recieve") > 0.0);
        assert_eq!(value("i receive mail", "misspell_recieve"), 0.0);
    }

    #[test]
    fn pos_tags_sum_to_one() {
        let v = extract("The doctor prescribed antibiotics.");
        let sum: f64 = (0..N_POS).map(|k| v.get(idx::POS + k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pos_bigrams_sum_to_one() {
        let v = extract("The doctor helped me");
        let sum: f64 = (0..N_POS * N_POS).map(|k| v.get(idx::POS_BIGRAM + k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn word_shape_distribution() {
        let v = extract("ALT alt Alt");
        assert!((v.get(idx::SHAPE) - 1.0 / 3.0).abs() < 1e-12); // AllUpper
        assert!((v.get(idx::SHAPE + 1) - 1.0 / 3.0).abs() < 1e-12); // AllLower
        assert!((v.get(idx::SHAPE + 2) - 1.0 / 3.0).abs() < 1e-12); // Capitalized
    }

    #[test]
    fn all_values_non_negative_and_finite() {
        let v = extract("Weird ~~ input $$$ 123 don't STOP!!!");
        for (_, x) in v.iter_nonzero() {
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn single_token_post() {
        // No bigrams; must not divide by zero.
        let v = extract("hello");
        assert!((0..N_POS * N_POS).all(|k| v.get(idx::POS_BIGRAM + k) == 0.0));
    }
}
