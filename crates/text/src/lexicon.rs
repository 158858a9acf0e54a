//! Lexicon lookups: the function-word list and the misspelling list used by
//! the Table-I stylometric features.
//!
//! Both lists are compiled in as sorted static arrays (see
//! [`FUNCTION_WORDS`] and [`MISSPELLINGS`]) and queried by binary search
//! over a lowercase buffer, so lookups allocate only when the query
//! contains uppercase characters.
//!
//! [`lookup`] answers all three per-word questions of the feature
//! extractor at once (function-word index, misspelling index and the
//! tagger's closed-class tag) from one hash table over every listed
//! word, built on first use.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::LazyLock;

use crate::pos::{closed_class_words, PosTag};

#[path = "function_words.rs"]
mod function_words;
#[path = "misspellings.rs"]
mod misspellings;

pub use function_words::FUNCTION_WORDS;
pub use misspellings::MISSPELLINGS;

/// Everything the lexicons know about one lowercase word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LexiconEntry {
    /// Index in [`FUNCTION_WORDS`].
    pub function_word: Option<u16>,
    /// Index in [`MISSPELLINGS`].
    pub misspelling: Option<u16>,
    /// The tag the POS tagger's closed-class lists give the word (the
    /// first list it appears in).
    pub closed_class: Option<PosTag>,
}

/// FNV-1a over the key bytes. The table's keys are fixed, so a fixed hash
/// bounds every probe by the table's own longest chain, whatever the
/// query.
struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LexiconTable = HashMap<&'static str, LexiconEntry, BuildHasherDefault<WordHasher>>;

static TABLE: LazyLock<LexiconTable> = LazyLock::new(|| {
    let mut table = LexiconTable::default();
    for (i, &w) in FUNCTION_WORDS.iter().enumerate() {
        table.entry(w).or_default().function_word = Some(i as u16);
    }
    for (i, &(w, _)) in MISSPELLINGS.iter().enumerate() {
        table.entry(w).or_default().misspelling = Some(i as u16);
    }
    for (w, tag) in closed_class_words() {
        table.entry(w).or_default().closed_class = Some(tag);
    }
    table
});

/// Look a word up in every lexicon at once. `lower` must already be
/// lowercase: for such a word the entry agrees with
/// [`function_word_index`], [`misspelling_index`] and the tagger's
/// closed-class lists, and a word in none of them has no entry.
#[must_use]
pub fn lookup(lower: &str) -> Option<&'static LexiconEntry> {
    TABLE.get(lower)
}

/// Index of a function word in [`FUNCTION_WORDS`], or `None`.
///
/// Case-insensitive: `"The"` matches `"the"`.
#[must_use]
pub fn function_word_index(word: &str) -> Option<usize> {
    let lower = to_lower(word);
    FUNCTION_WORDS.binary_search(&lower.as_ref()).ok()
}

/// `true` if `word` is one of the 337 function words (case-insensitive).
#[must_use]
pub fn is_function_word(word: &str) -> bool {
    function_word_index(word).is_some()
}

/// Index of a misspelling in [`MISSPELLINGS`], or `None` (case-insensitive).
#[must_use]
pub fn misspelling_index(word: &str) -> Option<usize> {
    let lower = to_lower(word);
    MISSPELLINGS.binary_search_by(|(m, _)| (*m).cmp(lower.as_ref())).ok()
}

/// The correction for a known misspelling, if any (case-insensitive).
#[must_use]
pub fn correction(word: &str) -> Option<&'static str> {
    misspelling_index(word).map(|i| MISSPELLINGS[i].1)
}

/// Lowercase without allocating when the input is already lowercase ASCII.
fn to_lower(word: &str) -> std::borrow::Cow<'_, str> {
    if word.chars().all(|c| c.is_ascii_lowercase() || !c.is_ascii_alphabetic()) {
        std::borrow::Cow::Borrowed(word)
    } else {
        std::borrow::Cow::Owned(word.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_word_count_matches_table_i() {
        assert_eq!(FUNCTION_WORDS.len(), 337);
    }

    #[test]
    fn misspelling_count_matches_table_i() {
        assert_eq!(MISSPELLINGS.len(), 248);
    }

    #[test]
    fn function_words_sorted_unique_lowercase() {
        for w in FUNCTION_WORDS.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        assert!(FUNCTION_WORDS.iter().all(|w| w.chars().all(|c| !c.is_uppercase())));
    }

    #[test]
    fn misspellings_sorted_unique() {
        for w in MISSPELLINGS.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn common_function_words_present() {
        for w in ["the", "a", "of", "because", "herself", "notwithstanding"] {
            assert!(is_function_word(w), "{w} should be a function word");
        }
        assert!(!is_function_word("doctor"));
        assert!(!is_function_word("hepatitis"));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(is_function_word("The"));
        assert!(is_function_word("BECAUSE"));
        assert!(misspelling_index("Recieve").is_some());
    }

    #[test]
    fn corrections_resolve() {
        assert_eq!(correction("recieve"), Some("receive"));
        assert_eq!(correction("diabetis"), Some("diabetes"));
        assert_eq!(correction("receive"), None);
    }

    #[test]
    fn lookup_agrees_with_every_list() {
        use crate::pos::{closed_class_tag, PosTag};
        let listed = FUNCTION_WORDS
            .iter()
            .copied()
            .chain(MISSPELLINGS.iter().map(|&(w, _)| w))
            .chain(closed_class_words().map(|(w, _)| w));
        for w in listed.chain(["doctor", "", "the-", "li\u{212A}e", "n't"]) {
            let want = LexiconEntry {
                function_word: function_word_index(w).map(|i| i as u16),
                misspelling: misspelling_index(w).map(|i| i as u16),
                closed_class: closed_class_tag(w),
            };
            let got = lookup(w).copied();
            if want == LexiconEntry::default() {
                assert_eq!(got, None, "{w:?}");
            } else {
                assert_eq!(got, Some(want), "{w:?}");
            }
        }
        // First list wins: `no` is a determiner before an interjection,
        // `there` existential before an adverb.
        assert_eq!(lookup("no").unwrap().closed_class, Some(PosTag::Dt));
        assert_eq!(lookup("there").unwrap().closed_class, Some(PosTag::Ex));
    }

    #[test]
    fn indices_are_stable_and_in_range() {
        let i = function_word_index("the").unwrap();
        assert_eq!(FUNCTION_WORDS[i], "the");
        let j = misspelling_index("seperate").unwrap();
        assert_eq!(MISSPELLINGS[j].0, "seperate");
    }
}
