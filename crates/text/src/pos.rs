//! Rule-based part-of-speech tagger.
//!
//! Table I's syntactic features require POS-tag and POS-bigram frequencies
//! ("freq. of POS tags, e.g., NP, JJ"). The paper uses an off-the-shelf
//! tagger; no offline crate provides one, so this module implements a
//! deterministic rule-based tagger in the classic lexicon-plus-heuristics
//! style (closed-class word lists, suffix rules, shape rules, and a small
//! set of contextual fix-ups). It is not state of the art, but it is
//! consistent — which is what stylometry needs: the same writing habit must
//! always map to the same tag histogram.

use crate::tokenize::{Token, TokenKind, WordShape};

/// Compact Penn-Treebank-like tagset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PosTag {
    /// Common noun, singular (`doctor`).
    Nn,
    /// Common noun, plural (`doctors`).
    Nns,
    /// Proper noun (`WebMD`).
    Nnp,
    /// Personal pronoun (`she`).
    Prp,
    /// Possessive pronoun (`her`).
    PrpDollar,
    /// Base verb (`take`).
    Vb,
    /// Past tense verb (`took`, `-ed`).
    Vbd,
    /// Gerund / present participle (`taking`).
    Vbg,
    /// 3rd-person singular present (`takes`).
    Vbz,
    /// Modal (`should`).
    Md,
    /// Adjective (`chronic`).
    Jj,
    /// Comparative adjective (`worse`, `-er`).
    Jjr,
    /// Superlative adjective (`worst`, `-est`).
    Jjs,
    /// Adverb (`really`).
    Rb,
    /// Determiner (`the`).
    Dt,
    /// Preposition / subordinating conjunction (`of`, `because`).
    In,
    /// Coordinating conjunction (`and`).
    Cc,
    /// Cardinal number (`42`).
    Cd,
    /// Wh-word (`which`, `who`).
    Wp,
    /// Interjection (`hello`, `ugh`).
    Uh,
    /// `to` as infinitive marker.
    To,
    /// Existential `there`.
    Ex,
    /// Punctuation.
    Punct,
    /// Symbols and anything unclassified.
    Sym,
}

impl PosTag {
    /// All tags, in a fixed order usable as feature indices.
    pub const ALL: [PosTag; 24] = [
        PosTag::Nn,
        PosTag::Nns,
        PosTag::Nnp,
        PosTag::Prp,
        PosTag::PrpDollar,
        PosTag::Vb,
        PosTag::Vbd,
        PosTag::Vbg,
        PosTag::Vbz,
        PosTag::Md,
        PosTag::Jj,
        PosTag::Jjr,
        PosTag::Jjs,
        PosTag::Rb,
        PosTag::Dt,
        PosTag::In,
        PosTag::Cc,
        PosTag::Cd,
        PosTag::Wp,
        PosTag::Uh,
        PosTag::To,
        PosTag::Ex,
        PosTag::Punct,
        PosTag::Sym,
    ];

    /// Index of this tag in [`PosTag::ALL`] (the declaration order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Penn-Treebank-style name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PosTag::Nn => "NN",
            PosTag::Nns => "NNS",
            PosTag::Nnp => "NNP",
            PosTag::Prp => "PRP",
            PosTag::PrpDollar => "PRP$",
            PosTag::Vb => "VB",
            PosTag::Vbd => "VBD",
            PosTag::Vbg => "VBG",
            PosTag::Vbz => "VBZ",
            PosTag::Md => "MD",
            PosTag::Jj => "JJ",
            PosTag::Jjr => "JJR",
            PosTag::Jjs => "JJS",
            PosTag::Rb => "RB",
            PosTag::Dt => "DT",
            PosTag::In => "IN",
            PosTag::Cc => "CC",
            PosTag::Cd => "CD",
            PosTag::Wp => "WP",
            PosTag::Uh => "UH",
            PosTag::To => "TO",
            PosTag::Ex => "EX",
            PosTag::Punct => "PUNCT",
            PosTag::Sym => "SYM",
        }
    }
}

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "each", "every", "either", "neither",
    "some", "any", "no", "all", "both", "another",
];
const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "for", "with", "about", "against", "between", "into", "through",
    "during", "before", "after", "above", "below", "from", "up", "down", "out", "off", "over",
    "under", "since", "until", "while", "because", "although", "though", "if", "unless", "as",
    "than", "whether", "per", "via", "without", "within", "upon", "toward", "towards", "among",
    "amongst", "despite", "except", "like",
];
const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "so", "yet", "plus"];
const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "me",
    "him",
    "them",
    "us",
    "myself",
    "yourself",
    "himself",
    "herself",
    "itself",
    "ourselves",
    "themselves",
    "anyone",
    "everyone",
    "someone",
    "anybody",
    "everybody",
    "somebody",
    "nothing",
    "something",
    "anything",
    "everything",
    "one",
];
const POSSESSIVES: &[&str] = &[
    "my", "your", "his", "her", "its", "our", "their", "mine", "yours", "hers", "ours", "theirs",
    "whose",
];
const MODALS: &[&str] = &[
    "can",
    "could",
    "may",
    "might",
    "must",
    "shall",
    "should",
    "will",
    "would",
    "ought",
    "cannot",
    "can't",
    "won't",
    "couldn't",
    "shouldn't",
    "wouldn't",
    "mustn't",
];
const AUX_BE_HAVE_DO: &[(&str, PosTag)] = &[
    ("be", PosTag::Vb),
    ("am", PosTag::Vbz),
    ("is", PosTag::Vbz),
    ("are", PosTag::Vbz),
    ("was", PosTag::Vbd),
    ("were", PosTag::Vbd),
    ("been", PosTag::Vbd),
    ("being", PosTag::Vbg),
    ("have", PosTag::Vb),
    ("has", PosTag::Vbz),
    ("had", PosTag::Vbd),
    ("having", PosTag::Vbg),
    ("do", PosTag::Vb),
    ("does", PosTag::Vbz),
    ("did", PosTag::Vbd),
    ("doing", PosTag::Vbg),
    ("don't", PosTag::Vb),
    ("doesn't", PosTag::Vbz),
    ("didn't", PosTag::Vbd),
    ("isn't", PosTag::Vbz),
    ("aren't", PosTag::Vbz),
    ("wasn't", PosTag::Vbd),
    ("weren't", PosTag::Vbd),
    ("i'm", PosTag::Prp),
    ("it's", PosTag::Prp),
];
const WH_WORDS: &[&str] = &[
    "who",
    "whom",
    "which",
    "what",
    "when",
    "where",
    "why",
    "how",
    "whoever",
    "whatever",
    "whenever",
    "wherever",
    "whichever",
];
const INTERJECTIONS: &[&str] = &[
    "hello", "hi", "hey", "oh", "ugh", "wow", "ouch", "yes", "yeah", "no", "okay", "ok", "please",
    "thanks", "thank", "sorry", "well",
];
const COMMON_ADVERBS: &[&str] = &[
    "very",
    "really",
    "too",
    "also",
    "just",
    "now",
    "then",
    "here",
    "there",
    "never",
    "always",
    "often",
    "sometimes",
    "again",
    "soon",
    "already",
    "still",
    "even",
    "maybe",
    "perhaps",
    "quite",
    "almost",
    "away",
    "back",
    "however",
    "not",
    "n't",
    "today",
    "yesterday",
    "tomorrow",
];
const COMMON_ADJECTIVES: &[&str] = &[
    "good", "bad", "new", "old", "high", "low", "severe", "chronic", "acute", "sick", "ill",
    "sore", "tired", "scared", "worried", "same", "other", "first", "last", "next", "many", "few",
    "much", "little", "own", "sure", "able", "normal", "common", "rare",
];
const COMMON_BASE_VERBS: &[&str] = &[
    "go", "get", "take", "make", "know", "think", "see", "come", "want", "use", "find", "give",
    "tell", "ask", "feel", "try", "need", "help", "start", "stop", "keep", "let", "seem", "talk",
    "turn", "hurt", "ache", "eat", "sleep", "drink", "call", "say",
];

fn in_list(list: &[&str], w: &str) -> bool {
    list.contains(&w)
}

/// Tag one word from its lowercase form: the closed-class lists first
/// (the first list holding the word gives its tag), then shape and suffix
/// rules ([`open_class_tag`]).
#[must_use]
pub fn tag_word(lower: &str, shape: WordShape, sentence_initial: bool) -> PosTag {
    closed_class_tag(lower).unwrap_or_else(|| open_class_tag(lower, shape, sentence_initial))
}

/// The single-tag closed-class lists after [`AUX_BE_HAVE_DO`], in the
/// order the tagger tries them.
const CLOSED_CLASS: [(&[&str], PosTag); 13] = [
    (MODALS, PosTag::Md),
    (&["to"], PosTag::To),
    (&["there"], PosTag::Ex),
    (DETERMINERS, PosTag::Dt),
    (POSSESSIVES, PosTag::PrpDollar),
    (PRONOUNS, PosTag::Prp),
    (CONJUNCTIONS, PosTag::Cc),
    (WH_WORDS, PosTag::Wp),
    (PREPOSITIONS, PosTag::In),
    (INTERJECTIONS, PosTag::Uh),
    (COMMON_ADVERBS, PosTag::Rb),
    (COMMON_ADJECTIVES, PosTag::Jj),
    (COMMON_BASE_VERBS, PosTag::Vb),
];

/// The closed-class tag of a lowercase word: the first list it appears
/// in, in this order (so `no` is DT, not UH, and `there` is EX, not RB).
#[must_use]
pub(crate) fn closed_class_tag(lower: &str) -> Option<PosTag> {
    if let Some(&(_, t)) = AUX_BE_HAVE_DO.iter().find(|&&(w, _)| w == lower) {
        return Some(t);
    }
    CLOSED_CLASS.iter().find(|(list, _)| in_list(list, lower)).map(|&(_, t)| t)
}

/// Every word of the closed-class lists with its [`closed_class_tag`]
/// (a word in several lists appears once per list, always with its
/// first list's tag).
pub(crate) fn closed_class_words() -> impl Iterator<Item = (&'static str, PosTag)> {
    let listed = CLOSED_CLASS.iter().flat_map(|(list, _)| list.iter().copied());
    AUX_BE_HAVE_DO
        .iter()
        .map(|&(w, _)| w)
        .chain(listed)
        .map(|w| (w, closed_class_tag(w).expect("listed words are closed-class")))
}

/// The tag of a lowercase word that no closed-class list holds: a proper
/// noun by shape away from the sentence start, otherwise by suffix.
#[must_use]
pub fn open_class_tag(lower: &str, shape: WordShape, sentence_initial: bool) -> PosTag {
    // Proper noun by shape: capitalized or camel-case away from the
    // sentence start.
    if !sentence_initial
        && matches!(shape, WordShape::Capitalized | WordShape::AllUpper | WordShape::Camel)
    {
        return PosTag::Nnp;
    }
    // Suffix heuristics, longest first.
    suffix_tag(lower)
}

fn suffix_tag(lower: &str) -> PosTag {
    let n = lower.len();
    let has = |s: &str| lower.ends_with(s) && n > s.len() + 1;
    if has("ly") {
        PosTag::Rb
    } else if has("ing") {
        PosTag::Vbg
    } else if has("ed") {
        PosTag::Vbd
    } else if has("tion")
        || has("sion")
        || has("ment")
        || has("ness")
        || has("ity")
        || has("ism")
        || has("itis")
        || has("osis")
    {
        PosTag::Nn
    } else if has("ous")
        || has("ful")
        || has("able")
        || has("ible")
        || has("ive")
        || has("ical")
        || has("less")
        || has("ish")
    {
        PosTag::Jj
    } else if has("est") {
        PosTag::Jjs
    } else if has("er") {
        // ambiguous (comparative vs agentive noun); treat as comparative
        // only after adjective-ish stems is hard without a lexicon, default
        // to JJR which Table I also counts.
        PosTag::Jjr
    } else if has("es") || (has("s") && !lower.ends_with("ss") && !lower.ends_with("us")) {
        PosTag::Nns
    } else {
        PosTag::Nn
    }
}

/// Tag a token sequence.
///
/// `tokens` should come from [`crate::tokenize::tokenize`]. A token is
/// sentence-initial if it is the first token or follows `.`, `!` or `?`.
#[must_use]
pub fn tag_tokens(tokens: &[Token<'_>]) -> Vec<PosTag> {
    let mut tags = Vec::with_capacity(tokens.len());
    let mut sentence_initial = true;
    for tok in tokens {
        let tag = match tok.kind {
            TokenKind::Punct => PosTag::Punct,
            TokenKind::Symbol => PosTag::Sym,
            TokenKind::Number => PosTag::Cd,
            TokenKind::Word => {
                let lower = tok.text.to_lowercase();
                tag_word(&lower, tok.shape(), sentence_initial)
            }
        };
        sentence_initial = matches!(tok.text, "." | "!" | "?");
        tags.push(tag);
    }
    // Contextual fix-up: DT/PRP$ followed by a tagged verb is almost always
    // a noun ("my ache", "the need").
    for i in 1..tags.len() {
        if matches!(tags[i - 1], PosTag::Dt | PosTag::PrpDollar) && matches!(tags[i], PosTag::Vb) {
            tags[i] = PosTag::Nn;
        }
    }
    tags
}

/// Consecutive tag pairs, skipping nothing: `tags.len().saturating_sub(1)`
/// bigrams.
#[must_use]
pub fn pos_bigrams(tags: &[PosTag]) -> Vec<(PosTag, PosTag)> {
    tags.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn tag_text(text: &str) -> Vec<(String, PosTag)> {
        let toks = tokenize(text);
        let tags = tag_tokens(&toks);
        toks.iter().zip(tags).map(|(t, g)| (t.text.to_string(), g)).collect()
    }

    fn tag_of(text: &str, word: &str) -> PosTag {
        tag_text(text).into_iter().find(|(w, _)| w == word).map(|(_, t)| t).unwrap()
    }

    #[test]
    fn closed_class_words() {
        assert_eq!(tag_of("the doctor", "the"), PosTag::Dt);
        assert_eq!(tag_of("she is sick", "she"), PosTag::Prp);
        assert_eq!(tag_of("my doctor", "my"), PosTag::PrpDollar);
        assert_eq!(tag_of("tea and rest", "and"), PosTag::Cc);
        assert_eq!(tag_of("pain in the arm", "in"), PosTag::In);
        assert_eq!(tag_of("I should rest", "should"), PosTag::Md);
        assert_eq!(tag_of("I want to rest", "to"), PosTag::To);
    }

    #[test]
    fn suffix_rules() {
        assert_eq!(tag_of("he walked quickly", "quickly"), PosTag::Rb);
        assert_eq!(tag_of("it was walking", "walking"), PosTag::Vbg);
        assert_eq!(tag_of("she jumped", "jumped"), PosTag::Vbd);
        assert_eq!(tag_of("an infection", "infection"), PosTag::Nn);
        assert_eq!(tag_of("it is painful", "painful"), PosTag::Jj);
        assert_eq!(tag_of("two symptoms", "symptoms"), PosTag::Nns);
        assert_eq!(tag_of("hepatitis", "hepatitis"), PosTag::Nn);
    }

    #[test]
    fn numbers_and_punct() {
        let tags = tag_text("ALT is 400 now.");
        assert!(tags.iter().any(|(w, t)| w == "400" && *t == PosTag::Cd));
        assert!(tags.iter().any(|(w, t)| w == "." && *t == PosTag::Punct));
    }

    #[test]
    fn proper_noun_mid_sentence() {
        assert_eq!(tag_of("I asked Simmons today", "Simmons"), PosTag::Nnp);
        // Sentence-initial capitalization is not proper-noun evidence.
        assert_ne!(tag_of("Doctors help.", "Doctors"), PosTag::Nnp);
    }

    #[test]
    fn dt_verb_fixup() {
        // "need" is in the base-verb list but "the need" must be a noun.
        assert_eq!(tag_of("the need for advice", "need"), PosTag::Nn);
        assert_eq!(tag_of("I need advice", "need"), PosTag::Vb);
    }

    #[test]
    fn bigram_count() {
        let toks = tokenize("I am sick");
        let tags = tag_tokens(&toks);
        assert_eq!(pos_bigrams(&tags).len(), 2);
        assert!(pos_bigrams(&[]).is_empty());
    }

    #[test]
    fn all_tags_indexable() {
        for (i, t) in PosTag::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
        assert_eq!(PosTag::ALL.len(), 24);
    }

    #[test]
    fn tagger_is_total() {
        // Must produce exactly one tag per token for arbitrary input.
        let text = "~~ weird $$ input 123 caf\u{e9} WHY?!";
        let toks = tokenize(text);
        assert_eq!(tag_tokens(&toks).len(), toks.len());
    }
}
