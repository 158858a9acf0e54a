//! The multi-pass extractor (one scan per feature family, built on the
//! text crate's tagger, frequency table and per-word lexicon lookups),
//! kept as the differential reference for the one-pass
//! [`crate::features::extract`]: every post of a WebMD-like and an
//! HB-like generated forum, and a seeded fuzz of texts built to hit each
//! exactness trap, must give bit-identical vectors.

use dehealth_text::lexicon::{function_word_index, misspelling_index};
use dehealth_text::pos::{pos_bigrams, tag_tokens};
use dehealth_text::stats::{frequency_table, legomena, yules_k};
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

/// The reference extraction of one post's Table-I feature vector.
#[must_use]
pub(crate) fn extract(text: &str) -> FeatureVector {
    let mut v = vec![0.0f64; M];
    let tokens = tokenize(text);
    let words: Vec<&str> =
        tokens.iter().filter(|t| t.kind == TokenKind::Word).map(|t| t.text).collect();
    let n_chars = text.chars().filter(|c| !c.is_whitespace()).count();
    let n_words = words.len();

    // --- Length (raw units) ---
    v[idx::LENGTH] = n_chars as f64;
    v[idx::LENGTH + 1] = paragraphs(text).len() as f64;
    if n_words > 0 {
        let word_chars: usize = words.iter().map(|w| w.chars().count()).sum();
        v[idx::LENGTH + 2] = word_chars as f64 / n_words as f64;
    }

    // --- Word length histogram (relative to word count) ---
    if n_words > 0 {
        for w in &words {
            let len = w.chars().count().min(MAX_WORD_LEN);
            if len >= 1 {
                v[idx::WORD_LEN + len - 1] += 1.0;
            }
        }
        for k in 0..MAX_WORD_LEN {
            v[idx::WORD_LEN + k] /= n_words as f64;
        }
    }

    // --- Vocabulary richness ---
    if n_words > 0 {
        let freqs = frequency_table(words.iter().copied());
        v[idx::VOCAB] = yules_k(&freqs);
        let l = legomena(&freqs);
        v[idx::VOCAB + 1] = l.hapax as f64 / n_words as f64;
        v[idx::VOCAB + 2] = l.dis as f64 / n_words as f64;
        v[idx::VOCAB + 3] = l.tris as f64 / n_words as f64;
        v[idx::VOCAB + 4] = l.tetrakis as f64 / n_words as f64;
    }

    // --- Character-class frequencies (relative to non-space chars) ---
    if n_chars > 0 {
        let mut n_letters = 0usize;
        let mut n_upper = 0usize;
        for c in text.chars() {
            if c.is_alphabetic() {
                n_letters += 1;
                if c.is_uppercase() {
                    n_upper += 1;
                }
            }
            if c.is_ascii_alphabetic() {
                let slot = (c.to_ascii_lowercase() as u8 - b'a') as usize;
                v[idx::LETTER + slot] += 1.0;
            } else if c.is_ascii_digit() {
                v[idx::DIGIT + (c as u8 - b'0') as usize] += 1.0;
            } else if let Some(slot) = SPECIAL_CHARS.iter().position(|&s| s == c) {
                v[idx::SPECIAL + slot] += 1.0;
            }
            if let Some(slot) = PUNCT_CHARS.iter().position(|&s| s == c) {
                v[idx::PUNCT + slot] += 1.0;
            }
        }
        for k in 0..26 {
            v[idx::LETTER + k] /= n_chars as f64;
        }
        for k in 0..10 {
            v[idx::DIGIT + k] /= n_chars as f64;
        }
        for k in 0..21 {
            v[idx::SPECIAL + k] /= n_chars as f64;
        }
        for k in 0..10 {
            v[idx::PUNCT + k] /= n_chars as f64;
        }
        if n_letters > 0 {
            v[idx::UPPER_PCT] = n_upper as f64 / n_letters as f64;
        }
    }

    // --- Word shape: 5 class frequencies + 16 bigrams over main classes ---
    if n_words > 0 {
        let shapes: Vec<WordShape> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Word)
            .map(dehealth_text::tokenize::Token::shape)
            .collect();
        for &s in &shapes {
            v[idx::SHAPE + shape_slot(s)] += 1.0;
        }
        for k in 0..5 {
            v[idx::SHAPE + k] /= n_words as f64;
        }
        if shapes.len() >= 2 {
            let n_bi = shapes.len() - 1;
            for w in shapes.windows(2) {
                let (a, b) = (shape_slot(w[0]), shape_slot(w[1]));
                if a < 4 && b < 4 {
                    v[idx::SHAPE + 5 + a * 4 + b] += 1.0;
                }
            }
            for k in 0..16 {
                v[idx::SHAPE + 5 + k] /= n_bi as f64;
            }
        }
    }

    // --- Function words and misspellings (relative to word count) ---
    if n_words > 0 {
        for w in &words {
            if let Some(fi) = function_word_index(w) {
                v[idx::FUNC + fi] += 1.0;
            }
            if let Some(mi) = misspelling_index(w) {
                v[idx::MISSPELL + mi] += 1.0;
            }
        }
        for k in 0..337 {
            v[idx::FUNC + k] /= n_words as f64;
        }
        for k in 0..248 {
            v[idx::MISSPELL + k] /= n_words as f64;
        }
    }

    // --- POS tags and bigrams (relative to tag / bigram counts) ---
    if !tokens.is_empty() {
        let tags = tag_tokens(&tokens);
        for &t in &tags {
            v[idx::POS + t.index()] += 1.0;
        }
        for k in 0..N_POS {
            v[idx::POS + k] /= tags.len() as f64;
        }
        let bigrams = pos_bigrams(&tags);
        if !bigrams.is_empty() {
            for &(a, b) in &bigrams {
                v[idx::POS_BIGRAM + a.index() * N_POS + b.index()] += 1.0;
            }
            for k in 0..N_POS * N_POS {
                v[idx::POS_BIGRAM + k] /= bigrams.len() as f64;
            }
        }
    }

    FeatureVector::from_dense(v)
}

mod parity {
    use dehealth_corpus::{Forum, ForumConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::vector::FeatureVector;

    /// Indices and value bits of a vector's entries.
    fn bits(v: &FeatureVector) -> Vec<(usize, u64)> {
        v.iter_nonzero().map(|(i, x)| (i, x.to_bits())).collect()
    }

    fn assert_matches_reference(text: &str, what: &str) {
        let (got, want) = (crate::features::extract(text), super::extract(text));
        assert_eq!(bits(&got), bits(&want), "{what}: {text:?}");
    }

    #[test]
    fn one_pass_extract_matches_reference_on_generated_forums() {
        for (name, config) in [
            ("webmd-like", ForumConfig::webmd_like(150)),
            ("hb-like", ForumConfig::healthboards_like(150)),
        ] {
            let forum = Forum::generate(&config, 19);
            assert!(forum.posts.len() > 500, "{name}: {} posts", forum.posts.len());
            for (i, post) in forum.posts.iter().enumerate() {
                assert_matches_reference(&post.text, &format!("{name} post {i}"));
            }
        }
        assert_matches_reference("", "the empty post");
    }

    /// Fragments chosen for the extractor's exactness traps: words whose
    /// lexicon lowercasing differs from the tagger's (the Kelvin sign
    /// U+212A, the Angstrom sign U+212B, a dotted capital I, final sigma,
    /// `ß`), multi-byte letters and symbols, a no-break space, CRLF and LF
    /// paragraph breaks, punctuation runs, closed-class words listed twice
    /// (`no`, `there`), the determiner-verb fix-up (`the need`), and
    /// function words and misspellings in every case.
    const FRAGMENTS: &[&str] = &[
        "li\u{212A}e",
        "LI\u{212A}E",
        "Li\u{212A}e",
        "\u{212A}",
        "\u{212B}ngstr\u{f6}m",
        "\u{3a3}\u{3a3}",
        "\u{130}stanbul",
        "stra\u{df}e",
        "STRASSE",
        "caf\u{e9}",
        "na\u{ef}ve",
        "\u{1f637}",
        "\u{a0}",
        "\r\n\r\n",
        "\n\n",
        "\n",
        "\t",
        "?!...",
        "!!!",
        "--",
        "(",
        ")",
        "\"",
        "'",
        "no",
        "No",
        "there",
        "There",
        "the need",
        "my ache",
        "The",
        "THE",
        "because",
        "Because",
        "like",
        "Like",
        "recieve",
        "Recieve",
        "DIABETIS",
        "seperate",
        "don't",
        "Don't",
        "can't",
        "well-known",
        "doctors'",
        "n't",
        "I",
        "i",
        "WebMD",
        "ALT",
        "camelCase",
        "Doctor",
        "doctor",
        "walking",
        "quickly",
        "infection",
        "painful",
        "symptoms",
        "hepatitis",
        "400",
        "3.5",
        "20mg",
        "$",
        "@home",
        "~",
        "#",
        "a",
        "pneumonoultramicroscopicsilicovolcanoconiosis",
        "x-",
        "-x",
        "'tis",
    ];

    const SEPARATORS: &[&str] = &[" ", " ", " ", "", "\n", "\t", "\u{a0}", ", ", ". ", "! "];

    fn fuzz_text(rng: &mut StdRng) -> String {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..24usize) {
            if rng.gen::<f64>() < 0.1 {
                // A raw code point from ASCII, Latin-1 or beyond.
                let c = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..128u32),
                    1 => rng.gen_range(128..0x250u32),
                    _ => rng.gen_range(0x250..0x3000u32),
                };
                text.extend(char::from_u32(c));
            } else {
                text.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
            }
            text.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        text
    }

    #[test]
    fn one_pass_extract_matches_reference_on_fuzz_texts() {
        for fragment in FRAGMENTS {
            assert_matches_reference(fragment, "fragment");
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for i in 0..20_000 {
            assert_matches_reference(&fuzz_text(&mut rng), &format!("fuzz text {i}"));
        }
    }
}
