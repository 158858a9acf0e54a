//! Property/fuzz loop for the JSON request parser: seeded random
//! corruption of valid `attack` and `add_auxiliary_users` request lines
//! must always produce either a typed [`JsonError`] or a value that
//! survives an emit → parse round trip unchanged — never a panic.
//!
//! The harness drives the exact sequence the daemon's front thread and
//! workers run on every JSON request: split the received bytes into
//! lines at `\n`, decode each line with `String::from_utf8_lossy`, trim
//! it, then [`Json::parse`] it and decode any forum it carries with
//! [`forum_from_json`]. Parsing is linear in the line (see
//! `json::tests::string_parse_time_is_linear_in_the_input`), so finishing
//! the loop at all is the no-hang half of the property.

use dehealth_corpus::{Forum, ForumConfig, Post};
use dehealth_service::json::{Json, JsonError};
use dehealth_service::protocol::{forum_from_json, forum_to_json};
use dehealth_service::AttackOptions;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one daemon pass over a line produced.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Nothing but whitespace: the daemon skips the line.
    Blank,
    /// A typed parse error.
    Invalid,
    /// A value that round-trips, with whether a forum decoded from it.
    Valid { forum: bool },
}

/// Parse one trimmed line the way a worker does. Any panic escapes and
/// fails the test; a parsed value must round-trip through the emitter.
fn drive_line(line: &str) -> Outcome {
    if line.is_empty() {
        return Outcome::Blank;
    }
    match Json::parse(line) {
        Err(JsonError { message, at }) => {
            assert!(!message.is_empty());
            assert!(at <= line.len(), "error offset {at} past the end of {} bytes", line.len());
            Outcome::Invalid
        }
        Ok(v) => {
            let text = v.emit();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "emit → parse changed {text}");
            let _ = forum_from_json(&v);
            let forum = v.get("forum").is_some_and(|f| forum_from_json(f).is_ok());
            Outcome::Valid { forum }
        }
    }
}

/// The front thread's framing over raw bytes: one outcome per
/// newline-separated line.
fn drive(bytes: &[u8]) -> Vec<Outcome> {
    bytes
        .split(|&b| b == b'\n')
        .map(|line| drive_line(String::from_utf8_lossy(line).trim()))
        .collect()
}

/// Fragments injected by the escape strategy: valid escapes, paired and
/// lone surrogates, broken escapes, bare quotes and backslashes.
const ESCAPES: [&str; 12] = [
    "\"",
    "\\",
    "\\\"",
    "\\\\",
    "\\n",
    "\\u",
    "\\u00e9",
    "\\ud83c\\udf0d",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\uzzzz",
];

/// Multi-byte UTF-8 characters, plus sequences that are not valid UTF-8
/// on their own (the lossy decode turns them into U+FFFD).
const MULTIBYTE: [&[u8]; 6] =
    ["é".as_bytes(), "✓".as_bytes(), "🌍".as_bytes(), b"\xc3", b"\xf0\x9f\x8c", b"\xff\xfe"];

/// Number fragments: exponents that overflow or underflow `f64`, and
/// pieces that break a literal.
const NUMBERS: [&str; 6] = ["e400", "E-400", "9e99999", ".5e308", "-", "."];

fn insert(out: &mut Vec<u8>, state: &mut u64, fragment: &[u8]) {
    let at = (splitmix64(state) % (out.len() as u64 + 1)) as usize;
    out.splice(at..at, fragment.iter().copied());
}

/// One seeded mutation of a valid request line. Every strategy changes
/// the bytes (XOR masks are forced nonzero, truncation shortens,
/// insertion and wrapping lengthen).
fn mutate(line: &[u8], state: &mut u64) -> Vec<u8> {
    let mut out = line.to_vec();
    match splitmix64(state) % 9 {
        // Flip one random byte.
        0 => {
            let at = (splitmix64(state) % out.len() as u64) as usize;
            out[at] ^= (splitmix64(state) % 255 + 1) as u8;
        }
        // Flip up to 8 random bytes.
        1 => {
            for _ in 0..=(splitmix64(state) % 8) {
                let at = (splitmix64(state) % out.len() as u64) as usize;
                out[at] ^= (splitmix64(state) % 255 + 1) as u8;
            }
        }
        // Truncate to a random shorter prefix.
        2 => out.truncate((splitmix64(state) % line.len() as u64) as usize),
        // Inject a quote, a backslash or an escape sequence.
        3 => {
            let fragment = ESCAPES[(splitmix64(state) % ESCAPES.len() as u64) as usize];
            insert(&mut out, state, fragment.as_bytes());
        }
        // Inject a control byte.
        4 => {
            let b = (splitmix64(state) % 0x20) as u8;
            insert(&mut out, state, &[b]);
        }
        // Inject a multi-byte character or a broken UTF-8 sequence.
        5 => {
            let fragment = MULTIBYTE[(splitmix64(state) % MULTIBYTE.len() as u64) as usize];
            insert(&mut out, state, fragment);
        }
        // Inject a number fragment.
        6 => {
            let fragment = NUMBERS[(splitmix64(state) % NUMBERS.len() as u64) as usize];
            insert(&mut out, state, fragment.as_bytes());
        }
        // Nest the whole request inside arrays, around the depth guard.
        7 => {
            let depth = (splitmix64(state) % 80 + 1) as usize;
            out = [vec![b'['; depth], out, vec![b']'; depth]].concat();
        }
        // Inject a run of unclosed brackets at a random position.
        _ => {
            let depth = (splitmix64(state) % 100 + 1) as usize;
            let open = if splitmix64(state) % 2 == 0 { b"[" } else { b"{" };
            insert(&mut out, state, &open.repeat(depth));
        }
    }
    out
}

/// A small forum whose posts exercise every string path: plain ASCII,
/// multi-byte text, and characters the emitter must escape.
fn forum() -> Forum {
    let generated = Forum::generate(&ForumConfig::tiny(), 11);
    let mut posts: Vec<Post> = generated
        .posts
        .iter()
        .take(6)
        .map(|p| Post {
            author: p.author % 4,
            thread: p.thread % 3,
            text: p.text.chars().take(60).collect(),
        })
        .collect();
    posts.push(Post { author: 1, thread: 2, text: "héllo \"quoted\" back\\slash 🌍".into() });
    posts.push(Post { author: 3, thread: 0, text: "tab\there\nnewline\u{1}\u{1f} end ✓".into() });
    Forum::from_posts(4, 3, posts)
}

fn valid_lines() -> Vec<Vec<u8>> {
    let forum = forum();
    let options = AttackOptions {
        top_k: Some(5),
        n_landmarks: Some(12),
        threads: Some(2),
        seed: Some(1 << 40),
    };
    let mut attack =
        vec![("cmd".into(), Json::Str("attack".into())), ("forum".into(), forum_to_json(&forum))];
    attack.extend(options.to_fields());
    let ingest = vec![
        ("cmd".into(), Json::Str("add_auxiliary_users".into())),
        ("forum".into(), forum_to_json(&forum)),
    ];
    [Json::Obj(attack), Json::Obj(ingest)].iter().map(|v| v.emit().into_bytes()).collect()
}

#[test]
fn pristine_lines_parse_and_decode_their_forum() {
    let forum = forum();
    for line in valid_lines() {
        assert_eq!(drive(&line), vec![Outcome::Valid { forum: true }]);
        let v = Json::parse(std::str::from_utf8(&line).unwrap()).unwrap();
        let decoded = forum_from_json(v.get("forum").unwrap()).unwrap();
        let triples = |f: &Forum| -> Vec<(usize, usize, String)> {
            f.posts.iter().map(|p| (p.author, p.thread, p.text.clone())).collect()
        };
        assert_eq!(triples(&decoded), triples(&forum), "the forum must survive the wire unchanged");
    }
}

#[test]
fn seeded_mutations_never_panic_and_always_classify() {
    let mut state = 0x5eed_0000_15f0_22edu64;
    let lines = valid_lines();
    // [blank, invalid, valid without a forum, valid with a forum]
    let mut tally = [0usize; 4];
    for round in 0..1500 {
        for line in &lines {
            let mutant = mutate(line, &mut state);
            assert_ne!(&mutant, line, "mutation was a no-op (round {round})");
            for outcome in drive(&mutant) {
                tally[match outcome {
                    Outcome::Blank => 0,
                    Outcome::Invalid => 1,
                    Outcome::Valid { forum: false } => 2,
                    Outcome::Valid { forum: true } => 3,
                }] += 1;
            }
        }
    }
    // 3000 mutants must exercise both sides of the property, and some
    // must still carry a decodable forum (damage confined to post text).
    assert!(tally[1] > 500, "error paths underexercised: {tally:?}");
    assert!(tally[2] + tally[3] > 300, "round trips underexercised: {tally:?}");
    assert!(tally[3] > 100, "forum decode underexercised: {tally:?}");
}

#[test]
fn every_truncation_of_a_valid_line_is_a_typed_error() {
    // Exhaustive, not sampled: every strict prefix of a valid line is an
    // unfinished document, so it must fail to parse, never panic.
    for line in valid_lines() {
        for cut in 0..line.len() {
            let text = String::from_utf8_lossy(&line[..cut]);
            let outcome = drive_line(text.trim());
            assert!(
                matches!(outcome, Outcome::Invalid | Outcome::Blank),
                "truncation to {cut} bytes parsed: {outcome:?}"
            );
        }
    }
}

#[test]
fn escapes_and_surrogates_injected_into_post_text_round_trip_or_fail_typed() {
    // Every fragment before each of the first six characters of one
    // post's text ("héllo "): valid escapes decode, and a bare
    // backslash, a broken `\u` or a lone surrogate is a typed error.
    let line = String::from_utf8(valid_lines().remove(1)).unwrap();
    let text_at = line.find("héllo").expect("the special post is on the line");
    for fragment in ESCAPES {
        for offset in 0..6 {
            let at = line[text_at..].char_indices().nth(offset).map(|(i, _)| text_at + i).unwrap();
            let mutant = format!("{}{fragment}{}", &line[..at], &line[at..]);
            let outcome = drive_line(&mutant);
            match fragment {
                "\\\"" | "\\\\" | "\\n" | "\\u00e9" | "\\ud83c\\udf0d" => {
                    assert_eq!(outcome, Outcome::Valid { forum: true }, "{fragment} at {offset}");
                }
                "\\" | "\\u" | "\\ud800" | "\\udc00" | "\\ud800\\u0041" | "\\uzzzz" => {
                    assert_eq!(outcome, Outcome::Invalid, "{fragment} at {offset}");
                }
                _ => {}
            }
        }
    }
}
