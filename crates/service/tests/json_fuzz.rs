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
//!
//! Mutations leave a forum's declared sizes small. The daemon bounds them
//! by the bytes that carry them ([`forum_from_request`] on a request
//! line, `decode_forum` on a frame or snapshot section); the last tests
//! here pin those bounds with counts no mutation reaches.

use dehealth_corpus::snapshot::{decode_forum, SectionReader, SectionTag, SnapshotError};
use dehealth_corpus::{Forum, ForumConfig, Post};
use dehealth_service::daemon::default_config;
use dehealth_service::frame::decode_add_users_payload;
use dehealth_service::json::{Json, JsonError};
use dehealth_service::protocol::{forum_from_json, forum_from_request, forum_to_json};
use dehealth_service::{AttackOptions, Daemon, PreparedCorpus, ServiceClient, ServiceError};

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

/// A one-post request line for `cmd` whose forum declares `n` for `field`
/// (the other count is 1).
fn sized_request(cmd: &str, field: &str, n: f64) -> Json {
    let count = |name: &str| Json::Num(if name == field { n } else { 1.0 });
    let forum = Json::Obj(vec![
        ("n_users".into(), count("n_users")),
        ("n_threads".into(), count("n_threads")),
        (
            "posts".into(),
            Json::Arr(vec![Json::Arr(vec![
                Json::int(0),
                Json::int(0),
                Json::Str("a post".into()),
            ])]),
        ),
    ]);
    Json::Obj(vec![("cmd".into(), Json::Str(cmd.into())), ("forum".into(), forum)])
}

/// The request whose declared count is its own line length plus `extra`.
fn sized_to_its_line(cmd: &str, field: &str, extra: usize) -> (Json, usize) {
    let mut n = 0;
    loop {
        let request = sized_request(cmd, field, n as f64);
        let want = request.emit().len() + extra;
        if n == want {
            return (request, n);
        }
        n = want;
    }
}

#[test]
fn declared_sizes_past_the_request_line_are_rejected() {
    for cmd in ["attack", "add_auxiliary_users"] {
        for field in ["n_users", "n_threads"] {
            let (past, _) = sized_to_its_line(cmd, field, 1);
            for request in [
                sized_request(cmd, field, 1e15),
                sized_request(cmd, field, f64::from(u32::MAX)),
                past,
            ] {
                let line = request.emit();
                let v = Json::parse(&line).unwrap();
                let err = forum_from_request(v.get("forum").unwrap(), line.len()).unwrap_err();
                assert!(err.contains(field), "{line}: {err}");
            }
            // A count equal to the line's length is within the bound.
            let (at, n) = sized_to_its_line(cmd, field, 0);
            let line = at.emit();
            let v = Json::parse(&line).unwrap();
            let forum = forum_from_request(v.get("forum").unwrap(), line.len()).unwrap();
            assert_eq!(if field == "n_users" { forum.n_users } else { forum.n_threads }, n);
        }
    }
}

#[test]
fn a_live_daemon_answers_oversized_declarations_with_a_typed_error() {
    let base = Forum::generate(&ForumConfig::tiny(), 42);
    let corpus = PreparedCorpus::build(base, Default::default());
    let users = corpus.n_users();
    let daemon = Daemon::bind_with_corpus("127.0.0.1:0", default_config(), Some(corpus)).unwrap();
    let mut client = ServiceClient::connect(daemon.addr()).unwrap();
    // One past the line's length is the smallest rejected count, and
    // harmless to allocate had the daemon accepted it.
    for cmd in ["attack", "add_auxiliary_users"] {
        for field in ["n_users", "n_threads"] {
            let (request, n) = sized_to_its_line(cmd, field, 1);
            match client.request(&request) {
                Err(ServiceError::Remote(_)) => {}
                other => panic!("{cmd} declaring {field} = {n}: {other:?}"),
            }
        }
    }
    let rejected = daemon
        .registry()
        .counter_with("daemon_error_kind_total", &[("kind", "invalid_argument")])
        .get();
    assert_eq!(rejected, 4);
    // The daemon still serves, and the corpus is unchanged.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("corpus_users").and_then(Json::as_usize), Some(users));
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn forum_sections_bound_declared_sizes_by_their_bytes() {
    let header = |n_users: u32, n_threads: u32| -> Vec<u8> {
        [n_users, n_threads, 0].iter().flat_map(|v| v.to_le_bytes()).collect()
    };
    let decode =
        |bytes: &[u8]| decode_forum(&mut SectionReader::standalone(bytes, SectionTag(*b"FORM")));
    // A 12-byte forum section may declare up to 12 users and threads.
    let forum = decode(&header(12, 12)).unwrap();
    assert_eq!((forum.n_users, forum.n_threads, forum.posts.len()), (12, 12, 0));
    for bytes in [header(13, 1), header(1, 13), header(u32::MAX, 1), header(1, u32::MAX)] {
        assert!(
            matches!(decode(&bytes), Err(SnapshotError::Malformed { .. })),
            "{bytes:?} decoded"
        );
        // A binary add_auxiliary_users frame carries the same bytes.
        assert!(decode_add_users_payload(&bytes).is_err());
    }
}
