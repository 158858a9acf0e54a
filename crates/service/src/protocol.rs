//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is a single-line JSON object with a `"cmd"` field; every
//! response is a single-line JSON object with an `"ok"` boolean (plus
//! either result fields or an `"error"` string). One connection can issue
//! any number of requests back to back. ARCHITECTURE.md documents each
//! command's full schema; the shapes in short:
//!
//! ```text
//! → {"cmd":"load_snapshot","path":"corpus.snap"}
//! ← {"ok":true,"users":600,"posts":3195,"seconds":0.041}
//!
//! → {"cmd":"add_auxiliary_users","forum":{"n_users":2,"n_threads":1,
//!        "posts":[[0,0,"text…"],[1,0,"text…"]]}}
//! ← {"ok":true,"users":602,"posts":3197}
//!
//! → {"cmd":"attack","forum":{…anonymized batch…},
//!        "top_k":10,"n_landmarks":30,"threads":8,"seed":0}
//! ← {"ok":true,"mapping":[17,null,…],"candidates":[[17,4,…],…],
//!        "report":{"n_threads":2,"block_size":1,"stages":[{"stage":"topk",…},…]}}
//!
//! → {"cmd":"stats"}
//! ← {"ok":true,"corpus_users":602,…,"requests":7,"attacks":3,…}
//!
//! → {"cmd":"metrics"}
//! ← {"ok":true,"metrics":[{"name":"daemon_requests_total","labels":{},
//!        "type":"counter","value":7},…]}
//!
//! → {"cmd":"shutdown"}
//! ← {"ok":true}
//! ```
//!
//! Forums travel as `{"n_users","n_threads","posts":[[author,thread,
//! text],…]}` — the same triple [`Forum::from_posts`] consumes, so the
//! decoded forum is exactly the forum an in-process caller would have
//! passed, and wire attacks stay bit-identical to in-process ones
//! (`tests/service_parity.rs`).

use dehealth_corpus::{Forum, Post};
use dehealth_engine::EngineReport;

use crate::json::Json;

/// Encode a forum for the wire.
#[must_use]
pub fn forum_to_json(forum: &Forum) -> Json {
    let posts = forum
        .posts
        .iter()
        .map(|p| {
            Json::Arr(vec![Json::int(p.author), Json::int(p.thread), Json::Str(p.text.clone())])
        })
        .collect();
    Json::Obj(vec![
        ("n_users".into(), Json::int(forum.n_users)),
        ("n_threads".into(), Json::int(forum.n_threads)),
        ("posts".into(), Json::Arr(posts)),
    ])
}

/// Decode a forum sent by [`forum_to_json`], validating author/thread
/// ranges (via [`Forum::from_posts`]'s own checks, pre-empted here so the
/// failure is an error string instead of a panic).
///
/// The declared `n_users` and `n_threads` are trusted: decoding allocates
/// per declared user and thread. Untrusted input goes through
/// [`forum_from_request`] instead.
///
/// # Errors
/// A human-readable description of the malformed field.
pub fn forum_from_json(v: &Json) -> Result<Forum, String> {
    forum_from_request(v, usize::MAX)
}

/// [`forum_from_json`] for a forum that arrived in `carrier_bytes` bytes
/// of untrusted input (the daemon passes the request line's length).
/// A declared user or thread count above `carrier_bytes` is rejected
/// before anything is allocated, so what a request makes the decoder
/// and the attack allocate per user and per thread grows with the bytes
/// it sent, not with the numbers it claims.
///
/// # Errors
/// Like [`forum_from_json`], plus a declared count above
/// `carrier_bytes`.
pub fn forum_from_request(v: &Json, carrier_bytes: usize) -> Result<Forum, String> {
    let n_users = v.get("n_users").and_then(Json::as_usize).ok_or("missing or invalid n_users")?;
    let n_threads =
        v.get("n_threads").and_then(Json::as_usize).ok_or("missing or invalid n_threads")?;
    for (field, n) in [("n_users", n_users), ("n_threads", n_threads)] {
        if n > carrier_bytes {
            return Err(format!("{field} {n} exceeds the {carrier_bytes} bytes that declare it"));
        }
    }
    let posts_json = v.get("posts").and_then(Json::as_array).ok_or("missing posts array")?;
    let mut posts = Vec::with_capacity(posts_json.len());
    for (i, p) in posts_json.iter().enumerate() {
        let triple = p.as_array().filter(|a| a.len() == 3);
        let Some([author, thread, text]) = triple.and_then(|a| <&[Json; 3]>::try_from(a).ok())
        else {
            return Err(format!("post {i} is not an [author, thread, text] triple"));
        };
        let author = author.as_usize().ok_or_else(|| format!("post {i}: invalid author"))?;
        let thread = thread.as_usize().ok_or_else(|| format!("post {i}: invalid thread"))?;
        let text = text.as_str().ok_or_else(|| format!("post {i}: invalid text"))?;
        if author >= n_users || thread >= n_threads {
            return Err(format!("post {i} references out-of-range user or thread"));
        }
        posts.push(Post { author, thread, text: text.to_string() });
    }
    Ok(Forum::from_posts(n_users, n_threads, posts))
}

/// Encode an engine report (thread count plus per-stage counters).
#[must_use]
pub fn report_to_json(report: &EngineReport) -> Json {
    let stages = report
        .stages
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("stage".into(), Json::Str(s.stage.to_string())),
                ("unit".into(), Json::Str(s.unit.to_string())),
                ("seconds".into(), Json::Num(s.seconds)),
                ("items".into(), Json::Num(s.items as f64)),
                ("skipped".into(), Json::Num(s.skipped as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("n_threads".into(), Json::int(report.n_threads)),
        ("block_size".into(), Json::int(report.block_size)),
        ("stages".into(), Json::Arr(stages)),
    ])
}

/// A successful response: `{"ok": true, …fields}`.
#[must_use]
pub fn ok_response(fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("ok".into(), Json::Bool(true))];
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// A failure response: `{"ok": false, "error": message}`.
#[must_use]
pub fn error_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.to_string())),
    ])
}

/// Per-request overrides of the daemon's default attack parameters.
/// `None` fields keep the daemon's configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AttackOptions {
    /// Candidate-set size K.
    pub top_k: Option<usize>,
    /// Landmark count ħ.
    pub n_landmarks: Option<usize>,
    /// Worker threads for this attack (0 = machine parallelism). The
    /// daemon lends at most the cores no other request is using.
    pub threads: Option<usize>,
    /// RNG seed (decoy sampling, SMO pair selection). Must be `<= 2^53`:
    /// the wire carries numbers as `f64`, and a silently rounded seed
    /// would break the request's seed-faithful parity with an in-process
    /// run — so larger seeds are rejected loudly at encode time.
    pub seed: Option<u64>,
}

impl AttackOptions {
    /// Encode the set fields into request pairs.
    ///
    /// # Panics
    /// Panics if `seed` exceeds 2^53 (not exactly representable on the
    /// JSON wire — see [`AttackOptions::seed`]).
    #[must_use]
    pub fn to_fields(&self) -> Vec<(String, Json)> {
        let mut fields = Vec::new();
        if let Some(k) = self.top_k {
            fields.push(("top_k".into(), Json::int(k)));
        }
        if let Some(h) = self.n_landmarks {
            fields.push(("n_landmarks".into(), Json::int(h)));
        }
        if let Some(t) = self.threads {
            fields.push(("threads".into(), Json::int(t)));
        }
        if let Some(s) = self.seed {
            assert!(s <= 1u64 << 53, "seed {s} is not exactly representable on the JSON wire");
            fields.push(("seed".into(), Json::Num(s as f64)));
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::ForumConfig;

    #[test]
    fn forum_roundtrips_over_json() {
        let forum = Forum::generate(&ForumConfig::tiny(), 8);
        let v = forum_to_json(&forum);
        let back = forum_from_json(&v).unwrap();
        assert_eq!(back.n_users, forum.n_users);
        assert_eq!(back.n_threads, forum.n_threads);
        assert_eq!(back.posts.len(), forum.posts.len());
        for (a, b) in back.posts.iter().zip(&forum.posts) {
            assert_eq!((a.author, a.thread, &a.text), (b.author, b.thread, &b.text));
        }
        // And through an actual emit/parse cycle.
        let reparsed = Json::parse(&v.emit()).unwrap();
        let back2 = forum_from_json(&reparsed).unwrap();
        assert_eq!(back2.posts.len(), forum.posts.len());
    }

    #[test]
    fn malformed_forums_are_rejected() {
        let cases = [
            r#"{}"#,
            r#"{"n_users":1,"n_threads":1}"#,
            r#"{"n_users":1,"n_threads":1,"posts":[[0,0]]}"#,
            r#"{"n_users":1,"n_threads":1,"posts":[[5,0,"x"]]}"#,
            r#"{"n_users":1,"n_threads":1,"posts":[[0,9,"x"]]}"#,
            r#"{"n_users":1,"n_threads":1,"posts":[[0,0,42]]}"#,
            r#"{"n_users":-1,"n_threads":1,"posts":[]}"#,
        ];
        for text in cases {
            let v = Json::parse(text).unwrap();
            assert!(forum_from_json(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn attack_options_encode_only_set_fields() {
        assert!(AttackOptions::default().to_fields().is_empty());
        let opts = AttackOptions { top_k: Some(5), threads: Some(2), ..AttackOptions::default() };
        let fields = opts.to_fields();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "top_k");
        assert_eq!(fields[1].0, "threads");
    }

    #[test]
    fn response_helpers() {
        let ok = ok_response(vec![("users".into(), Json::int(3))]);
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("users").and_then(Json::as_usize), Some(3));
        let err = error_response("boom");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("boom"));
    }
}
