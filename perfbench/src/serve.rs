//! `serve-json-5k`: a standing 5,000-user WebMD-like corpus behind the
//! daemon, driven by one `ServiceClient` connection in a closed loop of
//! JSON requests — attacks budgeted by post count, with an
//! `add_auxiliary_users` ingest of new users after every fifth attack.
//!
//! The corpus is built and snapshotted before any clock starts. Set-up
//! is a memory-mapped `PreparedCorpus::load_with` plus
//! `Daemon::bind_with` with default limits, repeated; the last daemon
//! serves the measured phase.
//!
//! The traced phase runs a fresh daemon over a prefix of the same
//! request sequence. Around each request it records the round trip on
//! the client, then replays the server's calls in process on the same
//! bytes (JSON parse, forum decode, the engine's layers, reply emit) and
//! the client's reply parse. What the replayed spans leave of the round
//! trip is the time spent in the daemon's queue, batch window, poll
//! ticks and sockets (`daemon.wait_s`, `ingest.wait_s`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use dehealth_core::AttackConfig;
use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_engine::{Engine, EngineConfig};
use dehealth_service::daemon::default_config;
use dehealth_service::frame::{
    decode_attack_payload, encode_attack_frame, FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES,
};
use dehealth_service::protocol::{forum_from_json, forum_to_json, ok_response};
use dehealth_service::{
    AttackOptions, AttackReply, Daemon, DaemonLimits, Json, LoadMode, PreparedCorpus, ServiceClient,
};
use dehealth_telemetry::{MetricValue, Registry};

use crate::check::{diff, Attack, Ledger, Mapping, Quality};
use crate::inputs::{digest, post_budget_batches, sample_indices, sub_forum};
use crate::measure::{median, peak_rss_mib, quantile, reset_peak_rss, timed};
use crate::metrics::{aux_build_layers, engine_layers, finish, insert_quality, samples, Metric};
use crate::trace::Tracer;
use crate::{pipeline, Params, RunOutput, ENGINE_THREADS, FORUM_SEED};

/// Seed offset of the population the ingested users come from (fixed,
/// like the corpus population; see [`FORUM_SEED`]).
const INGEST_SEED: u64 = 0x1e57_0bad;

/// Post budget of one attack request. It bounds the request line at about
/// 50 KiB, since `Json::parse` time grows with the square of the line.
const REQUEST_POSTS: usize = 60;

/// Post budget of one ingest chunk.
const INGEST_POSTS: usize = 80;

/// One ingest after every this many attacks.
const INGEST_EVERY: usize = 5;

/// Attacks re-run in process and compared with their replies (the last
/// attack, after the last ingest, is always compared too).
const CHECKED_ATTACKS: usize = 8;

/// The daemon's batching histograms the run records.
const DAEMON_FAMILIES: [&str; 3] =
    ["daemon_queue_seconds", "daemon_batch_window_seconds", "daemon_batch_size"];

#[derive(Debug, Clone, Copy)]
enum Op {
    Attack(usize),
    Ingest(usize),
}

struct Inputs {
    split: dehealth_corpus::Split,
    /// Anonymized user ids of each attack request.
    batches: Vec<Vec<usize>>,
    attacks: Vec<Forum>,
    ingests: Vec<Forum>,
    schedule: Vec<Op>,
}

fn inputs(p: &Params) -> (Inputs, u64) {
    let s = p.scale;
    let forum = Forum::generate(&ForumConfig::webmd_like(s.users), FORUM_SEED);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), p.seed.wrapping_add(1));
    drop(forum);
    // Ingests sit between attacks and never after the last one, so the
    // final attacks run against the final corpus generation.
    let n_ingests = (s.attacks - 1) / INGEST_EVERY;
    let fresh_users = (n_ingests * INGEST_POSTS / 3).max(50);
    let fresh = Forum::generate(&ForumConfig::webmd_like(fresh_users), FORUM_SEED ^ INGEST_SEED);
    // Requests take the anonymized users in the population's id order,
    // so the k-th request of every seed carries the same people (with the
    // seed's share of their posts): how many users a request holds, and
    // so `users_per_s`, does not depend on which users the seed's
    // anonymizing permutation happens to put next to each other.
    let mut order: Vec<usize> = (0..split.anonymized.n_users).collect();
    order.sort_by_key(|&u| split.oracle.true_mapping(u));
    let batches = post_budget_batches(&split.anonymized, &order, REQUEST_POSTS, s.attacks, true);
    let attacks = batches.iter().map(|b| sub_forum(&split.anonymized, b)).collect();
    let fresh_order: Vec<usize> = (0..fresh.n_users).collect();
    let ingests = post_budget_batches(&fresh, &fresh_order, INGEST_POSTS, n_ingests, false)
        .iter()
        .map(|b| sub_forum(&fresh, b))
        .collect();
    let mut schedule = Vec::new();
    for i in 0..s.attacks {
        schedule.push(Op::Attack(i));
        if (i + 1) % INGEST_EVERY == 0 && (i + 1) / INGEST_EVERY <= n_ingests {
            schedule.push(Op::Ingest((i + 1) / INGEST_EVERY - 1));
        }
    }
    let digest = digest(&[&split.auxiliary, &split.anonymized, &fresh]);
    (Inputs { split, batches, attacks, ingests, schedule }, digest)
}

fn bind(snapshot: &Path) -> Result<Daemon, String> {
    let corpus = PreparedCorpus::load_with(snapshot, LoadMode::Mapped)
        .map_err(|e| format!("snapshot load failed: {e}"))?;
    Daemon::bind_with("127.0.0.1:0", default_config(), Some(corpus), DaemonLimits::default())
        .map_err(|e| format!("daemon bind failed: {e}"))
}

fn stop(daemon: Daemon, client: Option<ServiceClient>) {
    drop(client);
    daemon.request_shutdown();
    daemon.join();
}

fn options() -> AttackOptions {
    AttackOptions { threads: Some(ENGINE_THREADS), ..AttackOptions::default() }
}

/// The in-process engine a daemon attack with [`options`] runs.
fn served_engine() -> EngineConfig {
    EngineConfig { n_threads: ENGINE_THREADS, ..default_config() }
}

fn reply_mapping(reply: &AttackReply) -> Mapping {
    Mapping { candidates: reply.candidates.clone(), mapping: reply.mapping.clone() }
}

pub(crate) fn run(p: &Params) -> Result<RunOutput, String> {
    let s = p.scale;
    let (inp, digest) = inputs(p);
    let (aux, anon) = (&inp.split.auxiliary, &inp.split.anonymized);
    println!(
        "inputs: digest {:016x}; {} auxiliary users ({} posts), {} anonymized users ({} posts); \
         {} attacks of <= {} posts, {} ingests of <= {} posts; {} set-ups{}",
        digest,
        aux.n_users,
        aux.posts.len(),
        anon.n_users,
        anon.posts.len(),
        inp.attacks.len(),
        REQUEST_POSTS,
        inp.ingests.len(),
        INGEST_POSTS,
        s.setups,
        if p.trace { format!(", {} traced attacks", s.traced_attacks) } else { String::new() },
    );

    let mut t = Tracer::new();
    let classifier = AttackConfig::default().classifier;
    std::fs::create_dir_all(&p.work_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", p.work_dir))?;
    let snapshot = p.work_dir.join(format!("serve-{}-{}.snap", std::process::id(), p.seed));
    if p.trace {
        pipeline::corpus_build(&mut t, aux, classifier);
    }
    PreparedCorpus::build(aux.clone(), classifier)
        .save_streaming(&snapshot)
        .map_err(|e| format!("snapshot write failed: {e}"))?;
    let result = measure(p, &inp, &snapshot, &mut t);
    let _ = std::fs::remove_file(&snapshot);
    result
}

fn measure(p: &Params, inp: &Inputs, snapshot: &Path, t: &mut Tracer) -> Result<RunOutput, String> {
    let s = p.scale;
    reset_peak_rss().map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;
    let mut ledger = Ledger::default();

    let mut setup = Vec::with_capacity(s.setups);
    let mut daemon = None;
    for _ in 0..s.setups {
        if let Some(d) = daemon.take() {
            stop(d, None);
        }
        let (bound, secs) = timed(|| bind(snapshot));
        ledger.record("set-up", Vec::new());
        daemon = Some(bound?);
        setup.push(secs);
    }
    let daemon = daemon.expect("at least one set-up");
    let mut client =
        ServiceClient::connect(daemon.addr()).map_err(|e| format!("connect failed: {e}"))?;

    let options = options();
    let mut replies: Vec<Option<AttackReply>> = Vec::with_capacity(inp.attacks.len());
    let mut ingested: Vec<Option<(usize, usize)>> = Vec::with_capacity(inp.ingests.len());
    let mut attack_s = Vec::with_capacity(inp.attacks.len());
    let mut ingest_s = Vec::with_capacity(inp.ingests.len());
    let ((), wall) = timed(|| {
        for op in &inp.schedule {
            match *op {
                Op::Attack(i) => {
                    let (reply, secs) = timed(|| client.attack(&inp.attacks[i], &options));
                    attack_s.push(secs);
                    replies.push(reply.ok());
                }
                Op::Ingest(j) => {
                    let (reply, secs) = timed(|| client.add_auxiliary_users(&inp.ingests[j]));
                    ingest_s.push(secs);
                    ingested.push(reply.ok().map(|r| (field(&r, "users"), field(&r, "posts"))));
                }
            }
        }
    });
    let peak = peak_rss_mib().map_err(|e| format!("cannot read the peak RSS: {e}"))?;
    let registry = daemon_families(&daemon.registry());
    stop(daemon, Some(client));

    // Checks: a seeded sample of attacks (always including the last,
    // which follows the last ingest) re-run in process against a mirror
    // corpus that replays every ingest with `append_users`.
    if p.corrupt {
        if let Some(reply) = replies.last_mut().and_then(Option::as_mut) {
            reply.mapping[0] = if reply.mapping[0].is_some() { None } else { Some(0) };
        }
    }
    let mut checked: BTreeSet<usize> =
        sample_indices(inp.attacks.len(), CHECKED_ATTACKS, p.seed ^ 0x5e7e).into_iter().collect();
    checked.insert(inp.attacks.len() - 1);
    let engine = Engine::new(served_engine());
    let mut mirror = PreparedCorpus::load_with(snapshot, LoadMode::Mapped)
        .map_err(|e| format!("snapshot load failed: {e}"))?;
    let mut quality = Quality::default();
    for op in &inp.schedule {
        match *op {
            Op::Attack(i) => {
                let problems = match &replies[i] {
                    None => vec!["request failed".to_string()],
                    Some(reply) => {
                        let batch = &inp.batches[i];
                        quality.add(&reply.mapping, &reply.candidates, |u| {
                            inp.split.oracle.true_mapping(batch[u])
                        });
                        if checked.contains(&i) {
                            let expected = Attack::from(mirror.attack(&engine, &inp.attacks[i]));
                            diff(&expected.result, &reply_mapping(reply))
                        } else {
                            Vec::new()
                        }
                    }
                };
                ledger.record(&format!("attack {i}"), problems);
            }
            Op::Ingest(j) => {
                mirror.append_users(&inp.ingests[j]);
                let expected = (mirror.n_users(), mirror.n_posts());
                let problems = match ingested[j] {
                    None => vec!["request failed".to_string()],
                    Some(got) if got != expected => {
                        vec![format!("corpus reported {got:?} users/posts, expected {expected:?}")]
                    }
                    Some(_) => Vec::new(),
                };
                ledger.record(&format!("ingest {j}"), problems);
            }
        }
    }
    drop(mirror);

    let attack_p50 = median(&attack_s);
    let attacked: usize = inp.attacks.iter().map(|f| f.n_users).sum();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("setup_s", median(&setup)),
        ("users_per_s", attacked as f64 / wall),
        ("attack_p50_s", attack_p50),
        ("peak_rss_mib", peak),
    ]);
    insert_quality(&mut values, &quality);
    let mut extra = vec![
        Metric::new("attack_p90_s", quantile(&attack_s, 0.9), "s"),
        Metric::new("ingest_p50_s", if ingest_s.is_empty() { 0.0 } else { median(&ingest_s) }, "s"),
    ];
    extra.extend(registry_metrics(&registry));
    let mut details = vec![
        ("setup_s".to_string(), samples(&setup)),
        ("attack_s".to_string(), samples(&attack_s)),
        ("ingest_s".to_string(), samples(&ingest_s)),
        ("daemon".to_string(), registry_json(&registry)),
    ];

    if p.trace {
        let layers = traced(p, inp, snapshot, t, &mut ledger)?;
        values.extend(layers.engine);
        values.extend(aux_build_layers(&t.summarize("corpus.build")));
        // The traced phase runs a prefix of the schedule: compare its
        // round trips with the untraced ones of the same attacks.
        let untraced = median(&attack_s[..s.traced_attacks.min(attack_s.len())]);
        values.insert("trace.attack_s", layers.round_trip);
        values.insert("trace.overhead_s", layers.round_trip - untraced);
        println!("set-up layers: {}", pipeline::corpus_build_line(t));
        extra.extend(layers.serve);
        details.push(("trace".into(), t.to_json()));
    }
    Ok(finish(ledger, p.trace, &values, extra, details))
}

struct ServeLayers {
    engine: BTreeMap<&'static str, f64>,
    round_trip: f64,
    serve: Vec<Metric>,
}

fn traced(
    p: &Params,
    inp: &Inputs,
    snapshot: &Path,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<ServeLayers, String> {
    let options = options();
    let config = served_engine();
    t.set_request(0);
    let daemon = t.span("setup", |t| {
        let corpus =
            t.span("corpus.load", |_| PreparedCorpus::load_with(snapshot, LoadMode::Mapped));
        let corpus = corpus.map_err(|e| format!("snapshot load failed: {e}"))?;
        t.span("daemon.bind", |_| {
            Daemon::bind_with(
                "127.0.0.1:0",
                default_config(),
                Some(corpus),
                DaemonLimits::default(),
            )
        })
        .map_err(|e| format!("daemon bind failed: {e}"))
    })?;
    let mut mirror = PreparedCorpus::load_with(snapshot, LoadMode::Mapped)
        .map_err(|e| format!("snapshot load failed: {e}"))?;
    let mut client =
        ServiceClient::connect(daemon.addr()).map_err(|e| format!("connect failed: {e}"))?;

    let mut attacks_seen = 0;
    for (k, op) in inp.schedule.iter().enumerate() {
        if attacks_seen == p.scale.traced_attacks {
            break;
        }
        t.set_request(k + 1);
        match *op {
            Op::Attack(i) => {
                attacks_seen += 1;
                let forum = &inp.attacks[i];
                let reply = t.span("request", |_| client.attack(forum, &options));
                let Ok(reply) = reply else {
                    ledger.record(&format!("traced attack {i}"), vec!["request failed".into()]);
                    continue;
                };
                let replayed = t.span("replay", |t| {
                    let bytes =
                        t.span("client.encode", |_| client.encode_attack_request(forum, &options));
                    t.count("json.request_kib", bytes.len() as f64 / 1024.0);
                    let text = String::from_utf8(bytes).expect("the client emits UTF-8 JSON");
                    let request = t.span("json.parse", |_| Json::parse(text.trim_end()));
                    let decoded = t.span("protocol.decode", |_| {
                        request.map_err(|e| e.to_string()).and_then(|r| {
                            r.get("forum").ok_or("no forum".to_string()).and_then(forum_from_json)
                        })
                    });
                    let decoded = decoded.expect("the daemon accepted this request");
                    let traced =
                        pipeline::prepared_attack(t, &config, &mirror.prepared(), &decoded);
                    t.span("json.emit", |_| emit_reply(&traced.result, &reply.raw));
                    let line = reply.raw.emit();
                    t.span("client.reply_parse", |_| {
                        Json::parse(&line).expect("the reply parsed once")
                    });
                    let frame = encode_attack_frame(forum, &options);
                    t.span("frame.decode", |_| {
                        decode_attack_payload(
                            &frame[FRAME_HEADER_BYTES..frame.len() - FRAME_TRAILER_BYTES],
                        )
                        .expect("the frame codec round-trips")
                    });
                    traced
                });
                ledger.record(
                    &format!("traced attack {i}"),
                    diff(&replayed.result, &reply_mapping(&reply)),
                );
            }
            Op::Ingest(j) => {
                let chunk = &inp.ingests[j];
                let reply = t.span("ingest", |_| client.add_auxiliary_users(chunk));
                t.span("ingest.replay", |t| {
                    let line = t.span("ingest.encode", |_| {
                        Json::Obj(vec![
                            ("cmd".into(), Json::Str("add_auxiliary_users".into())),
                            ("forum".into(), forum_to_json(chunk)),
                        ])
                        .emit()
                    });
                    let decoded = t.span("ingest.json_parse", |_| {
                        Json::parse(&line).map_err(|e| e.to_string()).and_then(|r| {
                            r.get("forum").ok_or("no forum".to_string()).and_then(forum_from_json)
                        })
                    });
                    let decoded = decoded.expect("the daemon accepted this chunk");
                    let mut next = t.span("ingest.clone", |_| mirror.clone());
                    t.span("ingest.append", |_| next.append_users(&decoded));
                    mirror = next;
                });
                let problems = match reply {
                    Ok(r)
                        if (field(&r, "users"), field(&r, "posts"))
                            == (mirror.n_users(), mirror.n_posts()) =>
                    {
                        Vec::new()
                    }
                    Ok(_) => vec!["corpus size differs from the replayed ingest".into()],
                    Err(e) => vec![format!("request failed: {e}")],
                };
                ledger.record(&format!("traced ingest {j}"), problems);
            }
        }
    }
    stop(daemon, Some(client));

    // Per-request wait: the round trip minus every replayed span that
    // also ran inside it (client encode and reply parse, server parse,
    // decode, engine, emit).
    let replays = t.summarize("replay");
    let round_trips = t.summarize("request");
    let inside = [
        "client.encode",
        "json.parse",
        "protocol.decode",
        "engine",
        "json.emit",
        "client.reply_parse",
    ];
    let wait: Vec<f64> = round_trips
        .iter()
        .filter_map(|rt| {
            let replay = replays.iter().find(|r| r.request == rt.request)?;
            Some(rt.wall - inside.iter().map(|n| replay.seconds(n)).sum::<f64>())
        })
        .collect();
    let ingests = t.summarize("ingest");
    let ingest_replays = t.summarize("ingest.replay");
    let ingest_inside = ["ingest.encode", "ingest.json_parse", "ingest.clone", "ingest.append"];
    let ingest_wait: Vec<f64> = ingests
        .iter()
        .filter_map(|rt| {
            let replay = ingest_replays.iter().find(|r| r.request == rt.request)?;
            Some(rt.wall - ingest_inside.iter().map(|n| replay.seconds(n)).sum::<f64>())
        })
        .collect();

    let med_of = |sums: &[crate::trace::Summary], name: &str| {
        if sums.is_empty() {
            0.0
        } else {
            median(&sums.iter().map(|s| s.seconds(name)).collect::<Vec<_>>())
        }
    };
    let setup = t.summarize("setup");
    let serve = vec![
        Metric::new("corpus.load_s", med_of(&setup, "corpus.load"), "s"),
        Metric::new("daemon.bind_s", med_of(&setup, "daemon.bind"), "s"),
        Metric::new("json.parse_s", med_of(&replays, "json.parse"), "s"),
        Metric::new(
            "json.request_kib",
            median(&replays.iter().map(|r| r.count("json.request_kib")).collect::<Vec<_>>()),
            "KiB",
        ),
        Metric::new("protocol.decode_s", med_of(&replays, "protocol.decode"), "s"),
        Metric::new("json.emit_s", med_of(&replays, "json.emit"), "s"),
        Metric::new("client.encode_s", med_of(&replays, "client.encode"), "s"),
        Metric::new("client.reply_parse_s", med_of(&replays, "client.reply_parse"), "s"),
        Metric::new("frame.decode_s", med_of(&replays, "frame.decode"), "s"),
        Metric::new("daemon.wait_s", median(&wait), "s"),
        Metric::new("ingest.json_parse_s", med_of(&ingest_replays, "ingest.json_parse"), "s"),
        Metric::new("ingest.clone_s", med_of(&ingest_replays, "ingest.clone"), "s"),
        Metric::new("ingest.append_s", med_of(&ingest_replays, "ingest.append"), "s"),
        Metric::new(
            "ingest.wait_s",
            if ingest_wait.is_empty() { 0.0 } else { median(&ingest_wait) },
            "s",
        ),
    ];
    Ok(ServeLayers {
        engine: engine_layers(&t.summarize("engine")),
        round_trip: median(&round_trips.iter().map(|r| r.wall).collect::<Vec<_>>()),
        serve,
    })
}

/// The reply the daemon builds for an attack: mapping and candidates as
/// JSON plus the engine report (taken from the served reply), emitted.
fn emit_reply(result: &Mapping, served: &Json) -> String {
    let mapping = result.mapping.iter().map(|m| m.map_or(Json::Null, Json::int)).collect();
    let candidates = result
        .candidates
        .iter()
        .map(|c| Json::Arr(c.iter().map(|&v| Json::int(v)).collect()))
        .collect();
    let mut fields =
        vec![("mapping".into(), Json::Arr(mapping)), ("candidates".into(), Json::Arr(candidates))];
    if let Some(report) = served.get("report") {
        fields.push(("report".into(), report.clone()));
    }
    ok_response(fields).emit()
}

fn field(reply: &Json, name: &str) -> usize {
    reply.get(name).and_then(Json::as_usize).unwrap_or(usize::MAX)
}

/// A snapshot of one of the daemon's batching histograms.
struct Family {
    name: String,
    count: u64,
    sum: f64,
    p50: f64,
}

/// Snapshots of the daemon's batching histograms; a family the daemon no
/// longer exports is left out.
fn daemon_families(registry: &Registry) -> Vec<Family> {
    registry
        .snapshot()
        .into_iter()
        .filter(|m| DAEMON_FAMILIES.contains(&m.name.as_str()))
        .filter_map(|m| match m.value {
            MetricValue::Histogram(h) => Some(Family {
                name: m.name,
                count: h.count(),
                sum: h.sum_seconds(),
                p50: h.quantile(0.5).seconds,
            }),
            _ => None,
        })
        .collect()
}

fn registry_metrics(families: &[Family]) -> Vec<Metric> {
    families
        .iter()
        .map(|f| match f.name.as_str() {
            "daemon_queue_seconds" => Metric::new("daemon.queue_s", f.p50, "s"),
            "daemon_batch_size" => {
                Metric::new("daemon.batch_size", f.sum / f.count.max(1) as f64, "count")
            }
            _ => Metric::new("daemon.batch_window_s", f.p50, "s"),
        })
        .collect()
}

fn registry_json(families: &[Family]) -> Json {
    Json::Arr(
        families
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(f.name.clone())),
                    ("count".into(), Json::Num(f.count as f64)),
                    ("sum".into(), Json::Num(f.sum)),
                    ("p50".into(), Json::Num(f.p50)),
                ])
            })
            .collect(),
    )
}
