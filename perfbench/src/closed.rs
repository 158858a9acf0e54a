//! `closed-10k`: repeated full attacks through `PreparedCorpus::attack`
//! (`Engine::run_prepared`) on a WebMD-like closed world, where Top-K
//! dominates. Set-up is `PreparedCorpus::build`.

use std::collections::BTreeMap;

use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_core::{AttackConfig, Side};
use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_engine::Engine;
use dehealth_service::PreparedCorpus;

use crate::check::{corrupt, oracle_sample, same_attack, sampled_oracle, Attack, Ledger, Quality};
use crate::inputs::digest;
use crate::measure::{median, peak_rss_mib, reset_peak_rss, timed};
use crate::metrics::{aux_build_layers, engine_layers, finish, insert_quality, samples};
use crate::trace::Tracer;
use crate::{engine_config, pipeline, Params, RunOutput, FORUM_SEED};

pub(crate) fn run(p: &Params) -> Result<RunOutput, String> {
    let s = p.scale;
    let forum = Forum::generate(&ForumConfig::webmd_like(s.users), FORUM_SEED);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), p.seed.wrapping_add(1));
    drop(forum);
    let (aux, anon) = (&split.auxiliary, &split.anonymized);
    println!(
        "inputs: digest {:016x}; {} auxiliary users ({} posts), {} anonymized users ({} posts); \
         {} set-ups, {} attacks{}",
        digest(&[aux, anon]),
        aux.n_users,
        aux.posts.len(),
        anon.n_users,
        anon.posts.len(),
        s.setups,
        s.attacks,
        if p.trace { format!(", {} traced attacks", s.traced_attacks) } else { String::new() },
    );
    let config = engine_config(AttackConfig::default());
    let engine = Engine::new(config.clone());
    reset_peak_rss().map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;

    let mut ledger = Ledger::default();
    let mut setup = Vec::with_capacity(s.setups);
    let mut corpus = None;
    for i in 0..s.setups {
        drop(corpus.take());
        let forum = aux.clone();
        let (built, secs) = timed(|| PreparedCorpus::build(forum, config.attack.classifier));
        let mut problems = Vec::new();
        if built.n_posts() != aux.posts.len() || built.index().n_users() != aux.n_users {
            problems.push("prepared corpus does not cover the auxiliary forum".to_string());
        }
        ledger.record(&format!("set-up {i}"), problems);
        setup.push(secs);
        corpus = Some(built);
    }
    let corpus = corpus.expect("at least one set-up");

    let (timed_attacks, wall) = timed(|| {
        (0..s.attacks).map(|_| timed(|| corpus.attack(&engine, anon))).collect::<Vec<_>>()
    });
    let peak = peak_rss_mib().map_err(|e| format!("cannot read the peak RSS: {e}"))?;
    let attack_s: Vec<f64> = timed_attacks.iter().map(|(_, secs)| *secs).collect();
    let mut attacks: Vec<Attack> = timed_attacks.into_iter().map(|(o, _)| o.into()).collect();

    // Checks, after the timed phase and the peak-RSS reading.
    let (rows, refined) = oracle_sample(anon.n_users, p.seed);
    if p.corrupt {
        corrupt(&mut attacks[0].result.mapping, refined[0]);
    }
    let anon_feats = extract_post_features(anon);
    let anon_uda = UdaGraph::build_with_features(anon, &anon_feats);
    let anon_side = Side { forum: anon, uda: &anon_uda, post_features: &anon_feats };
    let aux_side =
        Side { forum: corpus.forum(), uda: corpus.uda(), post_features: corpus.features() };
    let first = &attacks[0];
    ledger.record(
        "attack 0",
        sampled_oracle(first, &anon_side, &aux_side, &config.attack, &rows, &refined),
    );
    for (i, attack) in attacks.iter().enumerate().skip(1) {
        ledger.record(&format!("attack {i}"), same_attack(first, attack));
    }
    let mut quality = Quality::default();
    quality.add(&first.result.mapping, &first.result.candidates, |u| split.oracle.true_mapping(u));

    let attack_p50 = median(&attack_s);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("setup_s", median(&setup)),
        ("users_per_s", (anon.n_users * s.attacks) as f64 / wall),
        ("attack_p50_s", attack_p50),
        ("peak_rss_mib", peak),
    ]);
    insert_quality(&mut values, &quality);
    let mut details = vec![
        ("setup_s".to_string(), samples(&setup)),
        ("attack_s".to_string(), samples(&attack_s)),
    ];

    if p.trace {
        let mut t = Tracer::new();
        t.set_request(0);
        pipeline::corpus_build(&mut t, aux, config.attack.classifier);
        for i in 0..s.traced_attacks {
            t.set_request(i + 1);
            let traced = pipeline::prepared_attack(&mut t, &config, &corpus.prepared(), anon);
            ledger.record(&format!("traced attack {i}"), same_attack(first, &traced));
        }
        values.extend(engine_layers(&t.summarize("engine")));
        values.extend(aux_build_layers(&t.summarize("corpus.build")));
        values.insert("trace.overhead_s", values["trace.attack_s"] - attack_p50);
        println!("set-up layers: {}", pipeline::corpus_build_line(&t));
        details.push(("trace".into(), t.to_json()));
    }
    Ok(finish(ledger, p.trace, &values, Vec::new(), details))
}
