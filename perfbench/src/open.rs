//! `open-hb-2k`: repeated one-shot `Engine::run` (the session path) on a
//! HealthBoards-like open world with mean verification, where feature
//! extraction and refined DA dominate and Top-K is small.
//!
//! The one-shot path has no set-up phase of its own, so `setup_s` is the
//! process's first, cold attack: work made lazy or moved into one-time
//! initialisation shows there. The measured attacks follow it.

use std::collections::BTreeMap;

use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_core::{AttackConfig, Side, Verification};
use dehealth_corpus::{open_world_split, Forum, ForumConfig};
use dehealth_engine::Engine;

use crate::check::{corrupt, oracle_sample, same_attack, sampled_oracle, Attack, Ledger, Quality};
use crate::inputs::digest;
use crate::measure::{median, peak_rss_mib, reset_peak_rss, timed};
use crate::metrics::{aux_build_layers, engine_layers, finish, insert_quality, samples, Metric};
use crate::trace::Tracer;
use crate::{engine_config, pipeline, Params, RunOutput, FORUM_SEED};

pub(crate) fn run(p: &Params) -> Result<RunOutput, String> {
    let s = p.scale;
    let forum = Forum::generate(&ForumConfig::healthboards_like(s.users), FORUM_SEED);
    let split = open_world_split(&forum, 0.7, p.seed.wrapping_add(1));
    drop(forum);
    let (aux, anon) = (&split.auxiliary, &split.anonymized);
    println!(
        "inputs: digest {:016x}; {} auxiliary users ({} posts), {} anonymized users ({} posts, \
         {} with a true mapping); 1 cold attack, {} attacks{}",
        digest(&[aux, anon]),
        aux.n_users,
        aux.posts.len(),
        anon.n_users,
        anon.posts.len(),
        split.oracle.n_overlapping(),
        s.attacks,
        if p.trace { format!(", {} traced attacks", s.traced_attacks) } else { String::new() },
    );
    let config = engine_config(AttackConfig {
        verification: Verification::Mean { r: 0.25 },
        ..AttackConfig::default()
    });
    let engine = Engine::new(config.clone());
    reset_peak_rss().map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;

    let (cold, cold_s) = timed(|| engine.run(aux, anon));
    let (timed_attacks, wall) =
        timed(|| (0..s.attacks).map(|_| timed(|| engine.run(aux, anon))).collect::<Vec<_>>());
    let peak = peak_rss_mib().map_err(|e| format!("cannot read the peak RSS: {e}"))?;
    let attack_s: Vec<f64> = timed_attacks.iter().map(|(_, secs)| *secs).collect();
    let mut attacks: Vec<Attack> = std::iter::once(cold)
        .chain(timed_attacks.into_iter().map(|(o, _)| o))
        .map(Attack::from)
        .collect();

    let (rows, refined) = oracle_sample(anon.n_users, p.seed);
    if p.corrupt {
        corrupt(&mut attacks[0].result.mapping, refined[0]);
    }
    let anon_feats = extract_post_features(anon);
    let anon_uda = UdaGraph::build_with_features(anon, &anon_feats);
    let aux_feats = extract_post_features(aux);
    let aux_uda = UdaGraph::build_with_features(aux, &aux_feats);
    let anon_side = Side { forum: anon, uda: &anon_uda, post_features: &anon_feats };
    let aux_side = Side { forum: aux, uda: &aux_uda, post_features: &aux_feats };
    let first = &attacks[0];
    let mut ledger = Ledger::default();
    ledger.record(
        "cold attack",
        sampled_oracle(first, &anon_side, &aux_side, &config.attack, &rows, &refined),
    );
    for (i, attack) in attacks.iter().enumerate().skip(1) {
        ledger.record(&format!("attack {}", i - 1), same_attack(first, attack));
    }
    let mut quality = Quality::default();
    quality.add(&first.result.mapping, &first.result.candidates, |u| split.oracle.true_mapping(u));

    let attack_p50 = median(&attack_s);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("setup_s", cold_s),
        ("users_per_s", (anon.n_users * s.attacks) as f64 / wall),
        ("attack_p50_s", attack_p50),
        ("peak_rss_mib", peak),
    ]);
    insert_quality(&mut values, &quality);
    let extra = vec![Metric::new("fp_rate", quality.fp_rate(), "fraction")];
    let mut details = vec![
        ("setup_s".to_string(), samples(&[cold_s])),
        ("attack_s".to_string(), samples(&attack_s)),
    ];

    if p.trace {
        let mut t = Tracer::new();
        for i in 0..s.traced_attacks {
            t.set_request(i);
            let traced = pipeline::session_attack(&mut t, &config, aux, anon);
            ledger.record(&format!("traced attack {i}"), same_attack(first, &traced));
        }
        let engine_spans = t.summarize("engine");
        values.extend(engine_layers(&engine_spans));
        values.extend(aux_build_layers(&engine_spans));
        values.insert("trace.overhead_s", values["trace.attack_s"] - attack_p50);
        details.push(("trace".into(), t.to_json()));
    }
    Ok(finish(ledger, p.trace, &values, extra, details))
}
