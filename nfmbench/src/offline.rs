//! `ds2-offline`: DeepSpeech2 at half scale (5 GRU layers of 400
//! neurons, ~3.5 MB of weights per layer) served in batches by an
//! in-process engine, once exact and once BNN-memoized per batch.
//!
//! This is the regime where the paper says reuse pays: weight fetch
//! dominates, so kernels, BNN and memo do nearly all the work and the
//! wire and queue do none.

use crate::data::{self, Entry, Kind, Model};
use crate::report::{self, Outcome};
use crate::trace::{Split, TimedPredictor, TraceSink};
use crate::{ms, nproc, Args, ServeLayer};
use nfm_core::{BnnMemoConfig, BnnPredictor, ExactPredictor, ReuseStats};
use nfm_net::{WireRequest, WireResponse};
use nfm_serve::{
    CompletionStatus, Engine, EngineBuilder, InferenceRequest, InferenceResponse, ModelRegistry,
    PredictorKind, RequestOptions,
};
use nfm_workloads::NetworkId;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "ds2";
/// θ of the memoized passes.
const THETA: f32 = 0.5;
/// Answers the traced run's untraced phase collects at least, so
/// `serve.queue_p99_ms` resolves.
const MIN_ANSWERS: usize = 1000;

/// Sizes of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// DeepSpeech2 scale (`0.5`: 400 neurons per layer).
    pub scale: f32,
    /// Utterances in the seeded pool (the quality set).
    pub pool: usize,
    /// Utterances per batch.
    pub batch: usize,
    /// Utterance lengths, inclusive.
    pub lengths: (usize, usize),
    pub lanes: usize,
    pub workers: usize,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Flips one output bit before the checks (the gate's own test).
    pub corrupt: bool,
}

impl Config {
    /// The benchmark's size.
    pub fn standard() -> Config {
        Config {
            scale: 0.5,
            pool: 256,
            batch: 32,
            lengths: (16, 64),
            lanes: 8,
            workers: nproc(),
            setups: 11,
            corrupt: false,
        }
    }
}

fn predictor_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Exact => "exact",
        Kind::Bnn(_) => "bnn",
    }
}

/// Artifact bytes to an engine: load, register, build.
fn engine_from_artifact(cfg: &Config, model: &Model) -> Result<Engine, String> {
    let loaded = nfm_model::load_from_slice(&model.artifact).map_err(|e| format!("load: {e}"))?;
    let mut registry = ModelRegistry::new();
    registry
        .register_loaded(MODEL, loaded, PredictorKind::Exact)
        .map_err(|e| e.to_string())?;
    registry
        .add_predictor(
            MODEL,
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(THETA)),
        )
        .map_err(|e| e.to_string())?;
    build(cfg, registry)
}

/// The same engine with timed evaluators.
fn traced_engine(cfg: &Config, model: &Model, sink: &Arc<TraceSink>) -> Result<Engine, String> {
    let loaded = nfm_model::load_from_slice(&model.artifact).map_err(|e| format!("load: {e}"))?;
    let mirror = Arc::new(loaded.mirror.ok_or("artifact without a binary mirror")?);
    let mut registry = ModelRegistry::new();
    registry
        .register_custom(
            MODEL,
            loaded.network,
            "exact",
            TimedPredictor::wrap(Arc::new(ExactPredictor), sink),
        )
        .map_err(|e| e.to_string())?;
    let bnn = BnnPredictor::new(mirror, BnnMemoConfig::with_threshold(THETA));
    registry
        .add_custom_predictor(MODEL, "bnn", TimedPredictor::wrap(Arc::new(bnn), sink))
        .map_err(|e| e.to_string())?;
    build(cfg, registry)
}

fn build(cfg: &Config, registry: ModelRegistry) -> Result<Engine, String> {
    EngineBuilder::from_registry(registry)
        .workers(cfg.workers)
        .lanes(cfg.lanes)
        .queue_capacity(cfg.batch.max(1) * 2)
        .build()
        .map_err(|e| e.to_string())
}

/// One batch through the engine.
struct Pass {
    kind: Kind,
    secs: f64,
    steps: usize,
    /// `(request id, pool index)` in submission order.
    sent: Vec<(u64, usize)>,
    responses: Vec<InferenceResponse>,
    queue_depth: usize,
}

fn pass(
    engine: &Engine,
    entries: &[Entry],
    indices: &[usize],
    kind: Kind,
    next_id: &mut u64,
) -> Result<Pass, String> {
    let options = RequestOptions::new().predictor(predictor_name(kind));
    let mut sent = Vec::with_capacity(indices.len());
    let requests: Vec<InferenceRequest> = indices
        .iter()
        .map(|&i| {
            let id = *next_id;
            *next_id += 1;
            sent.push((id, i));
            InferenceRequest::new(id, entries[i].sequence.clone()).with_options(options.clone())
        })
        .collect();
    let steps = indices.iter().map(|&i| entries[i].steps()).sum();
    let started = Instant::now();
    engine
        .submit_all(requests)
        .map_err(|e| format!("submit: {e}"))?;
    let queue_depth = engine.queue_depth();
    let responses = engine.drain();
    let secs = started.elapsed().as_secs_f64();
    Ok(Pass {
        kind,
        secs,
        steps,
        sent,
        responses,
        queue_depth,
    })
}

/// Alternating exact and memoized passes over successive batches of the
/// pool until `window` has passed and at least `min_answers` answers
/// came back (bounded by three windows).
fn passes(
    cfg: &Config,
    engine: &Engine,
    entries: &[Entry],
    window: Duration,
    min_answers: usize,
    next_id: &mut u64,
) -> Result<Vec<Pass>, String> {
    let mut out = Vec::new();
    let mut answers = 0;
    let started = Instant::now();
    let mut k = 0;
    while started.elapsed() < window || (answers < min_answers && started.elapsed() < 3 * window) {
        let indices: Vec<usize> = (0..cfg.batch)
            .map(|j| (k * cfg.batch + j) % entries.len())
            .collect();
        for kind in [Kind::Exact, Kind::Bnn(THETA)] {
            let p = pass(engine, entries, &indices, kind, next_id)?;
            answers += p.responses.len();
            out.push(p);
        }
        k += 1;
    }
    Ok(out)
}

/// Every request answered exactly once, `Done`, bit-identical to its
/// single-sequence reference.
fn check(entries: &[Entry], passes: &[Pass]) -> Result<(), String> {
    for (n, p) in passes.iter().enumerate() {
        if p.responses.len() != p.sent.len() {
            return Err(format!(
                "pass {n}: {} requests, {} responses",
                p.sent.len(),
                p.responses.len()
            ));
        }
        for (id, i) in &p.sent {
            let mut matching = p.responses.iter().filter(|r| r.id == *id);
            let r = matching
                .next()
                .ok_or_else(|| format!("request {id} unanswered"))?;
            if matching.next().is_some() {
                return Err(format!("request {id} answered twice"));
            }
            if r.status != CompletionStatus::Done {
                return Err(format!("request {id} completed as {:?}", r.status));
            }
            data::check_entry(&format!("request {id}"), &entries[*i], p.kind, &r.outputs)?;
        }
    }
    Ok(())
}

fn steps_per_s(passes: &[Pass], exact: bool) -> Vec<f64> {
    passes
        .iter()
        .filter(|p| (p.kind == Kind::Exact) == exact)
        .map(|p| p.steps as f64 / p.secs)
        .collect()
}

fn wall_ms(passes: &[Pass]) -> f64 {
    passes.iter().map(|p| p.secs).sum::<f64>() * 1e3
}

fn steps(passes: &[Pass]) -> u64 {
    passes.iter().map(|p| p.steps as u64).sum()
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &Args) -> Result<Outcome, String> {
    let model = Model::build(NetworkId::DeepSpeech2, cfg.scale)?;
    let (lo, hi) = cfg.lengths;
    let jobs = data::utterances(&model, args.seed, cfg.pool, lo, hi)
        .into_iter()
        .map(|s| (s, Kind::Bnn(THETA)))
        .collect();
    let entries = data::with_references(&model, jobs, nproc())?;
    let mut o = Outcome::default();
    o.note(format!(
        "ds2-offline: DeepSpeech2 x{} ({} weights, {} layers), {} utterances of {lo}-{hi} steps, \
         batches of {}, {} workers x {} lanes, BNN theta {}",
        cfg.scale,
        model.network.weight_count(),
        model.network.layers().len(),
        cfg.pool,
        cfg.batch,
        cfg.workers,
        cfg.lanes,
        THETA
    ));

    // Set-up: artifact bytes to the first answered request.
    let probe = InferenceRequest::new(0, entries[0].sequence[..1].to_vec());
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut engine = None;
    for _ in 0..cfg.setups {
        let started = Instant::now();
        let e = engine_from_artifact(cfg, &model)?;
        e.submit(probe.clone()).map_err(|e| format!("probe: {e}"))?;
        let answered = e.drain();
        setup_s.push(started.elapsed().as_secs_f64());
        if answered.len() != 1 || answered[0].status != CompletionStatus::Done {
            return Err("the set-up probe was not answered".into());
        }
        if let Some(old) = engine.replace(e) {
            old.shutdown();
        }
    }
    let engine = engine.ok_or("no set-up ran")?;

    let mut next_id = 1;
    let warm: Vec<usize> = (0..cfg.batch.min(entries.len())).collect();
    for kind in [Kind::Exact, Kind::Bnn(THETA)] {
        let p = pass(&engine, &entries, &warm, kind, &mut next_id)?;
        check(&entries, &[p])?;
    }
    let min_answers = if args.trace { MIN_ANSWERS } else { 0 };
    let mut timed = passes(
        cfg,
        &engine,
        &entries,
        args.window(),
        min_answers,
        &mut next_id,
    )?;
    let lane_borrows = engine.lane_borrows();
    let migrations = engine.migrations();
    engine.shutdown();
    if cfg.corrupt {
        if let Some(r) = timed.first_mut().and_then(|p| p.responses.first_mut()) {
            data::corrupt(&mut r.outputs);
        }
    }
    check(&entries, &timed)?;

    let answers: Vec<&InferenceResponse> = timed.iter().flat_map(|p| &p.responses).collect();
    o.attempted = answers.len() as u64;
    let exact = steps_per_s(&timed, true);
    let memo = steps_per_s(&timed, false);
    let (exact_med, memo_med) = (report::median(&exact), report::median(&memo));
    o.note(format!(
        "offline: {} passes; exact {:.1} steps/s, memo {:.1} steps/s (median of {} each); \
         memo/exact {:.3} (printed, not gated)",
        timed.len(),
        exact_med,
        memo_med,
        exact.len(),
        memo_med / exact_med
    ));
    if !args.trace {
        let latency: Vec<f64> = answers.iter().map(|r| ms(r.total_latency())).collect();
        o.note(format!(
            "latency (submit to result in a batch): {}, {}, {}",
            report::describe_percentile(&latency, 0.5, "ms"),
            report::describe_percentile(&latency, 0.9, "ms"),
            report::describe_percentile(&latency, 0.99, "ms")
        ));
        let loss = data::loss_pp(&model.metric, &entries);
        o.note(format!(
            "quality: {} loss {loss:.4} pp over {} utterances, memoized against exact",
            model.metric.kind().loss_label(),
            entries.len()
        ));
        o.metric("setup_s", report::median(&setup_s));
        o.metric("exact_steps_per_s", exact_med);
        o.metric("memo_steps_per_s", memo_med);
        o.metric("quality.loss_pp", loss);
        o.metric(
            "capacity_rps",
            answers.len() as f64 / (wall_ms(&timed) / 1e3),
        );
        o.metric(
            "latency_p50_ms",
            report::require_percentile("latency", &latency, 0.5)?,
        );
        return Ok(o);
    }

    // Traced run: engine and core layers from the untraced passes above,
    // evaluator time from a second, traced engine.
    let mut memo_stats = ReuseStats::new();
    let mut seen = vec![false; entries.len()];
    for p in timed.iter().filter(|p| p.kind != Kind::Exact) {
        for (id, i) in &p.sent {
            if !seen[*i] {
                seen[*i] = true;
                let r = p
                    .responses
                    .iter()
                    .find(|r| r.id == *id)
                    .ok_or("checked above")?;
                memo_stats.merge(&r.stats);
            }
        }
    }
    o.note(format!(
        "core: {} of {} pool entries served memoized",
        seen.iter().filter(|s| **s).count(),
        entries.len()
    ));
    crate::record_core(&mut o, &memo_stats);
    ServeLayer {
        queue_ms: answers.iter().map(|r| ms(r.queue_latency)).collect(),
        compute_ms: answers.iter().map(|r| ms(r.compute_latency)).collect(),
        wall_ms: wall_ms(&timed),
        lane_slots: cfg.workers * cfg.lanes,
        queue_depth_max: timed.iter().map(|p| p.queue_depth).max().unwrap_or(0),
        lane_borrows,
        migrations,
        rejects: 0,
    }
    .record(&mut o)?;
    let requests: Vec<WireRequest> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| WireRequest::new(i as u64, e.sequence.clone()).with_predictor("bnn"))
        .collect();
    let responses: Vec<WireResponse> = answers
        .iter()
        .take(entries.len())
        .map(|r| WireResponse::from_response(r.id, r))
        .collect();
    let codec = crate::replay::codec(&requests, &responses)?;
    o.note("net: no wire on this workload; codec replayed on its frames, overhead reported as 0");
    o.metric("net.overhead_p50_us", 0.0);
    o.metric("net.req_decode_ns", codec.req_decode_ns);
    o.metric("net.resp_encode_ns", codec.resp_encode_ns);
    o.metric("net.bytes_per_req", codec.bytes_per_req);
    crate::record_model(&mut o, &[&model.artifact])?;
    o.metric("swap.promote_ms", 0.0);
    o.metric("loadgen.send_lag_p99_us", 0.0);
    o.note("loadgen: no generator on this workload (batches are submitted whole); lag and in-flight reported as 0");
    o.metric("loadgen.in_flight_max", 0.0);
    crate::record_replays(&mut o, &model, &model)?;

    let sink = TraceSink::new();
    let traced = traced_engine(cfg, &model, &sink)?;
    let before = sink.sample()?;
    let traced_passes = passes(cfg, &traced, &entries, args.window(), 0, &mut next_id)?;
    let after = sink.sample()?;
    traced.shutdown();
    check(&entries, &traced_passes)?;
    o.attempted += traced_passes
        .iter()
        .map(|p| p.sent.len() as u64)
        .sum::<u64>();
    crate::record_trace(
        &mut o,
        &Split::between(&before, &after, wall_ms(&traced_passes), cfg.workers),
        cfg.workers,
        steps(&traced_passes),
        wall_ms(&timed) / steps(&timed) as f64,
    );
    Ok(o)
}
