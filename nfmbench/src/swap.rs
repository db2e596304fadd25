//! `mixed-swap`: reads with writes beside them.  One engine serves a hot
//! DeepSpeech2 model at quarter scale (exact, ~75% of requests) and a
//! cold IMDB BNN model whose requests carry per-request θ overrides
//! drawn from more distinct values than `override_context_cap`, so
//! contexts are evicted and revived.  Traffic is a closed loop on one
//! connection; a second connection re-publishes the hot model's *same*
//! weights as an artifact through a `WireAdmin` swap every K requests.
//! Every swap must promote and every output must stay unchanged.
//!
//! It exercises registry and context churn, lane borrowing, canary
//! shadow compute and artifact load, which the other workloads never
//! touch.

use crate::client::{self, net_error, Flight, Log, Planned};
use crate::data::{self, Corpus, Entry, Kind, Model};
use crate::report::{self, Outcome};
use crate::trace::{Split, TimedPredictor, TraceSink};
use crate::wire::{
    answer_probe, check, memo_stats, net_overhead_us, responses, serve, steps_per_s,
};
use crate::{ms, nproc, Args, ServeLayer};
use nfm_core::{BnnMemoConfig, BnnPredictor, ExactPredictor};
use nfm_net::{NetClient, ServerFrame, ServerHandle, WireAdmin, WirePredictorKind, WireRequest};
use nfm_serve::{Engine, EngineBuilder, ModelRegistry, PredictorKind, SwapOutcome};
use nfm_tensor::rng::DeterministicRng;
use nfm_workloads::NetworkId;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOT: &str = "ds2q";
const COLD: &str = "imdb";

/// Longest a swap may take from its admin frame to its promotion.
const SWAP_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of hot requests.
const HOT_SHARE: f64 = 0.75;
/// θ overrides the cold requests draw from (more than any context cap
/// the workload runs with).
const THETAS: [f32; 8] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5];
/// Requests in flight.
const CONCURRENCY: usize = 16;
/// Canary comparisons a swap needs to promote.
const CANARY_MIN: u64 = 8;

/// Sizes of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// DeepSpeech2 scale of the hot model (`0.25`: 200 neurons).
    pub hot_scale: f32,
    pub hot_pool: usize,
    pub hot_lengths: (usize, usize),
    /// IMDB scale of the cold model.
    pub cold_scale: f32,
    pub corpus: usize,
    pub cold_pool: usize,
    pub cold_lengths: (usize, usize),
    /// Idle override contexts kept per worker (fewer than `THETAS`).
    pub override_context_cap: usize,
    pub lanes: usize,
    pub workers: usize,
    /// Requests sent between a promotion and the next swap.
    pub swap_every: u64,
    pub setups: usize,
    /// Flips one output bit before the checks (the gate's own test).
    pub corrupt: bool,
}

impl Config {
    /// The benchmark's size.
    pub fn standard() -> Config {
        Config {
            hot_scale: 0.25,
            hot_pool: 64,
            hot_lengths: (16, 64),
            cold_scale: 1.0,
            corpus: 2048,
            cold_pool: 3000,
            cold_lengths: (8, 48),
            override_context_cap: 4,
            lanes: 8,
            workers: nproc(),
            swap_every: 64,
            setups: 21,
            corrupt: false,
        }
    }
}

/// Both models, their pools and the request plan.
struct Plan {
    hot: Model,
    cold: Model,
    /// Hot entries first, then cold ones.
    entries: Vec<Entry>,
    hot_pool: usize,
}

impl Plan {
    fn request(&self, pool: usize) -> WireRequest {
        let entry = &self.entries[pool];
        let r = WireRequest::new(0, entry.sequence.clone());
        match entry.kind {
            Kind::Exact => r.with_model(HOT),
            Kind::Bnn(theta) => r.with_model(COLD).with_threshold(theta),
        }
    }
}

fn registry(plan: &Plan, sink: Option<&Arc<TraceSink>>) -> Result<ModelRegistry, String> {
    let load =
        |m: &Model| nfm_model::load_from_slice(&m.artifact).map_err(|e| format!("load: {e}"));
    let (hot, cold) = (load(&plan.hot)?, load(&plan.cold)?);
    let bnn = BnnMemoConfig::with_threshold(THETAS[THETAS.len() / 2]);
    let mut registry = ModelRegistry::new();
    match sink {
        None => {
            registry
                .register_loaded(HOT, hot, PredictorKind::Exact)
                .map_err(|e| e.to_string())?;
            registry
                .register_loaded(COLD, cold, PredictorKind::Bnn(bnn))
                .map_err(|e| e.to_string())?;
        }
        Some(sink) => {
            registry
                .register_custom(
                    HOT,
                    hot.network,
                    "exact",
                    TimedPredictor::wrap(Arc::new(ExactPredictor), sink),
                )
                .map_err(|e| e.to_string())?;
            let mirror = Arc::new(cold.mirror.ok_or("artifact without a binary mirror")?);
            let memo = TimedPredictor::wrap(Arc::new(BnnPredictor::new(mirror, bnn)), sink);
            registry
                .register_custom(COLD, cold.network, "bnn", memo)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(registry)
}

struct Live {
    handle: ServerHandle,
    conn: NetClient,
    admin: NetClient,
}

fn start(
    cfg: &Config,
    plan: &Plan,
    sink: Option<&Arc<TraceSink>>,
    probe: &WireRequest,
) -> Result<Live, String> {
    let engine = EngineBuilder::from_registry(registry(plan, sink)?)
        .workers(cfg.workers)
        .lanes(cfg.lanes)
        .override_context_cap(cfg.override_context_cap)
        .build()
        .map_err(|e| e.to_string())?;
    let handle = serve(engine)?;
    let mut conn = client::connect(handle.addr())?;
    answer_probe(&mut conn, probe)?;
    let admin = client::connect(handle.addr())?;
    Ok(Live {
        handle,
        conn,
        admin,
    })
}

/// The admin side of the loop: one swap at a time, each started
/// `swap_every` requests after the previous promotion.
struct Swapper<'a> {
    engine: &'a Engine,
    admin: &'a mut NetClient,
    artifact: &'a [u8],
    every: u64,
    /// Traffic sent since the last promotion.
    since: u64,
    next_admin_id: u64,
    /// The swap in flight: its send time and, once acknowledged, its
    /// staged version.
    pending: Option<(Instant, Option<u32>)>,
    last_poll: Instant,
    /// Send-to-promotion times, ms.
    promote_ms: Vec<f64>,
}

impl Swapper<'_> {
    /// Advances the swap state after one answered request; `true` while
    /// a swap waits for canary traffic.
    fn tick(&mut self) -> Result<bool, String> {
        self.since += 1;
        if let Some((sent, _)) = self.pending {
            if sent.elapsed() > SWAP_TIMEOUT {
                return Err(format!("a swap did not promote within {SWAP_TIMEOUT:?}"));
            }
        }
        match self.pending {
            None if self.since >= self.every => {
                let admin = WireAdmin::swap(self.next_admin_id, HOT, self.artifact.to_vec())
                    .predictors(vec![WirePredictorKind::Exact])
                    .fraction(0.5)
                    .min_requests(CANARY_MIN)
                    .tolerance(0.0);
                self.next_admin_id += 1;
                self.pending = Some((Instant::now(), None));
                self.admin
                    .send_admin(&admin)
                    .map_err(net_error("admin send"))?;
            }
            None => {}
            Some((sent, None)) => match self.admin.try_recv().map_err(net_error("admin recv"))? {
                Some(ServerFrame::AdminOk(ok)) => self.pending = Some((sent, Some(ok.version))),
                Some(other) => return Err(format!("swap refused: {other:?}")),
                None => {}
            },
            Some((sent, Some(version))) if self.last_poll.elapsed() >= Duration::from_millis(1) => {
                self.last_poll = Instant::now();
                if self.engine.swap_status(HOT).is_none() {
                    let live = self.engine.registry().version(HOT);
                    if live != Some(version) {
                        return Err(format!(
                            "swap to version {version} did not promote (live {live:?})"
                        ));
                    }
                    self.promote_ms.push(ms(sent.elapsed()));
                    self.pending = None;
                    self.since = 0;
                }
            }
            Some(_) => {}
        }
        Ok(self.pending.is_some())
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &Args) -> Result<Outcome, String> {
    let hot = Model::build(NetworkId::DeepSpeech2, cfg.hot_scale)?;
    let cold = Model::build(NetworkId::ImdbSentiment, cfg.cold_scale)?;
    let (lo, hi) = cfg.hot_lengths;
    let hot_jobs = data::utterances(&hot, args.seed, cfg.hot_pool, lo, hi)
        .into_iter()
        .map(|s| (s, Kind::Exact))
        .collect();
    let (clo, chi) = cfg.cold_lengths;
    let corpus = Corpus::new(&cold, cfg.corpus, chi);
    let mut rng = DeterministicRng::seed_from_u64(args.seed ^ 0xC01D);
    let cold_jobs = (0..cfg.cold_pool)
        .map(|_| {
            let text = corpus.draw(&mut rng, clo, chi);
            (text, Kind::Bnn(THETAS[rng.index(THETAS.len())]))
        })
        .collect();
    let mut entries = data::with_references(&hot, hot_jobs, nproc())?;
    let cold_entries = data::with_references(&cold, cold_jobs, nproc())?;
    let loss = data::loss_pp(&cold.metric, &cold_entries);
    entries.extend(cold_entries);
    let plan = Plan {
        hot,
        cold,
        entries,
        hot_pool: cfg.hot_pool,
    };
    let mut o = Outcome::default();
    o.note(format!(
        "mixed-swap: hot DeepSpeech2 x{} exact ({} weights, {:.0}% of requests, {} utterances of {lo}-{hi} steps), \
         cold IMDB x{} BNN ({} requests of {clo}-{chi} tokens, theta from {:?}, context cap {}); \
         {} workers x {} lanes; closed loop at concurrency {}; a same-weights swap of the hot model every {} requests",
        cfg.hot_scale,
        plan.hot.network.weight_count(),
        HOT_SHARE * 100.0,
        cfg.hot_pool,
        cfg.cold_scale,
        cfg.cold_pool,
        THETAS,
        cfg.override_context_cap,
        cfg.workers,
        cfg.lanes,
        CONCURRENCY,
        cfg.swap_every
    ));

    // One timestep of the hot model: the probe's cost does not depend
    // on the seed.
    let probe = WireRequest::new(0, plan.entries[0].sequence[..1].to_vec()).with_model(HOT);
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut live = None;
    for _ in 0..cfg.setups {
        let started = Instant::now();
        let l = start(cfg, &plan, None, &probe)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = live.replace(l) {
            old.handle.shutdown();
        }
    }
    let Live {
        handle,
        mut conn,
        mut admin,
    } = live.ok_or("no set-up ran")?;

    // Requests: hot with probability `hot_share`, each side cycling its
    // own pool.
    let mut traffic = DeterministicRng::seed_from_u64(args.seed ^ 0x7AFF);
    let (mut next_hot, mut next_cold) = (0usize, 0usize);
    let cold_pool = plan.entries.len() - plan.hot_pool;
    let mut next = || {
        let pool = if traffic.coin(HOT_SHARE) {
            next_hot += 1;
            (next_hot - 1) % plan.hot_pool
        } else {
            next_cold += 1;
            plan.hot_pool + (next_cold - 1) % cold_pool
        };
        Planned {
            pool,
            request: plan.request(pool),
        }
    };
    let engine = handle.engine();
    let mut swapper = Swapper {
        engine,
        admin: &mut admin,
        artifact: &plan.hot.artifact,
        every: cfg.swap_every,

        since: 0,
        next_admin_id: 1,
        pending: None,
        last_poll: Instant::now(),
        promote_ms: Vec::new(),
    };
    let mut flight = Flight::new();
    let mut depth_max = 0;
    let mut tick = || {
        if args.trace {
            depth_max = depth_max.max(engine.queue_depth());
        }
        swapper.tick()
    };
    let mut warm = client::closed_loop(
        &mut conn,
        &mut flight,
        CONCURRENCY,
        Duration::from_millis(500),
        &mut next,
        &mut tick,
    )?;
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let closed = client::closed_loop(
        &mut conn,
        &mut flight,
        CONCURRENCY,
        window,
        &mut next,
        &mut tick,
    )?;
    let promote_ms = std::mem::take(&mut swapper.promote_ms);
    let reports = engine.swap_reports();
    let contexts = engine.context_stats().len();
    let (lane_borrows, migrations) = (engine.lane_borrows(), engine.migrations());
    let stats = handle.shutdown();
    if let Some(a) = warm.answers.first_mut().filter(|_| cfg.corrupt) {
        data::corrupt(&mut a.outputs);
    }
    check(&plan.entries, &[&warm, &closed])?;
    if reports.len() != promote_ms.len()
        || reports.iter().any(|r| r.outcome != SwapOutcome::Promoted)
    {
        return Err(format!(
            "{} swaps promoted by the client's count, engine reports {:?}",
            promote_ms.len(),
            reports.iter().map(|r| r.outcome).collect::<Vec<_>>()
        ));
    }
    if promote_ms.is_empty() {
        return Err("no swap completed in the window".into());
    }
    o.attempted = warm.sent + closed.sent;
    o.failed = stats.rejects_total();
    let latency = closed.latencies();
    let capacity = closed.rate(|_| 1.0);
    o.note(format!(
        "closed loop: {} answers in {:.1} s, {capacity:.1} req/s; \
         latency {}, {}, {}; failed share {:.5}",
        closed.completed_in_window(),
        window.as_secs_f64(),
        report::describe_percentile(&latency, 0.5, "ms"),
        report::describe_percentile(&latency, 0.9, "ms"),
        report::describe_percentile(&latency, 0.99, "ms"),
        o.failed as f64 / o.attempted as f64
    ));
    o.note(format!(
        "swaps: {} promoted; send to promotion median {:.3} ms, max {:.3} ms; {} contexts alive at the end",
        promote_ms.len(),
        report::median(&promote_ms),
        promote_ms.iter().cloned().fold(0.0, f64::max),
        contexts
    ));
    let is_hot = |e: &Entry| e.memo.is_none();
    if !args.trace {
        o.note(format!(
            "quality: {} {loss:.4} pp over {} cold requests, memoized against exact",
            plan.cold.metric.kind().loss_label(),
            cold_pool
        ));
        o.metric("setup_s", report::median(&setup_s));
        o.metric(
            "exact_steps_per_s",
            steps_per_s(&plan.entries, &closed, is_hot),
        );
        o.metric(
            "memo_steps_per_s",
            steps_per_s(&plan.entries, &closed, |e| !is_hot(e)),
        );
        o.metric("quality.loss_pp", loss);
        o.metric("capacity_rps", capacity);
        o.metric(
            "latency_p50_ms",
            report::require_percentile("latency", &latency, 0.5)?,
        );
        return Ok(o);
    }

    let (stats_memo, covered) = memo_stats(&plan.entries, &[&closed]);
    o.note(format!("core: {covered} cold pool entries answered"));
    crate::record_core(&mut o, &stats_memo);
    ServeLayer {
        queue_ms: closed.answers.iter().map(|a| a.queue_ms).collect(),
        compute_ms: closed.answers.iter().map(|a| a.compute_ms).collect(),
        wall_ms: ms(closed.elapsed),
        lane_slots: cfg.workers * cfg.lanes,
        queue_depth_max: depth_max,
        lane_borrows,
        migrations,
        rejects: stats.rejects_total(),
    }
    .record(&mut o)?;
    let overhead = net_overhead_us(&closed.answers);
    o.metric(
        "net.overhead_p50_us",
        report::require_percentile("net overhead", &overhead, 0.5)?,
    );
    let requests: Vec<WireRequest> = (0..plan.entries.len()).map(|i| plan.request(i)).collect();
    let codec = crate::replay::codec(&requests, &responses(&closed.answers, plan.entries.len()))?;
    o.metric("net.req_decode_ns", codec.req_decode_ns);
    o.metric("net.resp_encode_ns", codec.resp_encode_ns);
    o.metric("net.bytes_per_req", codec.bytes_per_req);
    crate::record_model(&mut o, &[&plan.hot.artifact, &plan.cold.artifact])?;
    o.metric("swap.promote_ms", report::median(&promote_ms));
    o.metric("loadgen.send_lag_p99_us", 0.0);
    o.metric("loadgen.in_flight_max", closed.in_flight_max as f64);
    crate::record_replays(&mut o, &plan.hot, &plan.cold)?;

    // Traced phase: a swap replaces the hot model's predictors with
    // untimed built-ins, so the untraced reference and the traced phase
    // both run without swaps.
    let half = window / 2;
    let sink = TraceSink::new();
    let mut phase = |traced: bool| -> Result<(Log, Split), String> {
        let Live {
            handle, mut conn, ..
        } = start(cfg, &plan, traced.then_some(&sink), &probe)?;
        let mut flight = Flight::new();
        let before = sink.sample()?;
        let log = client::closed_loop(
            &mut conn,
            &mut flight,
            CONCURRENCY,
            half,
            &mut next,
            &mut || Ok(false),
        )?;
        let split = Split::between(&before, &sink.sample()?, ms(log.elapsed), cfg.workers);
        handle.shutdown();
        Ok((log, split))
    };
    let (reference, _) = phase(false)?;
    let (traced, split) = phase(true)?;
    check(&plan.entries, &[&reference, &traced])?;
    o.attempted += reference.sent + traced.sent;
    let steps = |log: &Log| {
        log.answers
            .iter()
            .map(|a| plan.entries[a.pool].steps() as u64)
            .sum::<u64>()
    };
    crate::record_trace(
        &mut o,
        &split,
        cfg.workers,
        steps(&traced),
        ms(reference.elapsed) / steps(&reference) as f64,
    );
    Ok(o)
}
