//! `imdb-wire`: the IMDB LSTM at full scale (128 neurons, 98k weights,
//! resident in L1/L2) behind `NetServer` on loopback with one engine
//! worker, fed a 3:1 blend of BNN (θ = 2.0) and exact requests of 8-48
//! tokens.
//!
//! Phase A is a closed loop with 16 requests in flight, twice the
//! worker's lanes, so it measures capacity at saturation.  Phase B is a
//! closed loop with one request in flight: its client latency, the
//! unloaded round trip, is the gated latency.  Phase C is an open-loop
//! Poisson run at a fixed rate, about a quarter of phase A's capacity on
//! a 2-vCPU AVX-512 host; its latency, timed from the scheduled send, is
//! printed but not gated, because idle gaps between arrivals let the
//! host's wake-up delays into every request.  Phase A takes half of the
//! measured window, phases B and C a quarter each, alternating in ten
//! rounds: the BNN lanes' throughput swings from round to round, so
//! capacity gets the most time.  The engine worker is pinned to one CPU
//! (`affinity::Placement`).
//! Per-request fixed costs dominate here — codec, poll loop, queue,
//! admission, lane refill — and kernels are tiny.

use crate::affinity::Placement;
use crate::client::{self, net_error, Answer, Flight, Log, Planned};
use crate::data::{self, Corpus, Entry, Kind, Model};
use crate::report::{self, Outcome};
use crate::trace::{Split, TimedPredictor, TraceSink};
use crate::{ms, nproc, Args, ServeLayer};
use nfm_core::{BnnMemoConfig, BnnPredictor, ExactPredictor, ReuseStats};
use nfm_net::{
    NetClient, NetServer, ServerFrame, ServerHandle, WireRequest, WireResponse, WireStats,
};
use nfm_serve::{CompletionStatus, Engine, EngineBuilder, ModelRegistry, PredictorKind};
use nfm_tensor::rng::DeterministicRng;
use nfm_workloads::NetworkId;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "imdb";
/// Share of BNN requests.
const BNN_SHARE: f64 = 0.75;
/// Engine workers: one, so per-request costs are not spread over cores.
const WORKERS: usize = 1;
/// Phase B requests in flight.
const LATENCY_IN_FLIGHT: usize = 1;
/// Rounds of phases A, B and C the measured window is cut into.
const ROUNDS: u32 = 10;

/// Sizes of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// IMDB scale (`1.0`: the Table 1 topology).
    pub scale: f32,
    /// Texts in the fixed corpus.
    pub corpus: usize,
    /// Requests in the seeded pool (the quality set).
    pub pool: usize,
    /// Request lengths, inclusive.
    pub lengths: (usize, usize),
    pub theta: f32,
    pub lanes: usize,
    /// Phase A requests in flight.
    pub concurrency: usize,
    /// Phase C arrivals per second.
    pub rate: f64,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Flips one output bit before the checks (the gate's own test).
    pub corrupt: bool,
}

impl Config {
    /// The benchmark's size.
    pub fn standard() -> Config {
        Config {
            scale: 1.0,
            corpus: 2048,
            pool: 5000,
            lengths: (8, 48),
            theta: 2.0,
            lanes: 8,
            concurrency: 16,
            rate: 250.0,
            setups: 21,
            corrupt: false,
        }
    }
}

fn registry(
    cfg: &Config,
    model: &Model,
    sink: Option<&Arc<TraceSink>>,
) -> Result<ModelRegistry, String> {
    let loaded = nfm_model::load_from_slice(&model.artifact).map_err(|e| format!("load: {e}"))?;
    let bnn = BnnMemoConfig::with_threshold(cfg.theta);
    let mut registry = ModelRegistry::new();
    match sink {
        None => {
            registry
                .register_loaded(MODEL, loaded, PredictorKind::Bnn(bnn))
                .map_err(|e| e.to_string())?;
            registry
                .add_predictor(MODEL, PredictorKind::Exact)
                .map_err(|e| e.to_string())?;
        }
        Some(sink) => {
            let mirror = Arc::new(loaded.mirror.ok_or("artifact without a binary mirror")?);
            let memo = TimedPredictor::wrap(Arc::new(BnnPredictor::new(mirror, bnn)), sink);
            registry
                .register_custom(MODEL, loaded.network, "bnn", memo)
                .map_err(|e| e.to_string())?;
            registry
                .add_custom_predictor(
                    MODEL,
                    "exact",
                    TimedPredictor::wrap(Arc::new(ExactPredictor), sink),
                )
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(registry)
}

/// Binds an engine on loopback and spawns its server thread.
pub(crate) fn serve(engine: Engine) -> Result<ServerHandle, String> {
    NetServer::bind("127.0.0.1:0", engine)
        .and_then(NetServer::spawn)
        .map_err(|e| format!("server: {e}"))
}

/// Sends `probe` and waits for its answer: the end of a set-up.
pub(crate) fn answer_probe(conn: &mut NetClient, probe: &WireRequest) -> Result<(), String> {
    conn.send(probe).map_err(net_error("send"))?;
    match conn.recv().map_err(net_error("recv"))? {
        ServerFrame::Response(r) if r.status == CompletionStatus::Done => Ok(()),
        other => Err(format!("the set-up probe was answered with {other:?}")),
    }
}

/// A running server with its traffic connection.
struct Live {
    handle: ServerHandle,
    conn: NetClient,
}

/// Starts a server with its engine worker pinned.
fn start(
    cfg: &Config,
    model: &Model,
    sink: Option<&Arc<TraceSink>>,
    probe: &WireRequest,
    placement: &Placement,
) -> Result<Live, String> {
    let registry = registry(cfg, model, sink)?;
    placement.worker()?;
    let engine = EngineBuilder::from_registry(registry)
        .workers(WORKERS)
        .lanes(cfg.lanes)
        .build()
        .map_err(|e| e.to_string())?;
    placement.release()?;
    let handle = serve(engine)?;
    let mut conn = client::connect(handle.addr())?;
    answer_probe(&mut conn, probe)?;
    Ok(Live { handle, conn })
}

/// The request for a pool entry.
fn request(entry: &Entry) -> WireRequest {
    let r = WireRequest::new(0, entry.sequence.clone()).with_model(MODEL);
    match entry.kind {
        Kind::Exact => r.with_predictor("exact"),
        Kind::Bnn(_) => r.with_predictor("bnn"),
    }
}

/// Checks every answer of `logs` against the pool: `Done` and
/// bit-identical to its single-sequence reference.
pub(crate) fn check(entries: &[Entry], logs: &[&Log]) -> Result<(), String> {
    for log in logs {
        if log.ids_answered != log.sent {
            return Err(format!(
                "{} requests sent, {} answered",
                log.sent, log.ids_answered
            ));
        }
        for a in &log.answers {
            if a.status != CompletionStatus::Done {
                return Err(format!("pool entry {} completed as {:?}", a.pool, a.status));
            }
            let entry = &entries[a.pool];
            data::check_entry(
                &format!("pool entry {}", a.pool),
                entry,
                entry.kind,
                &a.outputs,
            )?;
        }
    }
    Ok(())
}

/// Timesteps per second answered for the pool entries that satisfy
/// `select`, within the window.
pub(crate) fn steps_per_s(entries: &[Entry], log: &Log, select: impl Fn(&Entry) -> bool) -> f64 {
    log.rate(|a| {
        let entry = &entries[a.pool];
        if select(entry) {
            entry.steps() as f64
        } else {
            0.0
        }
    })
}

/// Client latency minus server queue and compute, µs.
pub(crate) fn net_overhead_us(answers: &[Answer]) -> Vec<f64> {
    answers
        .iter()
        .map(|a| (a.latency_ms - a.queue_ms - a.compute_ms) * 1e3)
        .collect()
}

/// Reuse counters of one answer per memoized pool entry.
pub(crate) fn memo_stats(entries: &[Entry], logs: &[&Log]) -> (ReuseStats, usize) {
    let mut stats = ReuseStats::new();
    let mut seen = vec![false; entries.len()];
    for a in logs.iter().flat_map(|l| &l.answers) {
        if entries[a.pool].memo.is_some() && !seen[a.pool] {
            seen[a.pool] = true;
            stats.merge(&a.stats);
        }
    }
    (stats, seen.iter().filter(|s| **s).count())
}

/// The wire frames of a run's answers, for the codec replay.
pub(crate) fn responses(answers: &[Answer], limit: usize) -> Vec<WireResponse> {
    answers
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, a)| WireResponse {
            id: i as u64,
            status: a.status,
            stats: WireStats::from_stats(&a.stats),
            queue_latency_ns: (a.queue_ms * 1e6) as u64,
            compute_latency_ns: (a.compute_ms * 1e6) as u64,
            outputs: a.outputs.clone(),
        })
        .collect()
}

/// Fails the run when the generator fell behind its schedule.
pub(crate) fn check_lag(log: &Log, rate: f64) -> Result<String, String> {
    let gap_us = 1e6 / rate;
    let p90 = report::percentile(&log.lag_us, 0.9).unwrap_or(f64::INFINITY);
    let line = format!(
        "generator: send lag {}, {} against a mean gap of {gap_us:.0} us",
        report::describe_percentile(&log.lag_us, 0.5, "us"),
        report::describe_percentile(&log.lag_us, 0.99, "us"),
    );
    if p90 > gap_us {
        return Err(format!("invalid run, the generator fell behind: {line}"));
    }
    Ok(line)
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &Args) -> Result<Outcome, String> {
    let model = Model::build(NetworkId::ImdbSentiment, cfg.scale)?;
    let (lo, hi) = cfg.lengths;
    let corpus = Corpus::new(&model, cfg.corpus, hi);
    let mut rng = DeterministicRng::seed_from_u64(args.seed);
    let jobs = (0..cfg.pool)
        .map(|_| {
            let text = corpus.draw(&mut rng, lo, hi);
            let kind = if rng.coin(BNN_SHARE) {
                Kind::Bnn(cfg.theta)
            } else {
                Kind::Exact
            };
            (text, kind)
        })
        .collect();
    let entries = data::with_references(&model, jobs, nproc())?;
    let mut o = Outcome::default();
    o.note(format!(
        "imdb-wire: IMDB LSTM x{} ({} weights), {} pool requests of {lo}-{hi} tokens, {:.0}% BNN at theta {}, \
         {} worker x {} lanes; phase A closed loop at concurrency {}, phase B closed loop at concurrency \
         {LATENCY_IN_FLIGHT}, phase C open loop at {} req/s",
        cfg.scale,
        model.network.weight_count(),
        cfg.pool,
        BNN_SHARE * 100.0,
        cfg.theta,
        WORKERS,
        cfg.lanes,
        cfg.concurrency,
        cfg.rate
    ));

    let placement = Placement::new()?;
    o.note(placement.describe());
    let probe = WireRequest::new(u64::MAX, entries[0].sequence[..1].to_vec()).with_model(MODEL);
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut live = None;
    for _ in 0..cfg.setups {
        let started = Instant::now();
        let l = start(cfg, &model, None, &probe, &placement)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = live.replace(l) {
            old.handle.shutdown();
        }
    }
    let Live { handle, mut conn } = live.ok_or("no set-up ran")?;

    let quarter = args.window() / 4;
    let mut flight = Flight::new();
    let mut k = 0usize;
    let mut next = || {
        let pool = k % entries.len();
        k += 1;
        Planned {
            pool,
            request: request(&entries[pool]),
        }
    };
    let engine = handle.engine();
    let mut depth_max = 0;
    // The traced run samples the engine's queue depth after every
    // answer; the end-to-end run leaves the engine alone.
    let mut sample = || {
        if args.trace {
            depth_max = depth_max.max(engine.queue_depth());
        }
        Ok(false)
    };
    let mut warm = client::closed_loop(
        &mut conn,
        &mut flight,
        cfg.concurrency,
        (quarter / 10).min(Duration::from_millis(500)),
        &mut next,
        &mut sample,
    )?;
    // The phases alternate in short rounds, so that a slow spell of a
    // shared host falls on all three and each samples the whole run.
    let round = quarter / ROUNDS;
    let mut arrivals = DeterministicRng::seed_from_u64(args.seed ^ 0x0A11);
    let (mut closed, mut unloaded, mut open) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        closed.push(client::closed_loop(
            &mut conn,
            &mut flight,
            cfg.concurrency,
            2 * round,
            &mut next,
            &mut sample,
        )?);
        unloaded.push(client::closed_loop(
            &mut conn,
            &mut flight,
            LATENCY_IN_FLIGHT,
            round,
            &mut next,
            &mut sample,
        )?);
        open.push(client::open_loop(
            &mut conn,
            &mut flight,
            cfg.rate,
            round,
            &mut arrivals,
            &mut next,
            &mut sample,
        )?);
    }
    let (closed, unloaded, open) = (Log::join(closed), Log::join(unloaded), Log::join(open));
    let (lane_borrows, migrations) = (engine.lane_borrows(), engine.migrations());
    let stats = handle.shutdown();
    if let Some(a) = warm.answers.first_mut().filter(|_| cfg.corrupt) {
        data::corrupt(&mut a.outputs);
    }
    check(&entries, &[&warm, &closed, &unloaded, &open])?;
    let lag = check_lag(&open, cfg.rate)?;
    o.note(lag);
    o.attempted = warm.sent + closed.sent + unloaded.sent + open.sent;
    o.failed = stats.rejects_total();

    let latency = unloaded.latencies();
    o.note(format!(
        "unloaded latency ({LATENCY_IN_FLIGHT} in flight): {}, {}, {}",
        report::describe_percentile(&latency, 0.5, "ms"),
        report::describe_percentile(&latency, 0.9, "ms"),
        report::describe_percentile(&latency, 0.99, "ms"),
    ));
    let open_latency = open.latencies();
    o.note(format!(
        "open loop latency from the scheduled send (not gated): {}, {}, {}, {}",
        report::describe_percentile(&open_latency, 0.5, "ms"),
        report::describe_percentile(&open_latency, 0.9, "ms"),
        report::describe_percentile(&open_latency, 0.99, "ms"),
        report::describe_percentile(&open_latency, 0.999, "ms"),
    ));
    let capacity = closed.rate(|_| 1.0);
    o.note(format!(
        "closed loop: {} answers in {:.1} s, {capacity:.1} req/s; failed share {:.5}",
        closed.completed_in_window(),
        closed.window.as_secs_f64(),
        o.failed as f64 / o.attempted as f64
    ));
    if !args.trace {
        let loss = data::loss_pp(&model.metric, &entries);
        o.note(format!(
            "quality: {} {loss:.4} pp over {} BNN pool requests, memoized against exact",
            model.metric.kind().loss_label(),
            entries.iter().filter(|e| e.memo.is_some()).count()
        ));
        o.metric("setup_s", report::median(&setup_s));
        o.metric(
            "exact_steps_per_s",
            steps_per_s(&entries, &closed, |e| e.memo.is_none()),
        );
        o.metric(
            "memo_steps_per_s",
            steps_per_s(&entries, &closed, |e| e.memo.is_some()),
        );
        o.metric("quality.loss_pp", loss);
        o.metric("capacity_rps", capacity);
        o.metric(
            "latency_p50_ms",
            report::require_percentile("latency", &latency, 0.5)?,
        );
        return Ok(o);
    }

    let (stats_memo, covered) = memo_stats(&entries, &[&closed, &open]);
    o.note(format!("core: {covered} memoized pool entries answered"));
    crate::record_core(&mut o, &stats_memo);
    let answers: Vec<&Answer> = closed.answers.iter().chain(&open.answers).collect();
    ServeLayer {
        queue_ms: answers.iter().map(|a| a.queue_ms).collect(),
        compute_ms: answers.iter().map(|a| a.compute_ms).collect(),
        wall_ms: ms(closed.window + open.window),
        lane_slots: WORKERS * cfg.lanes,
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
    let requests: Vec<WireRequest> = entries.iter().map(request).collect();
    let codec = crate::replay::codec(&requests, &responses(&closed.answers, entries.len()))?;
    o.metric("net.req_decode_ns", codec.req_decode_ns);
    o.metric("net.resp_encode_ns", codec.resp_encode_ns);
    o.metric("net.bytes_per_req", codec.bytes_per_req);
    crate::record_model(&mut o, &[&model.artifact])?;
    o.metric("swap.promote_ms", 0.0);
    o.metric(
        "loadgen.send_lag_p99_us",
        report::require_percentile("send lag", &open.lag_us, 0.99)?,
    );
    o.metric(
        "loadgen.in_flight_max",
        open.in_flight_max.max(closed.in_flight_max) as f64,
    );
    crate::record_replays(&mut o, &model, &model)?;

    // Traced phase: the closed loop again, on timed evaluators.
    let sink = TraceSink::new();
    let Live { handle, mut conn } = start(cfg, &model, Some(&sink), &probe, &placement)?;
    let mut flight = Flight::new();
    let before = sink.sample()?;
    let traced = client::closed_loop(
        &mut conn,
        &mut flight,
        cfg.concurrency,
        closed.window,
        &mut next,
        &mut || Ok(false),
    )?;
    let after = sink.sample()?;
    handle.shutdown();
    check(&entries, &[&traced])?;
    o.attempted += traced.sent;
    let steps = |log: &Log| {
        log.answers
            .iter()
            .map(|a| entries[a.pool].steps() as u64)
            .sum::<u64>()
    };
    crate::record_trace(
        &mut o,
        &Split::between(&before, &after, ms(traced.elapsed), WORKERS),
        WORKERS,
        steps(&traced),
        ms(closed.elapsed) / steps(&closed) as f64,
    );
    Ok(o)
}
