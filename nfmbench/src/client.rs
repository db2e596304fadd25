//! The benchmark's own load generator: one thread, closed- and
//! open-loop send loops over `nfm_net::NetClient` connections.

use nfm_core::ReuseStats;
use nfm_net::{NetClient, NetError, ServerFrame, WireRequest};
use nfm_serve::CompletionStatus;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A client failure as the run's error.
pub fn net_error(what: &'static str) -> impl Fn(NetError) -> String {
    move |e| format!("{what}: {e}")
}

/// Connects a client to a server under test.
pub fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(addr).map_err(net_error("connect"))
}

/// One pool entry's request, as the generator sends it.
pub struct Planned {
    /// Index into the workload's pool.
    pub pool: usize,
    /// The request (its id is assigned at send time).
    pub request: WireRequest,
}

/// One answered request.
pub struct Answer {
    pub pool: usize,
    /// Client latency (from the scheduled send on the open loop).
    pub latency_ms: f64,
    pub queue_ms: f64,
    pub compute_ms: f64,
    pub status: CompletionStatus,
    pub outputs: Vec<Vector>,
    pub stats: ReuseStats,
    /// Whether the answer arrived within the measured window.
    pub in_window: bool,
}

/// What one send loop observed.
#[derive(Default)]
pub struct Log {
    pub answers: Vec<Answer>,
    /// Requests sent.
    pub sent: u64,
    /// Typed rejects received.
    pub rejects: u64,
    /// Send lag behind the schedule, µs (open loop only).
    pub lag_us: Vec<f64>,
    pub in_flight_max: usize,
    /// The measured window.
    pub window: Duration,
    /// From the loop's start to its last answer.
    pub elapsed: Duration,
    /// Ids answered by a response or a reject.
    pub ids_answered: u64,
}

impl Log {
    /// Joins the logs of successive loops into one whose window is the
    /// sum of theirs.
    pub fn join(logs: Vec<Log>) -> Log {
        let mut joined = Log::default();
        for log in logs {
            joined.answers.extend(log.answers);
            joined.sent += log.sent;
            joined.rejects += log.rejects;
            joined.lag_us.extend(log.lag_us);
            joined.in_flight_max = joined.in_flight_max.max(log.in_flight_max);
            joined.window += log.window;
            joined.elapsed += log.elapsed;
            joined.ids_answered += log.ids_answered;
        }
        joined
    }

    /// Answers that arrived within the window.
    pub fn completed_in_window(&self) -> usize {
        self.answers.iter().filter(|a| a.in_window).count()
    }

    /// Client latencies in ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_ms).collect()
    }

    /// The per-second sum of `weight` over the answers that arrived
    /// within the window.
    pub fn rate(&self, weight: impl Fn(&Answer) -> f64) -> f64 {
        let sum: f64 = self
            .answers
            .iter()
            .filter(|a| a.in_window)
            .map(weight)
            .sum();
        sum / self.window.as_secs_f64()
    }
}

/// Bookkeeping of the requests in flight on one connection.
pub struct Flight {
    next_id: u64,
    pending: HashMap<u64, (usize, Instant)>,
}

impl Flight {
    /// Ids count up from 1; they only need to be distinct on one
    /// connection.
    pub fn new() -> Flight {
        Flight {
            next_id: 1,
            pending: HashMap::new(),
        }
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn send(
        &mut self,
        conn: &mut NetClient,
        mut planned: Planned,
        at: Instant,
        log: &mut Log,
    ) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        planned.request.id = id;
        conn.send(&planned.request).map_err(net_error("send"))?;
        self.pending.insert(id, (planned.pool, at));
        log.sent += 1;
        log.in_flight_max = log.in_flight_max.max(self.pending.len());
        Ok(())
    }

    /// Files one response or reject frame into `log`; every id must be
    /// answered exactly once.
    fn settle(&mut self, frame: ServerFrame, start: Instant, log: &mut Log) -> Result<(), String> {
        let now = Instant::now();
        let arrived = now.duration_since(start);
        match frame {
            ServerFrame::Response(r) => {
                let (pool, at) = self.pending.remove(&r.id).ok_or_else(|| {
                    format!("response for unknown or already answered id {}", r.id)
                })?;
                log.ids_answered += 1;
                log.answers.push(Answer {
                    pool,
                    latency_ms: now.duration_since(at).as_secs_f64() * 1e3,
                    queue_ms: r.queue_latency_ns as f64 / 1e6,
                    compute_ms: r.compute_latency_ns as f64 / 1e6,
                    status: r.status,
                    stats: r.stats(),
                    outputs: r.outputs,
                    in_window: arrived <= log.window,
                });
            }
            ServerFrame::Reject(r) => {
                self.pending
                    .remove(&r.id)
                    .ok_or_else(|| format!("reject for unknown or already answered id {}", r.id))?;
                log.ids_answered += 1;
                log.rejects += 1;
            }
            ServerFrame::AdminOk(ok) => {
                return Err(format!(
                    "admin acknowledgement {} on a traffic connection",
                    ok.id
                ))
            }
        }
        Ok(())
    }
}

/// Called after every settled frame; may sample the engine or send
/// admin traffic on another connection.  Returning `true` asks a closed
/// loop to keep sending past its window (a swap still waiting for
/// canary traffic); answers after the window are checked but not
/// counted.
pub type Tick<'a> = dyn FnMut() -> Result<bool, String> + 'a;

/// Closed loop: keeps `concurrency` requests in flight for `window`,
/// then waits for the stragglers.
pub fn closed_loop(
    conn: &mut NetClient,
    flight: &mut Flight,
    concurrency: usize,
    window: Duration,
    next: &mut dyn FnMut() -> Planned,
    tick: &mut Tick<'_>,
) -> Result<Log, String> {
    let mut log = Log {
        window,
        ..Log::default()
    };
    let start = Instant::now();
    let end = start + window;
    for _ in 0..concurrency {
        flight.send(conn, next(), Instant::now(), &mut log)?;
    }
    while !flight.is_empty() {
        let frame = conn.recv().map_err(net_error("recv"))?;
        flight.settle(frame, start, &mut log)?;
        let hold = tick()?;
        if Instant::now() < end || hold {
            flight.send(conn, next(), Instant::now(), &mut log)?;
        }
    }
    log.elapsed = start.elapsed();
    Ok(log)
}

/// Longest nap of the open loop between socket polls.  Socket read
/// timeouts are jiffy-granular, so the loop polls and naps on the
/// high-resolution sleep instead.
const POLL_NAP: Duration = Duration::from_micros(50);

/// Open loop: Poisson arrivals at `rate` per second for `window`, each
/// request's latency timed from its scheduled send.
pub fn open_loop(
    conn: &mut NetClient,
    flight: &mut Flight,
    rate: f64,
    window: Duration,
    rng: &mut DeterministicRng,
    next: &mut dyn FnMut() -> Planned,
    tick: &mut Tick<'_>,
) -> Result<Log, String> {
    let mut log = Log {
        window,
        ..Log::default()
    };
    let mut gap = || {
        let u = f64::from(rng.uniform(0.0, 1.0)).max(1e-9);
        Duration::from_secs_f64(-u.ln() / rate)
    };
    let start = Instant::now();
    let end = start + window;
    let mut scheduled = start + gap();
    while scheduled < end {
        let now = Instant::now();
        if now >= scheduled {
            log.lag_us
                .push(now.duration_since(scheduled).as_secs_f64() * 1e6);
            flight.send(conn, next(), scheduled, &mut log)?;
            scheduled += gap();
        } else if let Some(frame) = conn.try_recv().map_err(net_error("recv"))? {
            flight.settle(frame, start, &mut log)?;
            tick()?;
        } else {
            std::thread::sleep(scheduled.duration_since(now).min(POLL_NAP));
        }
    }
    while !flight.is_empty() {
        let frame = conn.recv().map_err(net_error("recv"))?;
        flight.settle(frame, start, &mut log)?;
        tick()?;
    }
    log.elapsed = start.elapsed();
    Ok(log)
}
