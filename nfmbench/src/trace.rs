//! The traced run's timing wrapper: a [`Predictor`] whose evaluators
//! delegate every call to the wrapped predictor's evaluator and time
//! each gate evaluation per RNN layer.
//!
//! Every [`NeuronEvaluator`] and [`ServedEvaluator`] method is
//! forwarded — input hoisting, lane state export/import, statistics
//! harvesting — so the engine schedules a traced model exactly as it
//! schedules the plain one.
//!
//! Worker busy time is measured on its own: every thread that runs a
//! traced evaluator enlists its CPU clock with the sink, and the split
//! compares evaluator time plus the busy remainder against the wall.

use nfm_core::{ControlSnapshot, LaneState, Predictor, ReuseStats, ServedEvaluator};
use nfm_rnn::{DeepRnn, Gate, GateId, NeuronEvaluator, NeuronRef, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layers the sink keeps separate; deeper layers fold into the last.
pub const LAYERS: usize = 5;

/// Per-thread CPU clocks (`pthread_getcpuclockid`), which count only
/// the time a thread ran: an engine worker parked on its condvar does
/// not advance its clock.
#[cfg(target_os = "linux")]
mod cpu {
    use std::os::raw::{c_int, c_long, c_ulong};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn pthread_self() -> c_ulong;
        fn pthread_getcpuclockid(thread: c_ulong, clock: *mut c_int) -> c_int;
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    /// The calling thread's CPU clock.
    pub fn this_thread() -> Option<c_int> {
        let mut clock = 0;
        // SAFETY: `pthread_self` names the calling thread, which is
        // alive; `clock` is a valid out-pointer.
        (unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) } == 0).then_some(clock)
    }

    /// Nanoseconds `clock` has run; `None` once its thread has exited.
    pub fn read(clock: c_int) -> Option<u64> {
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a valid out-pointer; a stale clock id fails
        // with EINVAL instead of touching memory.
        (unsafe { clock_gettime(clock, &mut t) } == 0)
            .then(|| t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub fn this_thread() -> Option<i32> {
        None
    }

    pub fn read(_clock: i32) -> Option<u64> {
        None
    }
}

thread_local! {
    /// The sink this thread's CPU clock is enlisted with (its address).
    static ENLISTED: Cell<usize> = const { Cell::new(0) };
}

/// Evaluator time and call counts, shared by every traced evaluator,
/// and the CPU clocks of the threads that ran them.
#[derive(Debug, Default)]
pub struct TraceSink {
    eval_ns: [AtomicU64; LAYERS],
    calls: AtomicU64,
    /// `(clock, CPU ns when enlisted)` of every thread that ran a
    /// traced evaluator.
    threads: Mutex<Vec<(i32, u64)>>,
}

/// The sink's counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    eval_ns: [u64; LAYERS],
    calls: u64,
    busy_ns: u64,
}

impl TraceSink {
    /// A fresh sink behind an `Arc`.
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink::default())
    }

    fn record(&self, layer: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.enlist();
        self.eval_ns[layer.min(LAYERS - 1)].fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Enlists the calling thread's CPU clock, once per thread.
    fn enlist(&self) {
        let me = self as *const TraceSink as usize;
        if ENLISTED.with(|e| e.replace(me)) == me {
            return;
        }
        if let Some(clock) = cpu::this_thread() {
            let now = cpu::read(clock).unwrap_or(0);
            self.threads
                .lock()
                .expect("trace sink lock")
                .push((clock, now));
        }
    }

    /// The counters now.  Call it while every enlisted thread is alive
    /// (before the engine shuts down).
    pub fn sample(&self) -> std::result::Result<Sample, String> {
        let threads = self.threads.lock().expect("trace sink lock");
        let calls = self.calls.load(Ordering::Relaxed);
        if calls > 0 && threads.is_empty() {
            return Err("no per-thread CPU clock on this platform".into());
        }
        let mut busy_ns = 0;
        for &(clock, base) in threads.iter() {
            let now = cpu::read(clock).ok_or("a worker's CPU clock could not be read")?;
            busy_ns += now.saturating_sub(base);
        }
        Ok(Sample {
            eval_ns: std::array::from_fn(|l| self.eval_ns[l].load(Ordering::Relaxed)),
            calls,
            busy_ns,
        })
    }
}

/// A predictor that times the evaluators of `inner`.
#[derive(Debug)]
pub struct TimedPredictor {
    inner: Arc<dyn Predictor>,
    sink: Arc<TraceSink>,
}

impl TimedPredictor {
    /// Wraps `inner`, reporting into `sink`.
    pub fn wrap(inner: Arc<dyn Predictor>, sink: &Arc<TraceSink>) -> Arc<dyn Predictor> {
        Arc::new(TimedPredictor {
            inner,
            sink: Arc::clone(sink),
        })
    }
}

impl Predictor for TimedPredictor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_evaluator(&self, network: &DeepRnn) -> Box<dyn ServedEvaluator> {
        Box::new(TimedEvaluator {
            inner: self.inner.build_evaluator(network),
            sink: Arc::clone(&self.sink),
        })
    }

    fn threshold(&self) -> Option<f32> {
        self.inner.threshold()
    }

    fn with_threshold(&self, threshold: f32) -> Option<Arc<dyn Predictor>> {
        self.inner
            .with_threshold(threshold)
            .map(|p| TimedPredictor::wrap(p, &self.sink))
    }

    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        self.inner.control_snapshot()
    }
}

struct TimedEvaluator {
    inner: Box<dyn ServedEvaluator>,
    sink: Arc<TraceSink>,
}

impl NeuronEvaluator for TimedEvaluator {
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> Result<f32> {
        let started = Instant::now();
        let r = self.inner.evaluate(neuron, gate, x, h_prev);
        self.sink.record(neuron.gate_id.layer, started);
        r
    }

    fn evaluate_gate(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let started = Instant::now();
        let r = self
            .inner
            .evaluate_gate(gate_id, timestep, gate, x, h_prev, out);
        self.sink.record(gate_id.layer, started);
        r
    }

    fn evaluate_gate_batch(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let started = Instant::now();
        let r = self
            .inner
            .evaluate_gate_batch(gate_id, timestep, lanes, gate, xs, h_prevs, out);
        self.sink.record(gate_id.layer, started);
        r
    }

    fn supports_input_hoisting(&self) -> bool {
        self.inner.supports_input_hoisting()
    }

    fn evaluate_gate_batch_hoisted(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        fwd: &[f32],
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let started = Instant::now();
        let r = self
            .inner
            .evaluate_gate_batch_hoisted(gate_id, timestep, lanes, gate, fwd, xs, h_prevs, out);
        self.sink.record(gate_id.layer, started);
        r
    }

    fn begin_sequence(&mut self) {
        self.inner.begin_sequence();
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        self.inner.begin_lane_sequence(lane);
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.inner.swap_lane_state(a, b);
    }
}

impl ServedEvaluator for TimedEvaluator {
    fn take_lane_stats(&mut self, lane: usize) -> Option<ReuseStats> {
        self.inner.take_lane_stats(lane)
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn stats_snapshot(&self) -> Option<ReuseStats> {
        self.inner.stats_snapshot()
    }

    fn export_lane_state(&mut self, lane: usize) -> Option<LaneState> {
        self.inner.export_lane_state(lane)
    }

    fn import_lane_state(&mut self, lane: usize, state: LaneState) -> bool {
        self.inner.import_lane_state(lane, state)
    }
}

/// The traced phase's time split.
pub struct Split {
    /// Evaluator milliseconds per layer.
    pub eval_ms: [f64; LAYERS],
    /// Worker CPU milliseconds not spent in an evaluator: input
    /// hoisting, cell updates and scheduling.  Idle (parked) time is not
    /// in it.
    pub remainder_ms: f64,
    /// Wall milliseconds of the traced phase times the worker count.
    pub worker_ms: f64,
    /// Gate evaluation calls.
    pub calls: u64,
}

impl Split {
    /// The split between two samples taken `wall_ms` apart on
    /// `workers` workers.
    pub fn between(before: &Sample, after: &Sample, wall_ms: f64, workers: usize) -> Split {
        let eval_ms: [f64; LAYERS] =
            std::array::from_fn(|l| (after.eval_ns[l] - before.eval_ns[l]) as f64 / 1e6);
        let busy_ms = (after.busy_ns - before.busy_ns) as f64 / 1e6;
        Split {
            eval_ms,
            remainder_ms: busy_ms - eval_ms.iter().sum::<f64>(),
            worker_ms: wall_ms * workers as f64,
            calls: after.calls - before.calls,
        }
    }

    /// The decomposition line printed next to the traced wall time.
    /// Evaluator times are wall-clock inside each call, the remainder is
    /// measured worker CPU time minus them, so their sum falls short of
    /// the wall by the time workers were parked or runnable without a
    /// CPU.
    pub fn describe(&self, workers: usize) -> String {
        let mut line = format!(
            "trace split: wall {:.1} ms x {workers} workers = {:.1} worker-ms; measured:",
            self.worker_ms / workers as f64,
            self.worker_ms
        );
        for (l, ms) in self.eval_ms.iter().enumerate() {
            line.push_str(&format!(" L{l} {ms:.1} +"));
        }
        let sum = self.eval_ms.iter().sum::<f64>() + self.remainder_ms;
        line.push_str(&format!(
            " remainder {:.1} (worker CPU outside evaluators: hoist, cell update, scheduler) \
             = {:.1} ms, {:+.1}% against the wall (the rest: workers parked or waiting for a CPU)",
            self.remainder_ms,
            sum,
            100.0 * (sum / self.worker_ms - 1.0)
        ));
        line
    }
}
