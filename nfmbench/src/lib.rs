//! The repository benchmark.
//!
//! One command runs one workload against the public API of the
//! workspace crates, checks every output against single-sequence
//! references, and prints its metrics by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path nfmbench/Cargo.toml -- \
//!     --workload ds2-offline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `BENCHMARK.json` at the repository root lists the workloads, the
//! metrics and the bound by which each end-to-end metric may worsen.
//!
//! Workloads: `ds2-offline` ([`offline`]), `imdb-wire` ([`wire`]) and
//! `mixed-swap` ([`swap`]).  `--trace 0` reports the end-to-end metrics
//! of [`report::END_TO_END`]; `--trace 1` runs the workload again with
//! timed evaluators and layer replays and reports
//! [`report::PER_LAYER`].

mod affinity;
mod client;
mod data;
pub mod offline;
mod replay;
pub mod report;
pub mod swap;
mod trace;
pub mod wire;

use report::Outcome;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Workload names.
pub const WORKLOADS: &[&str] = &["ds2-offline", "imdb-wire", "mixed-swap"];

/// Runs one workload at its standard size.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "ds2-offline" => offline::run(&offline::Config::standard(), args),
        "imdb-wire" => wire::run(&wire::Config::standard(), args),
        "mixed-swap" => swap::run(&swap::Config::standard(), args),
        other => Err(format!(
            "unknown workload {other}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Worker threads for engines and reference runs.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds of a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The engine-side layer metrics shared by every workload.
pub(crate) struct ServeLayer {
    /// Queue latency of every answered request, ms.
    pub queue_ms: Vec<f64>,
    /// Compute (lane occupancy) latency of every answered request, ms.
    pub compute_ms: Vec<f64>,
    /// Wall time the engine was offered work, ms.
    pub wall_ms: f64,
    /// Configured lane slots (`workers x lanes`).  A block scheduler may
    /// borrow up to twice its lanes for a context whose siblings idle,
    /// so the busy share can exceed 1.
    pub lane_slots: usize,
    pub queue_depth_max: usize,
    pub lane_borrows: u64,
    pub migrations: u64,
    pub rejects: u64,
}

impl ServeLayer {
    /// Records the `serve.*` metrics.
    pub(crate) fn record(&self, o: &mut Outcome) -> Result<(), String> {
        o.metric(
            "serve.queue_p50_ms",
            report::require_percentile("queue latency", &self.queue_ms, 0.5)?,
        );
        o.metric(
            "serve.queue_p99_ms",
            report::require_percentile("queue latency", &self.queue_ms, 0.99)?,
        );
        o.metric(
            "serve.compute_p50_ms",
            report::require_percentile("compute latency", &self.compute_ms, 0.5)?,
        );
        let busy: f64 = self.compute_ms.iter().sum();
        o.metric(
            "serve.lane_busy_share",
            busy / (self.wall_ms * self.lane_slots as f64),
        );
        o.metric("serve.queue_depth_max", self.queue_depth_max as f64);
        o.metric("serve.lane_borrows", self.lane_borrows as f64);
        o.metric("serve.migrations", self.migrations as f64);
        o.metric("serve.rejects", self.rejects as f64);
        Ok(())
    }
}

/// Records `core.*` from the reuse counters of one answer per memoized
/// pool entry (exact counts: each entry's counters are deterministic).
pub(crate) fn record_core(o: &mut Outcome, stats: &nfm_core::ReuseStats) {
    o.metric("core.reuse_share", stats.reuse_fraction());
    o.metric("core.computed", stats.computed() as f64);
    o.metric("core.bnn_evals", stats.bnn_evaluations() as f64);
}

/// Records the `tensor.*` and `bnn.*` replays of `kernels` (f32 path)
/// and `memo` (BNN path).
pub(crate) fn record_replays(
    o: &mut Outcome,
    kernels: &data::Model,
    memo: &data::Model,
) -> Result<(), String> {
    let t = replay::tensor(&kernels.network)?;
    o.note(format!(
        "replay tensor ({}): hoist block {:.2} us moving {} W_x bytes (computed from tensor sizes) = {:.2} GB/s; \
         recurrent step {:.2} us; fused gate_preact_batch_into step {:.2} us",
        kernels.id, t.hoist_us, t.hoist_bytes, t.hoist_gbps, t.recur_us, t.fused_us
    ));
    o.metric("tensor.hoist_us", t.hoist_us);
    o.metric("tensor.hoist_gbps", t.hoist_gbps);
    o.metric("tensor.recur_us", t.recur_us);
    let b = replay::bnn(&memo.network, &memo.mirror)?;
    o.note(format!(
        "replay bnn ({}): {:.3} ns per neuron-lane, binarize {:.1} ns per call",
        memo.id, b.gate_ns_per_neuron, b.binarize_ns
    ));
    o.metric("bnn.gate_ns_per_neuron", b.gate_ns_per_neuron);
    o.metric("bnn.binarize_ns", b.binarize_ns);
    Ok(())
}

/// Records `model.*` from timed `nfm_model::load_from_slice` calls on
/// `artifacts`.
pub(crate) fn record_model(o: &mut Outcome, artifacts: &[&[u8]]) -> Result<(), String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let started = std::time::Instant::now();
        for bytes in artifacts {
            let loaded =
                nfm_model::load_from_slice(bytes).map_err(|e| format!("artifact load: {e}"))?;
            std::hint::black_box(loaded);
        }
        times.push(ms(started.elapsed()));
    }
    o.metric("model.load_ms", report::median(&times));
    o.metric(
        "model.artifact_bytes",
        artifacts.iter().map(|a| a.len()).sum::<usize>() as f64,
    );
    Ok(())
}

/// Records `rnn.*` and `trace.overhead_share` from a traced phase.
pub(crate) fn record_trace(
    o: &mut Outcome,
    split: &trace::Split,
    workers: usize,
    traced_steps: u64,
    untraced_ms_per_step: f64,
) {
    o.note(split.describe(workers));
    let ksteps = traced_steps as f64 / 1e3;
    const NAMES: [&str; trace::LAYERS] = [
        "rnn.eval_ms.L0",
        "rnn.eval_ms.L1",
        "rnn.eval_ms.L2",
        "rnn.eval_ms.L3",
        "rnn.eval_ms.L4",
    ];
    for (name, ms) in NAMES.iter().zip(split.eval_ms) {
        o.metric(name, ms / ksteps);
    }
    o.metric("rnn.eval_calls", split.calls as f64 / ksteps);
    o.metric("rnn.sched_self_ms", split.remainder_ms / ksteps);
    let traced_ms_per_step = split.worker_ms / workers as f64 / traced_steps as f64;
    o.metric(
        "trace.overhead_share",
        traced_ms_per_step / untraced_ms_per_step - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(&args(
            "--workload imdb-wire --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "imdb-wire");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(Args::parse(&args("--workload x --seed 1 --trace 2")).is_err());
        assert!(Args::parse(&args("--seed 1")).is_err());
        assert!(Args::parse(&args("--workload x --seed 1 --bogus 3")).is_err());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let a = Args::parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).unwrap();
        assert!(run(&a).is_err());
    }
}
