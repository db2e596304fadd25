//! Metric records, honest percentiles, host metadata and the result line.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`.  `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("exact_steps_per_s", "timesteps/s"),
    ("memo_steps_per_s", "timesteps/s"),
    ("quality.loss_pp", "pp"),
    ("capacity_rps", "req/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.hoist_us", "us"),
    ("tensor.hoist_gbps", "GB/s"),
    ("tensor.recur_us", "us"),
    ("bnn.gate_ns_per_neuron", "ns"),
    ("bnn.binarize_ns", "ns"),
    ("core.reuse_share", "ratio"),
    ("core.computed", "count"),
    ("core.bnn_evals", "count"),
    ("rnn.eval_ms.L0", "ms/kstep"),
    ("rnn.eval_ms.L1", "ms/kstep"),
    ("rnn.eval_ms.L2", "ms/kstep"),
    ("rnn.eval_ms.L3", "ms/kstep"),
    ("rnn.eval_ms.L4", "ms/kstep"),
    ("rnn.eval_calls", "count/kstep"),
    ("rnn.sched_self_ms", "ms/kstep"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.lane_busy_share", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.lane_borrows", "count"),
    ("serve.migrations", "count"),
    ("serve.rejects", "count"),
    ("net.overhead_p50_us", "us"),
    ("net.req_decode_ns", "ns"),
    ("net.resp_encode_ns", "ns"),
    ("net.bytes_per_req", "bytes"),
    ("model.load_ms", "ms"),
    ("model.artifact_bytes", "bytes"),
    ("swap.promote_ms", "ms"),
    ("loadgen.send_lag_p99_us", "us"),
    ("loadgen.in_flight_max", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or batch entries) the run submitted.
    pub attempted: u64,
    /// Rejected, expired or unanswered requests.
    pub failed: u64,
    /// `(name, value)` pairs; units come from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Checks that the metrics are exactly the `expected` set, each
    /// once, and finite.
    pub fn validate(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in expected {
            let hits: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            match hits.as_slice() {
                [v] if v.is_finite() => {}
                [v] => return Err(format!("metric {name} is not finite ({v})")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was recorded twice")),
            }
        }
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        if self.attempted == 0 {
            return Err("the run attempted no request".into());
        }
        Ok(())
    }

    /// The JSON result line: `correct`, `attempted`, `failed` and every
    /// metric of `expected` with its unit.
    pub fn result_line(&self, expected: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("validated before printing");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Smallest number of samples that must lie beyond a percentile for it
/// to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank, guarded against `0.9 * 100 = 90.00000000000001`.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < rank + TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Like [`percentile`], but an unresolvable percentile is an error.
pub fn require_percentile(what: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| {
        format!(
            "{what}: p{} needs {} samples beyond it, only {} samples in total",
            q * 100.0,
            TAIL_SAMPLES,
            samples.len()
        )
    })
}

/// `"p99 12.3 ms (n=4812)"`, or `"p99 unresolved (n=40)"`.
pub fn describe_percentile(samples: &[f64], q: f64, unit: &str) -> String {
    let label = format!("p{}", q * 100.0);
    match percentile(samples, q) {
        Some(v) => format!("{label} {v:.4} {unit} (n={})", samples.len()),
        None => format!("{label} unresolved (n={})", samples.len()),
    }
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The host facts every result is recorded with.
pub fn host_line() -> String {
    let l2 =
        l2_cache_bytes().map_or_else(|| "unknown".to_string(), |b| format!("{} KiB", b / 1024));
    format!(
        "host: kernel_backend={} popcount_backend={} nproc={} l2={}",
        nfm_tensor::backend::active().name(),
        nfm_bnn::popcount::active().name(),
        crate::nproc(),
        l2
    )
}

/// The L2 cache size from CPUID (deterministic cache parameters on
/// Intel, extended leaf `0x8000_0006` elsewhere).
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // CPUID intrinsics became safe to call in newer toolchains.
fn l2_cache_bytes() -> Option<usize> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // SAFETY: CPUID is available on every x86_64 processor.
    let max_leaf = unsafe { __cpuid(0) }.eax;
    if max_leaf >= 4 {
        for sub in 0..16 {
            // SAFETY: leaf 4 is within the supported range checked above.
            let r = unsafe { __cpuid_count(4, sub) };
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            if level == 2 && (kind == 1 || kind == 3) {
                let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
                let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
                let line = (r.ebx & 0xfff) as usize + 1;
                let sets = r.ecx as usize + 1;
                return Some(ways * partitions * line * sets);
            }
        }
    }
    // SAFETY: extended leaf 0x8000_0000 is defined on every x86_64 part.
    let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_ext >= 0x8000_0006 {
        // SAFETY: checked against the maximum extended leaf.
        let kib = (unsafe { __cpuid(0x8000_0006) }.ecx >> 16) as usize;
        if kib > 0 {
            return Some(kib * 1024);
        }
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
fn l2_cache_bytes() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn validate_rejects_missing_and_duplicate_metrics() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let expected = &[("a", "s"), ("b", "ms")];
        o.metric("a", 1.0);
        assert!(o.validate(expected).is_err());
        o.metric("b", 2.0);
        assert!(o.validate(expected).is_ok());
        assert_eq!(
            o.result_line(expected),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        o.metric("b", 3.0);
        assert!(o.validate(expected).is_err());
    }
}
