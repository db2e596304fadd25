//! Layer replays: the public kernel, BNN and codec functions timed on a
//! workload's own weights and frames, outside the serving stack.

use crate::report::median;
use nfm_bnn::{BinaryNetwork, BitVector};
use nfm_net::{WireRequest, WireResponse};
use nfm_rnn::{DeepRnn, HOIST_BLOCK};
use nfm_tensor::kernels;
use nfm_tensor::rng::DeterministicRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Lanes every replay runs at (the engine's lane count).
pub const LANES: usize = 8;

/// Repetitions whose median a replay reports.
const REPS: usize = 5;

/// Minimum wall time of one repetition.
const REP_TIME: Duration = Duration::from_millis(20);

/// Median seconds per call of `f` over [`REPS`] repetitions of at least
/// [`REP_TIME`] each.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed() < REP_TIME {
            f();
            calls += 1;
        }
        per_call.push(started.elapsed().as_secs_f64() / calls as f64);
    }
    median(&per_call)
}

fn random_values(rng: &mut DeterministicRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.normal_with(0.0, 0.5)).collect()
}

/// The f32 kernel replay of one network.
pub struct TensorReplay {
    /// Microseconds per hoist block: `matmul_into` of every gate's
    /// `W_x` over [`HOIST_BLOCK`] steps x [`LANES`] lanes.
    pub hoist_us: f64,
    /// `W_x` bytes streamed per hoist block (from tensor sizes) per
    /// second of hoist time, in GB/s.
    pub hoist_gbps: f64,
    /// `W_x` bytes per hoist block, from tensor sizes.
    pub hoist_bytes: usize,
    /// Microseconds per timestep of the recurrent half:
    /// `matmul_add_into` of every gate's `W_h` at [`LANES`] lanes.
    pub recur_us: f64,
    /// Microseconds per timestep of the fused form:
    /// `gate_preact_batch_into` of every gate at [`LANES`] lanes.
    pub fused_us: f64,
}

/// Replays the exact path's kernels on `network`'s weights.
pub fn tensor(network: &DeepRnn) -> Result<TensorReplay, String> {
    let mut rng = DeterministicRng::seed_from_u64(0x7E45);
    let rows = HOIST_BLOCK * LANES;
    let gates = network.gates();
    let inputs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = gates
        .iter()
        .map(|(_, g)| {
            (
                random_values(&mut rng, rows * g.input_size()),
                random_values(&mut rng, LANES * g.hidden_size()),
                random_values(&mut rng, LANES * g.neurons()),
            )
        })
        .collect();
    let widest = gates.iter().map(|(_, g)| g.neurons()).max().unwrap_or(0);
    let mut out = vec![0.0f32; rows * widest];
    let mut failure = None;
    let hoist_s = time_per_call(|| {
        for ((_, g), (xs, _, _)) in gates.iter().zip(&inputs) {
            if let Err(e) = kernels::matmul_into(g.wx(), xs, rows, &mut out[..rows * g.neurons()]) {
                failure.get_or_insert(e.to_string());
            }
        }
        black_box(&out);
    });
    let recur_s = time_per_call(|| {
        for ((_, g), (_, hs, base)) in gates.iter().zip(&inputs) {
            let out = &mut out[..LANES * g.neurons()];
            if let Err(e) = kernels::matmul_add_into(g.wh(), hs, LANES, base, out) {
                failure.get_or_insert(e.to_string());
            }
        }
        black_box(&out);
    });
    let fused_s = time_per_call(|| {
        for ((_, g), (xs, hs, _)) in gates.iter().zip(&inputs) {
            let xs = &xs[..LANES * g.input_size()];
            let out = &mut out[..LANES * g.neurons()];
            if let Err(e) = kernels::gate_preact_batch_into(
                g.wx(),
                g.wh(),
                g.bias().as_slice(),
                xs,
                hs,
                LANES,
                out,
            ) {
                failure.get_or_insert(e.to_string());
            }
        }
        black_box(&out);
    });
    if let Some(e) = failure {
        return Err(format!("kernel replay: {e}"));
    }
    let hoist_bytes: usize = gates
        .iter()
        .map(|(_, g)| g.neurons() * g.input_size() * std::mem::size_of::<f32>())
        .sum();
    Ok(TensorReplay {
        hoist_us: hoist_s * 1e6,
        hoist_gbps: hoist_bytes as f64 / hoist_s / 1e9,
        hoist_bytes,
        recur_us: recur_s * 1e6,
        fused_us: fused_s * 1e6,
    })
}

/// The BNN replay of one mirror.
pub struct BnnReplay {
    /// Nanoseconds per neuron per lane of
    /// `BinaryGate::neuron_outputs_batch_into` at [`LANES`] lanes.
    pub gate_ns_per_neuron: f64,
    /// Nanoseconds per `BitVector::fill_lanes_from_signs` call at
    /// [`LANES`] lanes, averaged over the gates' input and hidden
    /// widths.
    pub binarize_ns: f64,
}

/// Replays the BNN predictor's kernels on `mirror`, the binary mirror of
/// `network`.
pub fn bnn(network: &DeepRnn, mirror: &BinaryNetwork) -> Result<BnnReplay, String> {
    let mut rng = DeterministicRng::seed_from_u64(0xB111);
    let gates: Vec<_> = network
        .gates()
        .into_iter()
        .map(|(id, g)| {
            mirror
                .gate(id)
                .map(|bg| (bg, g.input_size(), g.hidden_size(), g.neurons()))
                .ok_or_else(|| format!("the mirror lacks gate {id:?}"))
        })
        .collect::<Result<_, _>>()?;
    let values: Vec<(Vec<f32>, Vec<f32>)> = gates
        .iter()
        .map(|&(_, i, h, _)| {
            (
                random_values(&mut rng, LANES * i),
                random_values(&mut rng, LANES * h),
            )
        })
        .collect();
    let packed: Vec<(Vec<BitVector>, Vec<BitVector>)> = gates
        .iter()
        .zip(&values)
        .map(|(&(_, i, h, _), (xs, hs))| {
            let (mut xb, mut hb) = (Vec::new(), Vec::new());
            BitVector::fill_lanes_from_signs(&mut xb, xs, LANES, i);
            BitVector::fill_lanes_from_signs(&mut hb, hs, LANES, h);
            (xb, hb)
        })
        .collect();
    let neurons: usize = gates.iter().map(|&(_, _, _, n)| n).sum();
    let widest = gates.iter().map(|&(_, _, _, n)| n).max().unwrap_or(0);
    let mut out = vec![0i32; LANES * widest];
    let mut failure = None;
    let gate_s = time_per_call(|| {
        for (&(bg, _, _, n), (xb, hb)) in gates.iter().zip(&packed) {
            if let Err(e) = bg.neuron_outputs_batch_into(xb, hb, &mut out[..LANES * n]) {
                failure.get_or_insert(e.to_string());
            }
        }
        black_box(&out);
    });
    if let Some(e) = failure {
        return Err(format!("BNN replay: {e}"));
    }
    let mut scratch = Vec::new();
    let binarize_s = time_per_call(|| {
        for (&(_, i, h, _), (xs, hs)) in gates.iter().zip(&values) {
            BitVector::fill_lanes_from_signs(&mut scratch, xs, LANES, i);
            BitVector::fill_lanes_from_signs(&mut scratch, hs, LANES, h);
        }
        black_box(&scratch);
    });
    Ok(BnnReplay {
        gate_ns_per_neuron: gate_s * 1e9 / (neurons * LANES) as f64,
        binarize_ns: binarize_s * 1e9 / (2 * gates.len()) as f64,
    })
}

/// The codec replay of a run's frames.
pub struct CodecReplay {
    /// Nanoseconds per `WireRequest::decode`.
    pub req_decode_ns: f64,
    /// Nanoseconds per `WireResponse::encode`.
    pub resp_encode_ns: f64,
    /// Mean request plus response frame bytes.
    pub bytes_per_req: f64,
}

/// Replays the wire codec on `requests` and `responses`.
pub fn codec(requests: &[WireRequest], responses: &[WireResponse]) -> Result<CodecReplay, String> {
    if requests.is_empty() || responses.is_empty() {
        return Err("codec replay needs frames".into());
    }
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            buf
        })
        .collect();
    let mut failure = None;
    let decode_s = time_per_call(|| {
        for frame in &frames {
            match WireRequest::decode(&frame[4..]) {
                Ok(r) => {
                    black_box(r);
                }
                Err(e) => {
                    failure.get_or_insert(e.to_string());
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(format!("codec replay: {e}"));
    }
    let mut buf = Vec::new();
    let mut response_bytes = 0usize;
    for r in responses {
        buf.clear();
        r.encode(&mut buf);
        response_bytes += buf.len();
    }
    let encode_s = time_per_call(|| {
        for r in responses {
            buf.clear();
            r.encode(&mut buf);
            black_box(&buf);
        }
    });
    let request_bytes: usize = frames.iter().map(Vec::len).sum();
    Ok(CodecReplay {
        req_decode_ns: decode_s * 1e9 / frames.len() as f64,
        resp_encode_ns: encode_s * 1e9 / responses.len() as f64,
        bytes_per_req: request_bytes as f64 / frames.len() as f64
            + response_bytes as f64 / responses.len() as f64,
    })
}
