//! The correctness gate trips on a corrupted output, on every workload,
//! and a clean run reports every declared metric.  Tiny models keep the
//! runs short; the checks are the ones the full-size runs use.

use nfmbench::report::{END_TO_END, PER_LAYER};
use nfmbench::{offline, swap, wire, Args};

fn args(workload: &str, seconds: f64, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 5,
        seconds,
        trace,
    }
}

fn tiny_offline(corrupt: bool) -> offline::Config {
    offline::Config {
        scale: 0.05,
        pool: 8,
        batch: 4,
        lengths: (3, 6),
        lanes: 2,
        workers: 2,
        setups: 2,
        corrupt,
    }
}

fn tiny_wire(corrupt: bool) -> wire::Config {
    wire::Config {
        scale: 0.05,
        corpus: 16,
        pool: 40,
        lengths: (2, 6),
        theta: 1.0,
        lanes: 2,
        concurrency: 4,
        rate: 800.0,
        setups: 2,
        corrupt,
    }
}

fn tiny_swap(corrupt: bool) -> swap::Config {
    swap::Config {
        hot_scale: 0.05,
        hot_pool: 8,
        hot_lengths: (3, 6),
        cold_scale: 0.05,
        corpus: 16,
        cold_pool: 40,
        cold_lengths: (2, 6),
        override_context_cap: 2,
        workers: 2,
        lanes: 2,
        swap_every: 8,
        setups: 2,
        corrupt,
    }
}

#[test]
fn ds2_offline_passes_clean_and_fails_a_flipped_bit() {
    let clean = offline::run(&tiny_offline(false), &args("ds2-offline", 0.3, false)).unwrap();
    clean.validate(END_TO_END).unwrap();
    let traced = offline::run(&tiny_offline(false), &args("ds2-offline", 0.3, true)).unwrap();
    traced.validate(PER_LAYER).unwrap();
    let err = offline::run(&tiny_offline(true), &args("ds2-offline", 0.3, false)).unwrap_err();
    assert!(err.contains("differ"), "{err}");
}

#[test]
fn imdb_wire_passes_clean_and_fails_a_flipped_bit() {
    let clean = wire::run(&tiny_wire(false), &args("imdb-wire", 2.0, false)).unwrap();
    clean.validate(END_TO_END).unwrap();
    let err = wire::run(&tiny_wire(true), &args("imdb-wire", 2.0, false)).unwrap_err();
    assert!(err.contains("differ"), "{err}");
}

#[test]
fn mixed_swap_passes_clean_and_fails_a_flipped_bit() {
    let clean = swap::run(&tiny_swap(false), &args("mixed-swap", 1.0, false)).unwrap();
    clean.validate(END_TO_END).unwrap();
    let err = swap::run(&tiny_swap(true), &args("mixed-swap", 1.0, false)).unwrap_err();
    assert!(err.contains("differ"), "{err}");
}
