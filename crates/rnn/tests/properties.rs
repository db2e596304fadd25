//! Property-style tests on RNN inference invariants, exercised over
//! seeded deterministic sampling loops (the container has no `proptest`).

use nfm_rnn::{
    BatchScratch, BatchState, CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, GruCell,
    LstmCell,
};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;

fn sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Vector::from_fn(width, |_| rng.uniform(-1.5, 1.5)))
        .collect()
}

fn norm_inf(v: &[f32]) -> f32 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

// The cell-level properties step one-lane batches: a single sequence
// is one lane.

#[test]
fn gru_hidden_state_is_a_convex_combination() {
    let mut outer = DeterministicRng::seed_from_u64(10);
    for _ in 0..24 {
        let seed = outer.index(500) as u64;
        let steps = 1 + outer.index(9);
        // h_t is elementwise between h_{t-1} and tanh(...) in [-1, 1], so
        // it can never leave [-1, 1].
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let cell = GruCell::random(5, 7, &mut rng).unwrap();
        let (mut state, mut next) = (BatchState::zeros(1, 7), BatchState::zeros(1, 7));
        let mut scratch = BatchScratch::new();
        let mut eval = ExactEvaluator::new();
        for (t, x) in sequence(steps, 5, seed ^ 0xABC).iter().enumerate() {
            cell.step_batch_into(
                0,
                0,
                t,
                1,
                x.as_slice(),
                &state,
                &mut next,
                &mut scratch,
                None,
                &mut eval,
            )
            .unwrap();
            std::mem::swap(&mut state, &mut next);
            assert!(norm_inf(state.h_lane(0)) <= 1.0 + 1e-5);
        }
    }
}

#[test]
fn lstm_hidden_output_is_bounded_by_one() {
    let mut outer = DeterministicRng::seed_from_u64(11);
    for _ in 0..24 {
        let seed = outer.index(500) as u64;
        let steps = 1 + outer.index(9);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let cell = LstmCell::random(4, 6, true, &mut rng).unwrap();
        let (mut state, mut next) = (BatchState::zeros(1, 6), BatchState::zeros(1, 6));
        let mut scratch = BatchScratch::new();
        let mut eval = ExactEvaluator::new();
        for (t, x) in sequence(steps, 4, seed ^ 0xDEF).iter().enumerate() {
            cell.step_batch_into(
                0,
                0,
                t,
                1,
                x.as_slice(),
                &state,
                &mut next,
                &mut scratch,
                None,
                &mut eval,
            )
            .unwrap();
            std::mem::swap(&mut state, &mut next);
            assert!(norm_inf(state.h_lane(0)) <= 1.0 + 1e-5);
            assert!(state.c_lane(0).iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn inference_is_deterministic_and_counts_are_exact() {
    let mut outer = DeterministicRng::seed_from_u64(12);
    for _ in 0..24 {
        let seed = outer.index(300) as u64;
        let layers = 1 + outer.index(2);
        let steps = 1 + outer.index(5);
        let bidirectional = outer.coin(0.5);
        let direction = if bidirectional {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 5)
            .layers(layers)
            .direction(direction);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let seq = sequence(steps, 4, seed ^ 0x123);
        let mut e1 = ExactEvaluator::new();
        let mut e2 = ExactEvaluator::new();
        let a = net.run(&seq, &mut e1).unwrap();
        let b = net.run(&seq, &mut e2).unwrap();
        assert_eq!(a, b);
        assert_eq!(e1.evaluations(), e2.evaluations());
        assert_eq!(
            e1.evaluations() as usize,
            steps * net.neuron_evaluations_per_step()
        );
    }
}

#[test]
fn output_width_matches_configuration() {
    let mut outer = DeterministicRng::seed_from_u64(13);
    for _ in 0..24 {
        let seed = outer.index(200) as u64;
        let hidden = 2 + outer.index(6);
        let head = if outer.coin(0.5) {
            Some(1 + outer.index(4))
        } else {
            None
        };
        let bidirectional = outer.coin(0.5);
        let direction = if bidirectional {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let mut cfg = DeepRnnConfig::new(CellKind::Gru, 3, hidden).direction(direction);
        if let Some(h) = head {
            cfg = cfg.output_size(h);
        }
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let out = net
            .run(&sequence(3, 3, seed), &mut ExactEvaluator::new())
            .unwrap();
        let expected = match head {
            Some(h) => h,
            None => hidden * direction.cells_per_layer(),
        };
        assert!(out.iter().all(|v| v.len() == expected));
    }
}
