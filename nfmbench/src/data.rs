//! Models, seeded request pools, single-sequence references and the
//! bit-identity checks.
//!
//! Model weights are fixed (they stand in for trained weights, which
//! are not in the repository); everything a run sends is drawn from the
//! workload seed.

use nfm_bnn::BinaryNetwork;
use nfm_core::{BnnMemoConfig, BnnMemoEvaluator};
use nfm_rnn::{DeepRnn, ExactEvaluator};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use nfm_workloads::{AccuracyMetric, NetworkId, NetworkSpec, SequenceGenerator, WorkloadBuilder};
use std::sync::Arc;

/// Seed of every model's weights and of the token corpus.
pub const MODEL_SEED: u64 = 0x5EED_F02D;

/// A fixed-weight model with its binary mirror and serialized artifact.
pub struct Model {
    pub id: NetworkId,
    pub network: Arc<DeepRnn>,
    pub mirror: Arc<BinaryNetwork>,
    pub artifact: Vec<u8>,
    pub metric: AccuracyMetric,
}

impl Model {
    /// Builds `id` at `scale` (`1.0` is the Table 1 topology).
    pub fn build(id: NetworkId, scale: f32) -> Result<Model, String> {
        let workload = WorkloadBuilder::new(id)
            .scale(scale)
            .sequences(1)
            .sequence_length(1)
            .seed(MODEL_SEED)
            .build()
            .map_err(|e| format!("building {id}: {e}"))?;
        let network = Arc::new(workload.network().clone());
        let mirror = Arc::new(BinaryNetwork::mirror(&network));
        let artifact = nfm_model::save_to_vec(&network, Some(&mirror))
            .map_err(|e| format!("serializing {id}: {e}"))?;
        Ok(Model {
            id,
            network,
            mirror,
            artifact,
            metric: workload.metric(),
        })
    }

    /// Input width.
    pub fn features(&self) -> usize {
        self.network.input_size()
    }
}

/// How a pool entry is served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Exact,
    /// BNN memoization at this θ.
    Bnn(f32),
}

/// One request of a pool, with its single-sequence references.
pub struct Entry {
    pub sequence: Vec<Vector>,
    pub kind: Kind,
    /// `DeepRnn::run` under the exact evaluator.
    pub exact: Vec<Vector>,
    /// A dedicated single-sequence `BnnMemoEvaluator` run (BNN entries).
    pub memo: Option<Vec<Vector>>,
}

impl Entry {
    /// The outputs a correct server returns for this entry served as
    /// `kind` (an entry's own kind, or `Exact` for any entry).
    pub fn expected(&self, kind: Kind) -> &[Vector] {
        match kind {
            Kind::Exact => &self.exact,
            Kind::Bnn(_) => self
                .memo
                .as_deref()
                .expect("BNN entries carry a memo reference"),
        }
    }

    /// Timesteps.
    pub fn steps(&self) -> usize {
        self.sequence.len()
    }
}

/// Uniform length in `lo..=hi`.
pub fn length(rng: &mut DeterministicRng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo + 1)
}

/// `count` audio utterances (DeepSpeech2's input domain) with lengths
/// in `lo..=hi`, all drawn from `seed`.
pub fn utterances(
    model: &Model,
    seed: u64,
    count: usize,
    lo: usize,
    hi: usize,
) -> Vec<Vec<Vector>> {
    let spec = NetworkSpec::of(model.id);
    let mut frames = SequenceGenerator::for_spec(&spec, model.features(), seed ^ 0xA0D1);
    let mut rng = DeterministicRng::seed_from_u64(seed ^ 0x1E47);
    (0..count)
        .map(|_| {
            let len = length(&mut rng, lo, hi);
            frames.sequence(len)
        })
        .collect()
}

/// A fixed corpus of token streams (IMDB's input domain): the embedding
/// table is part of the dataset, so it is fixed; requests draw a corpus
/// entry and a prefix length from the workload seed.
pub struct Corpus {
    texts: Vec<Vec<Vector>>,
}

impl Corpus {
    /// `count` texts of `max_len` tokens each.
    pub fn new(model: &Model, count: usize, max_len: usize) -> Corpus {
        let spec = NetworkSpec::of(model.id);
        let mut tokens = SequenceGenerator::for_spec(&spec, model.features(), MODEL_SEED);
        Corpus {
            texts: tokens.sequences(count, max_len),
        }
    }

    /// A seeded prefix of a seeded corpus entry, `lo..=hi` tokens long.
    pub fn draw(&self, rng: &mut DeterministicRng, lo: usize, hi: usize) -> Vec<Vector> {
        let text = &self.texts[rng.index(self.texts.len())];
        let len = length(rng, lo, hi).min(text.len());
        text[..len].to_vec()
    }
}

/// Computes every entry's references on `threads` threads.
///
/// # Errors
///
/// Propagates a failed reference run.
pub fn with_references(
    model: &Model,
    jobs: Vec<(Vec<Vector>, Kind)>,
    threads: usize,
) -> Result<Vec<Entry>, String> {
    let threads = threads.clamp(1, jobs.len().max(1));
    let chunk = jobs.len().div_ceil(threads).max(1);
    let results: Vec<Result<Vec<Entry>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| scope.spawn(move || reference_chunk(model, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect()
    });
    let mut entries = Vec::with_capacity(jobs.len());
    for part in results {
        entries.extend(part?);
    }
    Ok(entries)
}

fn reference_chunk(model: &Model, jobs: &[(Vec<Vector>, Kind)]) -> Result<Vec<Entry>, String> {
    let mut exact_eval = ExactEvaluator::new();
    let mut memo_evals: Vec<(u32, BnnMemoEvaluator)> = Vec::new();
    let mut out = Vec::with_capacity(jobs.len());
    for (sequence, kind) in jobs {
        let exact = model
            .network
            .run(sequence, &mut exact_eval)
            .map_err(|e| format!("exact reference: {e}"))?;
        let memo = match *kind {
            Kind::Exact => None,
            Kind::Bnn(theta) => {
                let key = theta.to_bits();
                let at = match memo_evals.iter().position(|(k, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        let config = BnnMemoConfig::with_threshold(theta);
                        memo_evals.push((
                            key,
                            BnnMemoEvaluator::new(Arc::clone(&model.mirror), config),
                        ));
                        memo_evals.len() - 1
                    }
                };
                Some(
                    model
                        .network
                        .run(sequence, &mut memo_evals[at].1)
                        .map_err(|e| format!("BNN reference: {e}"))?,
                )
            }
        };
        out.push(Entry {
            sequence: sequence.clone(),
            kind: *kind,
            exact,
            memo,
        });
    }
    Ok(out)
}

/// The workload's own accuracy loss of the memoized entries against
/// their exact outputs, in percentage points.
pub fn loss_pp(metric: &AccuracyMetric, entries: &[Entry]) -> f64 {
    let (exact, memo): (Vec<Vec<Vector>>, Vec<Vec<Vector>>) = entries
        .iter()
        .filter_map(|e| e.memo.as_ref().map(|m| (e.exact.clone(), m.clone())))
        .unzip();
    metric.batch_loss(&exact, &memo)
}

/// Bit-identity of two output sequences.
pub fn same_bits(a: &[Vector], b: &[Vector]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Fails unless `got` is bit-identical to the entry's reference for
/// `kind`.
pub fn check_entry(what: &str, entry: &Entry, kind: Kind, got: &[Vector]) -> Result<(), String> {
    if same_bits(got, entry.expected(kind)) {
        Ok(())
    } else {
        Err(format!(
            "{what}: outputs differ from the single-sequence {} reference",
            match kind {
                Kind::Exact => "DeepRnn::run".to_string(),
                Kind::Bnn(theta) => format!("BnnMemoEvaluator (theta {theta})"),
            }
        ))
    }
}

/// Flips the lowest mantissa bit of the first output value: the fault
/// the benchmark's own tests inject to prove the gate trips.
pub fn corrupt(outputs: &mut [Vector]) {
    if let Some(first) = outputs.first_mut() {
        let mut values = first.as_slice().to_vec();
        values[0] = f32::from_bits(values[0].to_bits() ^ 1);
        *first = Vector::from(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_fails_the_check() {
        let model = Model::build(NetworkId::ImdbSentiment, 0.05).unwrap();
        let corpus = Corpus::new(&model, 4, 6);
        let mut rng = DeterministicRng::seed_from_u64(3);
        let jobs = vec![
            (corpus.draw(&mut rng, 2, 6), Kind::Exact),
            (corpus.draw(&mut rng, 2, 6), Kind::Bnn(1.0)),
        ];
        let entries = with_references(&model, jobs, 2).unwrap();
        for entry in &entries {
            let mut got = entry.expected(entry.kind).to_vec();
            assert!(check_entry("clean", entry, entry.kind, &got).is_ok());
            corrupt(&mut got);
            assert!(check_entry("corrupted", entry, entry.kind, &got).is_err());
        }
    }

    #[test]
    fn pools_repeat_for_a_seed_and_differ_across_seeds() {
        let model = Model::build(NetworkId::DeepSpeech2, 0.05).unwrap();
        let a = utterances(&model, 1, 3, 4, 8);
        let b = utterances(&model, 1, 3, 4, 8);
        let c = utterances(&model, 2, 3, 4, 8);
        for (x, y) in a.iter().zip(&b) {
            assert!(same_bits(x, y));
        }
        assert!(a.iter().zip(&c).any(|(x, y)| !same_bits(x, y)));
    }
}
