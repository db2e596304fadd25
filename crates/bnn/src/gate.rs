//! Binary mirror of a full-precision recurrent gate (Figure 9).

use crate::bitvec::BitVector;
use crate::Result;
use nfm_rnn::Gate;

/// The binarized mirror of one [`Gate`]: per-neuron packed sign vectors
/// of the forward (`W_x`) and recurrent (`W_h`) weight rows.
///
/// Mirroring is exactly the construction of Figure 9 in the paper: the
/// trained full-precision weights are binarized with the sign function;
/// peepholes, bias and the activation function are omitted because the
/// BNN output is only used as a change detector, never as the neuron's
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryGate {
    wx_rows: Vec<BitVector>,
    wh_rows: Vec<BitVector>,
    input_size: usize,
    hidden_size: usize,
}

impl BinaryGate {
    /// Builds the binary mirror of a full-precision gate.
    pub fn mirror(gate: &Gate) -> Self {
        let wx_rows = (0..gate.neurons())
            .map(|n| BitVector::from_signs(gate.wx().row(n)))
            .collect();
        let wh_rows = (0..gate.neurons())
            .map(|n| BitVector::from_signs(gate.wh().row(n)))
            .collect();
        BinaryGate {
            wx_rows,
            wh_rows,
            input_size: gate.input_size(),
            hidden_size: gate.hidden_size(),
        }
    }

    /// Reassembles a mirror from explicit per-neuron sign rows — the
    /// path a loaded model artifact takes, so the prebuilt mirror never
    /// has to be re-binarized from full-precision weights.
    ///
    /// # Errors
    ///
    /// Returns [`BnnError::LengthMismatch`](crate::BnnError) if the row
    /// counts differ or any row's width disagrees with the declared
    /// sizes.
    pub fn from_rows(
        wx_rows: Vec<BitVector>,
        wh_rows: Vec<BitVector>,
        input_size: usize,
        hidden_size: usize,
    ) -> Result<Self> {
        if wx_rows.len() != wh_rows.len() {
            return Err(crate::BnnError::LengthMismatch {
                left: wx_rows.len(),
                right: wh_rows.len(),
            });
        }
        for row in &wx_rows {
            if row.len() != input_size {
                return Err(crate::BnnError::LengthMismatch {
                    left: row.len(),
                    right: input_size,
                });
            }
        }
        for row in &wh_rows {
            if row.len() != hidden_size {
                return Err(crate::BnnError::LengthMismatch {
                    left: row.len(),
                    right: hidden_size,
                });
            }
        }
        Ok(BinaryGate {
            wx_rows,
            wh_rows,
            input_size,
            hidden_size,
        })
    }

    /// Packed signs of neuron `n`'s forward-weight row.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.neurons()`.
    pub fn wx_row(&self, n: usize) -> &BitVector {
        &self.wx_rows[n]
    }

    /// Packed signs of neuron `n`'s recurrent-weight row.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.neurons()`.
    pub fn wh_row(&self, n: usize) -> &BitVector {
        &self.wh_rows[n]
    }

    /// Number of neurons in the mirrored gate.
    pub fn neurons(&self) -> usize {
        self.wx_rows.len()
    }

    /// Width of the forward input.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Width of the recurrent input.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Packs the signs of the current inputs, producing the operand pair
    /// the binary dot products consume.  Call once per gate per timestep
    /// and share across the gate's neurons (exactly what the hardware's
    /// FMU does with its concatenated input vector).
    pub fn binarize_inputs(&self, x: &[f32], h_prev: &[f32]) -> (BitVector, BitVector) {
        (BitVector::from_signs(x), BitVector::from_signs(h_prev))
    }

    /// Binary output of neuron `n` (Equation 8): the XNOR-popcount dot
    /// product over forward plus recurrent connections.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if the packed inputs do not match
    /// the gate's dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.neurons()`.
    pub fn neuron_output(&self, n: usize, xb: &BitVector, hb: &BitVector) -> Result<i32> {
        let fwd = self.wx_rows[n].xnor_dot(xb)?;
        let rec = self.wh_rows[n].xnor_dot(hb)?;
        Ok(fwd + rec)
    }

    /// [`BinaryGate::neuron_output`] on an explicit popcount tier — the
    /// hook cross-tier tests and benches use for the per-neuron
    /// evaluation shape.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if the packed inputs do not match
    /// the gate's dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.neurons()` or `backend` is not supported on
    /// this host.
    pub fn neuron_output_on(
        &self,
        backend: crate::PopcountBackend,
        n: usize,
        xb: &BitVector,
        hb: &BitVector,
    ) -> Result<i32> {
        let fwd = self.wx_rows[n].xnor_dot_on(xb, backend)?;
        let rec = self.wh_rows[n].xnor_dot_on(hb, backend)?;
        Ok(fwd + rec)
    }

    /// Check-free variant of [`BinaryGate::neuron_output`] for batched
    /// callers that validated the packed input widths once per gate
    /// invocation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the widths do not match.
    #[inline]
    pub fn neuron_output_unchecked(&self, n: usize, xb: &BitVector, hb: &BitVector) -> i32 {
        debug_assert_eq!(xb.len(), self.input_size);
        debug_assert_eq!(hb.len(), self.hidden_size);
        self.wx_rows[n].xnor_dot_unchecked(xb) + self.wh_rows[n].xnor_dot_unchecked(hb)
    }

    /// Every neuron's binary output in one call:
    /// `out[n] = neuron_output(n, xb, hb)` — a one-lane
    /// [`BinaryGate::neuron_outputs_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if the packed inputs or `out` do
    /// not match the gate's dimensions.
    pub fn neuron_outputs_into(
        &self,
        xb: &BitVector,
        hb: &BitVector,
        out: &mut [i32],
    ) -> Result<()> {
        self.neuron_outputs_batch_into(std::slice::from_ref(xb), std::slice::from_ref(hb), out)
    }

    /// Every neuron's binary output for **all** lanes of a batch in one
    /// call, lane-striped:
    /// `out[l * neurons + n] = neuron_output(n, &xbs[l], &hbs[l])`.
    ///
    /// One dispatched XNOR-popcount call per gate per wave (one tight
    /// row loop per lane over the cache-resident mirror rows), instead
    /// of paying the dispatch boundary twice per neuron (mirror rows are
    /// only a few words wide, so that overhead rivals the popcounts
    /// themselves).  Popcounts are integer-exact, so every lane equals
    /// the per-neuron [`BinaryGate::neuron_output`].
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `xbs` and `hbs` have different
    /// lane counts, any lane's packed inputs do not match the gate's
    /// dimensions, or `out.len() != xbs.len() * self.neurons()`.
    pub fn neuron_outputs_batch_into(
        &self,
        xbs: &[BitVector],
        hbs: &[BitVector],
        out: &mut [i32],
    ) -> Result<()> {
        self.validate_batch(xbs, hbs, out)?;
        self.neuron_outputs_batch_unchecked_into(xbs, hbs, out);
        Ok(())
    }

    /// [`BinaryGate::neuron_outputs_batch_into`] on an explicit popcount
    /// tier — the hook cross-tier tests and benches use for the
    /// streamed whole-wave evaluation shape.
    ///
    /// # Errors
    ///
    /// Same as [`BinaryGate::neuron_outputs_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this host.
    pub fn neuron_outputs_batch_on(
        &self,
        backend: crate::PopcountBackend,
        xbs: &[BitVector],
        hbs: &[BitVector],
        out: &mut [i32],
    ) -> Result<()> {
        self.validate_batch(xbs, hbs, out)?;
        crate::popcount::gate_outputs_lanes_on(
            backend,
            &self.wx_rows,
            &self.wh_rows,
            xbs,
            hbs,
            out,
        );
        Ok(())
    }

    fn validate_batch(&self, xbs: &[BitVector], hbs: &[BitVector], out: &[i32]) -> Result<()> {
        if xbs.len() != hbs.len() {
            return Err(crate::BnnError::LengthMismatch {
                left: xbs.len(),
                right: hbs.len(),
            });
        }
        for xb in xbs {
            if xb.len() != self.input_size {
                return Err(crate::BnnError::LengthMismatch {
                    left: xb.len(),
                    right: self.input_size,
                });
            }
        }
        for hb in hbs {
            if hb.len() != self.hidden_size {
                return Err(crate::BnnError::LengthMismatch {
                    left: hb.len(),
                    right: self.hidden_size,
                });
            }
        }
        if out.len() != xbs.len() * self.neurons() {
            return Err(crate::BnnError::LengthMismatch {
                left: out.len(),
                right: xbs.len() * self.neurons(),
            });
        }
        Ok(())
    }

    /// Check-free variant of [`BinaryGate::neuron_outputs_batch_into`]
    /// for callers that validated the widths once per gate invocation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any dimension does not match.
    #[inline]
    pub fn neuron_outputs_batch_unchecked_into(
        &self,
        xbs: &[BitVector],
        hbs: &[BitVector],
        out: &mut [i32],
    ) {
        debug_assert_eq!(xbs.len(), hbs.len());
        debug_assert!(xbs.iter().all(|b| b.len() == self.input_size));
        debug_assert!(hbs.iter().all(|b| b.len() == self.hidden_size));
        debug_assert_eq!(out.len(), xbs.len() * self.neurons());
        crate::popcount::gate_outputs_lanes(&self.wx_rows, &self.wh_rows, xbs, hbs, out);
    }

    /// Convenience wrapper that binarizes the raw inputs and evaluates
    /// neuron `n` in one call (used by tests and by the software-only
    /// memoization path; the runner-level code binarizes once per gate).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if the inputs do not match the
    /// gate's dimensions.
    pub fn neuron_output_from_raw(&self, n: usize, x: &[f32], h_prev: &[f32]) -> Result<i32> {
        let (xb, hb) = self.binarize_inputs(x, h_prev);
        self.neuron_output(n, &xb, &hb)
    }

    /// Total number of sign bits stored for this gate (the contents of
    /// the accelerator's sign buffer).
    pub fn sign_bit_count(&self) -> usize {
        self.neurons() * (self.input_size + self.hidden_size)
    }

    /// The maximum possible magnitude of a neuron output
    /// (`input_size + hidden_size`), used to normalise relative errors.
    pub fn max_output_magnitude(&self) -> i32 {
        (self.input_size + self.hidden_size) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::reference_binary_dot;
    use nfm_tensor::activation::Activation;
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::{Matrix, Vector};

    fn fp_gate(neurons: usize, input: usize, hidden: usize, seed: u64) -> Gate {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        Gate::random(neurons, input, hidden, Activation::Sigmoid, true, &mut rng).unwrap()
    }

    #[test]
    fn mirror_preserves_shape() {
        let g = fp_gate(6, 10, 6, 1);
        let b = BinaryGate::mirror(&g);
        assert_eq!(b.neurons(), 6);
        assert_eq!(b.input_size(), 10);
        assert_eq!(b.hidden_size(), 6);
        assert_eq!(b.sign_bit_count(), 6 * 16);
        assert_eq!(b.max_output_magnitude(), 16);
    }

    #[test]
    fn neuron_output_matches_reference_binary_dot() {
        let g = fp_gate(4, 8, 4, 2);
        let b = BinaryGate::mirror(&g);
        let mut rng = DeterministicRng::seed_from_u64(3);
        let x: Vec<f32> = (0..8).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..4).map(|_| rng.uniform(-1.0, 1.0)).collect();
        for n in 0..4 {
            let expected =
                reference_binary_dot(g.wx().row(n), &x) + reference_binary_dot(g.wh().row(n), &h);
            assert_eq!(b.neuron_output_from_raw(n, &x, &h).unwrap(), expected);
        }
    }

    #[test]
    fn output_bounded_by_connection_count() {
        let g = fp_gate(3, 5, 3, 4);
        let b = BinaryGate::mirror(&g);
        let x = vec![1.0; 5];
        let h = vec![-1.0; 3];
        for n in 0..3 {
            let out = b.neuron_output_from_raw(n, &x, &h).unwrap();
            assert!(out.abs() <= b.max_output_magnitude());
        }
    }

    #[test]
    fn whole_gate_outputs_match_per_neuron_outputs() {
        let g = fp_gate(13, 21, 13, 7); // odd sizes: tails + word splits
        let b = BinaryGate::mirror(&g);
        let mut rng = DeterministicRng::seed_from_u64(8);
        let x: Vec<f32> = (0..21).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..13).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let (xb, hb) = b.binarize_inputs(&x, &h);
        let mut out = vec![0i32; 13];
        b.neuron_outputs_into(&xb, &hb, &mut out).unwrap();
        for (n, &o) in out.iter().enumerate() {
            assert_eq!(o, b.neuron_output(n, &xb, &hb).unwrap(), "neuron {n}");
        }
        // Dimension checks.
        assert!(b
            .neuron_outputs_into(&BitVector::zeros(20), &hb, &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_into(&xb, &BitVector::zeros(12), &mut out)
            .is_err());
        assert!(b.neuron_outputs_into(&xb, &hb, &mut out[..12]).is_err());
    }

    #[test]
    fn batched_lane_outputs_match_single_lane_calls() {
        let g = fp_gate(13, 21, 13, 9); // odd sizes: tails + word splits
        let b = BinaryGate::mirror(&g);
        let mut rng = DeterministicRng::seed_from_u64(10);
        for lanes in [1usize, 2, 3, 5, 8] {
            let mut xbs = Vec::new();
            let mut hbs = Vec::new();
            for _ in 0..lanes {
                let x: Vec<f32> = (0..21).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let h: Vec<f32> = (0..13).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let (xb, hb) = b.binarize_inputs(&x, &h);
                xbs.push(xb);
                hbs.push(hb);
            }
            let mut batched = vec![0i32; lanes * 13];
            b.neuron_outputs_batch_into(&xbs, &hbs, &mut batched)
                .unwrap();
            for l in 0..lanes {
                let mut single = vec![0i32; 13];
                b.neuron_outputs_into(&xbs[l], &hbs[l], &mut single)
                    .unwrap();
                assert_eq!(
                    &batched[l * 13..(l + 1) * 13],
                    single.as_slice(),
                    "lane {l}"
                );
            }
            // Explicit-tier hooks: every supported tier, streamed and
            // per-neuron, agrees with the active-tier batched call
            // (popcounts are integer-exact on every tier).
            for pop in crate::PopcountBackend::supported() {
                let mut on = vec![0i32; lanes * 13];
                b.neuron_outputs_batch_on(pop, &xbs, &hbs, &mut on).unwrap();
                assert_eq!(on, batched, "{pop} lanes {lanes}");
                for l in 0..lanes {
                    for n in 0..13 {
                        assert_eq!(
                            b.neuron_output_on(pop, n, &xbs[l], &hbs[l]).unwrap(),
                            batched[l * 13 + n],
                            "{pop} lane {l} neuron {n}"
                        );
                    }
                }
            }
        }
        // Dimension checks.
        let (xb, hb) = b.binarize_inputs(&[0.5; 21], &[0.5; 13]);
        let mut out = vec![0i32; 13];
        assert!(b
            .neuron_outputs_batch_into(std::slice::from_ref(&xb), &[], &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(&[BitVector::zeros(20)], std::slice::from_ref(&hb), &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(std::slice::from_ref(&xb), &[BitVector::zeros(12)], &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(&[xb], &[hb], &mut out[..12])
            .is_err());
    }

    #[test]
    fn neuron_output_rejects_wrong_widths() {
        let g = fp_gate(2, 4, 2, 5);
        let b = BinaryGate::mirror(&g);
        let xb = BitVector::zeros(3);
        let hb = BitVector::zeros(2);
        assert!(b.neuron_output(0, &xb, &hb).is_err());
    }

    #[test]
    fn mirror_of_explicit_weights_has_expected_signs() {
        let wx = Matrix::from_rows(vec![vec![0.5, -0.5, 0.0]]).unwrap();
        let wh = Matrix::from_rows(vec![vec![-1.0]]).unwrap();
        let g = Gate::new(wx, wh, Vector::zeros(1), None, Activation::Identity).unwrap();
        let b = BinaryGate::mirror(&g);
        // x all positive -> forward dot = (+1)(+1) + (-1)(+1) + (+1)(+1) = 1
        // h positive -> recurrent dot = (-1)(+1) = -1
        assert_eq!(
            b.neuron_output_from_raw(0, &[1.0, 1.0, 1.0], &[1.0])
                .unwrap(),
            0
        );
    }
}
