//! The neural demapper and its receiver-facing adapters.
//!
//! The demapper MLP is trained on logits (fused BCE); at the receiver
//! its outputs convert directly to LLRs. With `p_k = σ(z_k) =
//! P(b_k = 1 | y)`, the workspace LLR convention
//! (`LLR = ln P(b=0) − ln P(b=1)`) gives simply `LLR_k = −z_k` — the
//! sigmoid never needs to be evaluated for demapping.

use hybridem_comm::demapper::Demapper;
use hybridem_mathkit::complex::C32;
use hybridem_mathkit::matrix::Matrix;
use hybridem_nn::model::InferScratch;
use hybridem_nn::Sequential;
use std::cell::RefCell;

/// Reusable buffers for the batched receiver path: the I/Q input
/// matrix, the logits output and the model's internal ping-pong
/// activations. One set per thread — the link simulator calls
/// `demap_block` from many Monte-Carlo workers through `&dyn Demapper`,
/// and thread-locals keep the path allocation-free after warm-up
/// without serialising the workers behind a lock.
struct BlockScratch {
    input: Matrix<f32>,
    logits: Matrix<f32>,
    scratch: InferScratch,
}

thread_local! {
    static BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch {
        input: Matrix::zeros(0, 0),
        logits: Matrix::zeros(0, 0),
        scratch: InferScratch::new(),
    });
}

/// A trained demapper network with receiver adapters.
pub struct NeuralDemapper {
    model: Sequential,
}

impl NeuralDemapper {
    /// Wraps a logit-output model (`2 → … → m`).
    pub fn new(model: Sequential) -> Self {
        assert_eq!(model.input_dim(), 2, "demapper input must be I/Q");
        Self { model }
    }

    /// The underlying model (e.g. for snapshotting or FPGA export).
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access (training).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Bits per symbol.
    pub(crate) fn bits_per_symbol(&self) -> usize {
        self.model.output_dim()
    }

    /// Logits for a batch of received samples (`batch × 2` I/Q rows).
    pub(crate) fn logits(&self, samples: &Matrix<f32>) -> Matrix<f32> {
        self.model.infer(samples)
    }

    /// Hard symbol decision for one sample: the label formed by the
    /// per-bit decisions (MSB first). One-sample convenience over
    /// [`NeuralDemapper::decide_symbols`].
    pub fn decide_symbol(&self, y: C32) -> usize {
        let z = self.logits(&Matrix::from_vec(1, 2, vec![y.re, y.im]));
        let m = self.bits_per_symbol();
        let mut label = 0usize;
        for k in 0..m {
            label = (label << 1) | usize::from(z[(0, k)] > 0.0);
        }
        label
    }

    /// Hard symbol decisions for a whole block in one batched
    /// inference — the sampling primitive of the decision-region
    /// extraction, which evaluates tens of thousands of grid points.
    /// `out` is cleared and refilled with one label per sample.
    pub fn decide_symbols(&self, ys: &[C32], out: &mut Vec<usize>) {
        let m = self.bits_per_symbol();
        out.clear();
        out.reserve(ys.len());
        // Chunked so the LLR staging buffer stays small and constant
        // regardless of how many grid points the caller sweeps.
        const CHUNK: usize = 1024;
        let mut llrs = vec![0f32; CHUNK.min(ys.len()) * m];
        for ys_c in ys.chunks(CHUNK) {
            let llrs = &mut llrs[..ys_c.len() * m];
            self.demap_block(ys_c, llrs);
            for chunk in llrs.chunks_exact(m) {
                let mut label = 0usize;
                for &l in chunk {
                    // LLR = −logit, so LLR < 0 ⇔ logit > 0 ⇔ bit 1:
                    // the same decision rule as `decide_symbol`.
                    label = (label << 1) | usize::from(l < 0.0);
                }
                out.push(label);
            }
        }
    }
}

impl Demapper for NeuralDemapper {
    fn bits_per_symbol(&self) -> usize {
        self.model.output_dim()
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        let m = self.bits_per_symbol();
        assert_eq!(
            out.len(),
            ys.len() * m,
            "demap_block output buffer must hold exactly {} LLRs",
            ys.len() * m
        );
        if ys.is_empty() {
            return;
        }
        // One N×2 batched inference for the whole block. Dense rows are
        // independent dot products, so row r of the batch is
        // bit-identical to a 1×2 inference of sample r (and so to
        // `llrs`, the one-row block) — the property the split-invariance
        // tests pin down.
        BLOCK_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.input.resize_to(ys.len(), 2);
            for (row, y) in s.input.as_mut_slice().chunks_exact_mut(2).zip(ys) {
                row[0] = y.re;
                row[1] = y.im;
            }
            self.model
                .infer_into(&s.input, &mut s.logits, &mut s.scratch);
            debug_assert_eq!(s.logits.shape(), (ys.len(), m));
            for (o, &z) in out.iter_mut().zip(s.logits.as_slice()) {
                *o = -z;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridem_mathkit::rng::Xoshiro256pp;
    use hybridem_nn::model::MlpSpec;

    fn demapper(seed: u64) -> NeuralDemapper {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NeuralDemapper::new(MlpSpec::paper_demapper_logits().build(&mut rng))
    }

    #[test]
    fn llr_sign_matches_probability() {
        let d = demapper(1);
        let y = C32::new(0.3, -0.8);
        let mut llr = [0f32; 4];
        d.llrs(y, &mut llr);
        let p = d
            .logits(&Matrix::from_vec(1, 2, vec![y.re, y.im]))
            .map(hybridem_mathkit::special::sigmoid_f32);
        for k in 0..4 {
            // p > 0.5 ⇔ bit 1 more likely ⇔ LLR < 0.
            assert_eq!(p[(0, k)] > 0.5, llr[k] < 0.0, "bit {k}");
        }
    }

    #[test]
    fn decide_symbol_consistent_with_llrs() {
        let d = demapper(2);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut llr = [0f32; 4];
        for _ in 0..100 {
            let y = C32::new(rng.normal_f32(), rng.normal_f32());
            let label = d.decide_symbol(y);
            d.llrs(y, &mut llr);
            for (k, &l) in llr.iter().enumerate() {
                let bit = (label >> (3 - k)) & 1;
                assert_eq!(bit == 1, l < 0.0);
            }
        }
    }

    #[test]
    fn batch_and_single_paths_agree() {
        let d = demapper(4);
        let batch = Matrix::from_rows(&[&[0.1f32, 0.2], &[-0.5, 0.9]]);
        let zs = d.logits(&batch);
        let mut llr = [0f32; 4];
        d.llrs(C32::new(0.1, 0.2), &mut llr);
        for k in 0..4 {
            assert!((llr[k] + zs[(0, k)]).abs() < 1e-6);
        }
    }
}
