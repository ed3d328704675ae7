//! Layer stacks and model snapshots.
//!
//! [`Sequential`] chains layers into the demapper MLP; [`MlpSpec`] is
//! the declarative description used across the workspace (the paper's
//! demapper is `MlpSpec::paper_demapper()` = `2→16→16→4`,
//! ReLU/ReLU/Sigmoid — see DESIGN.md §5 for why the 352-DSP figure in
//! the paper's Table 2 pins down this topology). Snapshots serialise to
//! JSON through [`hybridem_mathkit::json`] so trained models can be
//! checkpointed, shipped to the FPGA builder, and reloaded in tests.

use crate::layer::{Layer, Param};
use crate::layers::{Dense, FakeQuant, Relu, Sigmoid};
use crate::loss::{bce_with_logits, bce_with_logits_grad};
use crate::optim::Adam;
use hybridem_fixed::{QFormat, QuantSpec, Rounding};
use hybridem_mathkit::json::{FromJson, Json, JsonError, ToJson};
use hybridem_mathkit::matrix::Matrix;
use hybridem_mathkit::rng::Xoshiro256pp;

/// Hidden/output activation choice for [`MlpSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation (linear / logits output).
    Linear,
}

/// Declarative MLP description.
#[derive(Clone, Debug, PartialEq)]
pub struct MlpSpec {
    /// Layer widths, `dims[0]` = input features, last = output features.
    pub dims: Vec<usize>,
    /// Activation after each hidden dense layer.
    pub hidden: Activation,
    /// Activation after the final dense layer.
    pub output: Activation,
}

impl MlpSpec {
    /// The paper's demapper: 2 inputs (I/Q), hidden widths 16 and 16,
    /// 4 outputs (bit probabilities); ReLU hidden, sigmoid output.
    pub fn paper_demapper() -> Self {
        Self {
            dims: vec![2, 16, 16, 4],
            hidden: Activation::Relu,
            output: Activation::Sigmoid,
        }
    }

    /// Same topology but with a linear (logit) output, for training with
    /// the fused BCE-with-logits loss.
    pub fn paper_demapper_logits() -> Self {
        Self {
            output: Activation::Linear,
            ..Self::paper_demapper()
        }
    }

    /// Total multiply–accumulate operations of one forward pass — the
    /// quantity that pins the DSP count of a fully parallel FPGA
    /// implementation (352 for the paper's demapper).
    pub fn mac_count(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1]).sum()
    }

    /// Builds the runtime model with fresh initialisation (He for ReLU
    /// stacks, Xavier otherwise).
    pub fn build(&self, rng: &mut Xoshiro256pp) -> Sequential {
        assert!(self.dims.len() >= 2, "need at least input and output dims");
        let init = match self.hidden {
            Activation::Relu => crate::init::Init::HeUniform,
            _ => crate::init::Init::XavierUniform,
        };
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let n = self.dims.len() - 1;
        for (i, w) in self.dims.windows(2).enumerate() {
            layers.push(Box::new(Dense::new(w[0], w[1], init, rng)));
            let act = if i + 1 == n { self.output } else { self.hidden };
            match act {
                Activation::Relu => layers.push(Box::new(Relu)),
                Activation::Sigmoid => layers.push(Box::new(Sigmoid)),
                Activation::Linear => {}
            }
        }
        Sequential::new(layers, self.dims[0])
    }
}

/// Reusable ping-pong activation buffers for [`Sequential::infer_into`].
///
/// After one warm-up pass at a given batch size the buffers have grown
/// to their high-water mark and subsequent passes allocate nothing —
/// the property the block demapper's Monte-Carlo hot loop relies on.
pub struct InferScratch {
    ping: Matrix<f32>,
    pong: Matrix<f32>,
}

impl InferScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            ping: Matrix::zeros(0, 0),
            pong: Matrix::zeros(0, 0),
        }
    }
}

impl Default for InferScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A chain of layers applied in order, with the training tape that its
/// backward pass reads.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    input_dim: usize,
    /// Index of the lowest layer that holds parameters: when nobody
    /// reads the input gradient, back-propagation stops there.
    first_trainable: usize,
    tape: Tape,
}

/// The buffers of one training pass, reused from step to step. After a
/// pass at a batch size they have grown to their high-water mark, and
/// later passes at that size allocate nothing.
struct Tape {
    /// `acts[0]` is the batch input and `acts[i + 1]` the output of
    /// layer `i`, as the last [`Sequential::forward`] left them.
    acts: Vec<Matrix<f32>>,
    /// The gradient with respect to the activation back-propagation has
    /// reached: ∂L/∂output before it starts, ∂L/∂input once
    /// [`Sequential::backward_input`] has run.
    grad: Matrix<f32>,
    /// Where the current layer writes its input gradient, swapped with
    /// `grad` once it has.
    spare: Matrix<f32>,
}

impl Sequential {
    /// Builds from boxed layers; `input_dim` is the expected feature
    /// count of the input batch.
    pub(crate) fn new(layers: Vec<Box<dyn Layer>>, input_dim: usize) -> Self {
        let first_trainable = layers
            .iter()
            .position(|l| !l.params().is_empty())
            .unwrap_or(layers.len());
        Self {
            layers,
            input_dim,
            first_trainable,
            tape: Tape {
                acts: Vec::new(),
                grad: Matrix::zeros(0, 0),
                spare: Matrix::zeros(0, 0),
            },
        }
    }

    /// Expected input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        let mut d = self.input_dim;
        for l in &self.layers {
            d = l.output_dim(d);
        }
        d
    }

    /// Immutable view of the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Training forward pass: runs every layer's [`Layer::infer_into`]
    /// on the tape, keeping each layer's input and output for
    /// [`Sequential::backward`], and returns the output. Its arithmetic
    /// is that of [`Sequential::infer`]; once the tape is warm at a
    /// batch size, it allocates nothing.
    pub fn forward(&mut self, input: &Matrix<f32>) -> &Matrix<f32> {
        let acts = &mut self.tape.acts;
        acts.resize_with(self.layers.len() + 1, || Matrix::zeros(0, 0));
        acts[0].resize_to(input.rows(), input.cols());
        acts[0].as_mut_slice().copy_from_slice(input.as_slice());
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, next) = acts.split_at_mut(i + 1);
            layer.infer_into(&done[i], &mut next[0]);
        }
        &acts[self.layers.len()]
    }

    /// Pure inference pass (the tape untouched): safe to call from
    /// shared references across threads. Allocates fresh buffers per
    /// call; batch hot loops should hold an [`InferScratch`] and use
    /// [`Sequential::infer_into`] instead.
    pub fn infer(&self, input: &Matrix<f32>) -> Matrix<f32> {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = InferScratch::new();
        self.infer_into(input, &mut out, &mut scratch);
        out
    }

    /// Allocation-free inference: runs the whole stack writing into
    /// `out`, ping-ponging intermediate activations through `scratch`.
    /// All buffers are reshaped with [`Matrix::resize_to`], so once
    /// they have been warmed at a batch size nothing allocates. The
    /// arithmetic is bit-identical to [`Sequential::infer`] (which is
    /// implemented on top of this method).
    pub fn infer_into(
        &self,
        input: &Matrix<f32>,
        out: &mut Matrix<f32>,
        scratch: &mut InferScratch,
    ) {
        match self.layers.len() {
            0 => {
                out.resize_to(input.rows(), input.cols());
                out.as_mut_slice().copy_from_slice(input.as_slice());
            }
            1 => self.layers[0].infer_into(input, out),
            n => {
                let InferScratch { ping, pong } = scratch;
                let (mut src, mut dst) = (ping, pong);
                self.layers[0].infer_into(input, src);
                for l in &self.layers[1..n - 1] {
                    l.infer_into(src, dst);
                    std::mem::swap(&mut src, &mut dst);
                }
                self.layers[n - 1].infer_into(src, out);
            }
        }
    }

    /// Back-propagates `grad_out` (∂L/∂output) through the tape of the
    /// last [`Sequential::forward`], adding every parameter's gradient
    /// to [`Param`]'s accumulator. Nobody reads the input gradient here,
    /// so the pass stops at the lowest layer with parameters and skips
    /// that layer's `g·W`.
    ///
    /// # Panics
    /// Panics before a forward pass, or if `grad_out` does not have the
    /// output's shape.
    pub fn backward(&mut self, grad_out: &Matrix<f32>) {
        self.load_output_grad(grad_out);
        self.backprop(false);
    }

    /// [`Sequential::backward`], also computing ∂L/∂input into a reused
    /// buffer (the E2E trainer passes it through the channel into the
    /// mapper).
    ///
    /// # Panics
    /// As [`Sequential::backward`].
    pub fn backward_input(&mut self, grad_out: &Matrix<f32>) -> &Matrix<f32> {
        self.load_output_grad(grad_out);
        self.backprop(true);
        &self.tape.grad
    }

    /// One step of BCE-with-logits training, the step of every BCE loop
    /// that trains a model alone (retraining, QAT fine-tuning): zero the
    /// gradients, run [`Sequential::forward`] on `x`, write the
    /// [`bce_with_logits`] gradient against `targets` into the tape,
    /// back-propagate it without the input gradient, and apply one `opt`
    /// update. With `with_loss` it returns the batch loss before the
    /// update; without, the loss (one `ln` per logit and an f64 sum) is
    /// not computed. Once the tape is warm at a batch size, a step
    /// allocates nothing.
    pub fn bce_step(
        &mut self,
        opt: &mut Adam,
        x: &Matrix<f32>,
        targets: &Matrix<f32>,
        with_loss: bool,
    ) -> Option<f32> {
        self.zero_grad();
        self.forward(x);
        let Tape { acts, grad, .. } = &mut self.tape;
        let z = &acts[self.layers.len()];
        let loss = if with_loss {
            Some(bce_with_logits(z, targets, grad))
        } else {
            bce_with_logits_grad(z, targets, grad);
            None
        };
        self.backprop(false);
        opt.step(&mut self.params_mut());
        loss
    }

    /// Copies ∂L/∂output into the tape's gradient buffer.
    fn load_output_grad(&mut self, grad_out: &Matrix<f32>) {
        let grad = &mut self.tape.grad;
        grad.resize_to(grad_out.rows(), grad_out.cols());
        grad.as_mut_slice().copy_from_slice(grad_out.as_slice());
    }

    /// Back-propagates the tape's gradient buffer from the output down,
    /// leaving ∂L/∂input in it when `input_grad` is set.
    fn backprop(&mut self, input_grad: bool) {
        let n = self.layers.len();
        let Tape { acts, grad, spare } = &mut self.tape;
        assert_eq!(acts.len(), n + 1, "backward before forward");
        assert_eq!(grad.shape(), acts[n].shape(), "output gradient shape");
        let stop = if input_grad { 0 } else { self.first_trainable };
        for i in (stop..n).rev() {
            let (input, output) = (&acts[i], &acts[i + 1]);
            if i > stop || input_grad {
                self.layers[i].backward(input, output, grad, Some(&mut *spare));
                std::mem::swap(grad, spare);
            } else {
                self.layers[i].backward(input, output, grad, None);
            }
        }
    }

    /// All trainable parameters in layer order.
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut().iter_mut())
    }

    /// Read-only parameters in layer order.
    pub(crate) fn params(&self) -> impl Iterator<Item = &Param> {
        self.layers.iter().flat_map(|l| l.params().iter())
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Serialisable snapshot of architecture and weights.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot {
            input_dim: self.input_dim,
            layers: self
                .layers
                .iter()
                .map(|l| match l.name() {
                    "dense" => {
                        let ps = l.params();
                        LayerSnapshot::Dense {
                            weight: ps[0].value.clone(),
                            bias: ps[1].value.clone(),
                        }
                    }
                    "relu" => LayerSnapshot::Relu,
                    "sigmoid" => LayerSnapshot::Sigmoid,
                    "fake_quant" => LayerSnapshot::FakeQuant {
                        spec: l
                            .quant_spec()
                            .expect("fake_quant layer must expose its QuantSpec"),
                    },
                    other => panic!("unsnapshotable layer {other}"),
                })
                .collect(),
        }
    }

    /// JSON round-trip helpers.
    pub fn to_json(&self) -> String {
        hybridem_mathkit::json::to_string(&self.snapshot())
    }

    /// Restores a model from JSON produced by [`Sequential::to_json`].
    /// Every dense layer's shape is checked against the width the layer
    /// before it produces (the snapshot's `input_dim` for the first), so
    /// a corrupt snapshot is an error here rather than a panic on first
    /// use.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let snap: ModelSnapshot = hybridem_mathkit::json::from_str(json)?;
        let mut width = snap.input_dim;
        for (i, layer) in snap.layers.iter().enumerate() {
            if let LayerSnapshot::Dense { weight, bias } = layer {
                if weight.cols() != width {
                    return Err(JsonError::new(format!(
                        "layer {i}: dense weight is {}x{} but its input is {width} wide",
                        weight.rows(),
                        weight.cols()
                    )));
                }
                if bias.shape() != (1, weight.rows()) {
                    return Err(JsonError::new(format!(
                        "layer {i}: dense bias is {}x{}, not 1x{}",
                        bias.rows(),
                        bias.cols(),
                        weight.rows()
                    )));
                }
                width = weight.rows();
            }
        }
        Ok(Self::from_snapshot(snap))
    }

    /// Rebuilds a model from a snapshot.
    pub fn from_snapshot(snap: ModelSnapshot) -> Self {
        let layers: Vec<Box<dyn Layer>> = snap
            .layers
            .into_iter()
            .map(|l| -> Box<dyn Layer> {
                match l {
                    LayerSnapshot::Dense { weight, bias } => {
                        Box::new(Dense::from_parts(weight, bias))
                    }
                    LayerSnapshot::Relu => Box::new(Relu),
                    LayerSnapshot::Sigmoid => Box::new(Sigmoid),
                    LayerSnapshot::FakeQuant { spec } => Box::new(FakeQuant::new(spec)),
                }
            })
            .collect();
        Self::new(layers, snap.input_dim)
    }
}

/// Rebuilds a float model as a quantisation-aware one: a
/// `FakeQuant` cast is inserted at every tensor boundary of the
/// deployed integer datapath — in front of the first layer (the
/// input/ADC format) and after each dense layer's activation (the
/// layer's activation format). `boundaries` therefore holds
/// `dense_count + 1` specs, in datapath order. Weights stay in f32;
/// the FPGA graph compiler (DESIGN.md §9) quantises them at deploy
/// time and reads the boundary specs back out of the model via
/// [`Layer::quant_spec`].
///
/// # Panics
/// Panics if `model` already contains fake-quantisation layers or if
/// `boundaries` does not match the dense-layer count.
pub fn insert_fake_quant(model: &Sequential, boundaries: &[QuantSpec]) -> Sequential {
    let snap = model.snapshot();
    assert!(
        !snap
            .layers
            .iter()
            .any(|l| matches!(l, LayerSnapshot::FakeQuant { .. })),
        "model is already quantisation-aware"
    );
    let dense_count = snap
        .layers
        .iter()
        .filter(|l| matches!(l, LayerSnapshot::Dense { .. }))
        .count();
    assert_eq!(
        boundaries.len(),
        dense_count + 1,
        "need one boundary spec per dense layer plus the input"
    );

    let mut qat = Vec::with_capacity(snap.layers.len() + boundaries.len());
    qat.push(LayerSnapshot::FakeQuant {
        spec: boundaries[0],
    });
    let mut di = 0usize;
    let mut iter = snap.layers.into_iter().peekable();
    while let Some(l) = iter.next() {
        let is_dense = matches!(l, LayerSnapshot::Dense { .. });
        qat.push(l);
        if is_dense {
            // The boundary sits after the dense layer's activation.
            if matches!(
                iter.peek(),
                Some(LayerSnapshot::Relu | LayerSnapshot::Sigmoid)
            ) {
                qat.push(iter.next().unwrap());
            }
            di += 1;
            qat.push(LayerSnapshot::FakeQuant {
                spec: boundaries[di],
            });
        }
    }
    Sequential::from_snapshot(ModelSnapshot {
        input_dim: snap.input_dim,
        layers: qat,
    })
}

/// Reads the fake-quantisation boundary specs back out of a QAT model
/// (one per `FakeQuant` layer, in layer order). Empty for a plain
/// float model.
pub fn boundary_specs(model: &Sequential) -> Vec<QuantSpec> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.quant_spec())
        .collect()
}

/// One serialised layer.
#[derive(Clone, Debug)]
pub enum LayerSnapshot {
    /// Dense layer weights (`out × in`) and bias (`1 × out`).
    Dense {
        /// Weight matrix.
        weight: Matrix<f32>,
        /// Bias row vector.
        bias: Matrix<f32>,
    },
    /// ReLU activation.
    Relu,
    /// Sigmoid activation.
    Sigmoid,
    /// Straight-through fake-quantisation boundary (QAT).
    FakeQuant {
        /// The fixed-point cast the layer simulates.
        spec: QuantSpec,
    },
}

/// A serialised model: architecture plus weights.
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    /// Expected input feature count.
    pub input_dim: usize,
    /// Layers in application order.
    pub layers: Vec<LayerSnapshot>,
}

impl ToJson for Activation {
    fn to_json(&self) -> Json {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Linear => "linear",
        };
        name.to_json()
    }
}

impl FromJson for Activation {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "relu" => Ok(Activation::Relu),
            "sigmoid" => Ok(Activation::Sigmoid),
            "linear" => Ok(Activation::Linear),
            other => Err(JsonError::new(format!("unknown activation `{other}`"))),
        }
    }
}

hybridem_mathkit::impl_json!(MlpSpec {
    dims,
    hidden,
    output
});

impl ToJson for LayerSnapshot {
    fn to_json(&self) -> Json {
        match self {
            LayerSnapshot::Dense { weight, bias } => Json::object([
                ("kind", "dense".to_json()),
                ("weight", weight.to_json()),
                ("bias", bias.to_json()),
            ]),
            LayerSnapshot::Relu => Json::object([("kind", "relu".to_json())]),
            LayerSnapshot::Sigmoid => Json::object([("kind", "sigmoid".to_json())]),
            LayerSnapshot::FakeQuant { spec } => Json::object([
                ("kind", "fake_quant".to_json()),
                ("total_bits", spec.format.total_bits.to_json()),
                ("frac_bits", spec.format.frac_bits.to_json()),
                ("signed", spec.format.signed.to_json()),
                ("rounding", rounding_name(spec.rounding).to_json()),
            ]),
        }
    }
}

fn rounding_name(r: Rounding) -> &'static str {
    match r {
        Rounding::Truncate => "truncate",
        Rounding::Nearest => "nearest",
        Rounding::NearestEven => "nearest_even",
    }
}

fn rounding_from_name(name: &str) -> Result<Rounding, JsonError> {
    match name {
        "truncate" => Ok(Rounding::Truncate),
        "nearest" => Ok(Rounding::Nearest),
        "nearest_even" => Ok(Rounding::NearestEven),
        other => Err(JsonError::new(format!("unknown rounding `{other}`"))),
    }
}

impl FromJson for LayerSnapshot {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.field("kind")?.as_str()? {
            "dense" => Ok(LayerSnapshot::Dense {
                weight: Matrix::from_json(v.field("weight")?)?,
                bias: Matrix::from_json(v.field("bias")?)?,
            }),
            "relu" => Ok(LayerSnapshot::Relu),
            "sigmoid" => Ok(LayerSnapshot::Sigmoid),
            "fake_quant" => {
                let total = u32::from_json(v.field("total_bits")?)?;
                let frac = u32::from_json(v.field("frac_bits")?)?;
                let signed = bool::from_json(v.field("signed")?)?;
                // The QFormat constructors assert this; a corrupt
                // snapshot must fail to decode, not panic.
                if !(1..=63).contains(&total) || frac > total {
                    return Err(JsonError::new(format!(
                        "invalid fixed-point format ({total}, {frac})"
                    )));
                }
                let format = if signed {
                    QFormat::signed(total, frac)
                } else {
                    QFormat::unsigned(total, frac)
                };
                Ok(LayerSnapshot::FakeQuant {
                    spec: QuantSpec {
                        format,
                        rounding: rounding_from_name(v.field("rounding")?.as_str()?)?,
                    },
                })
            }
            other => Err(JsonError::new(format!("unknown layer kind `{other}`"))),
        }
    }
}

hybridem_mathkit::impl_json!(ModelSnapshot { input_dim, layers });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_demapper_shape_and_macs() {
        let spec = MlpSpec::paper_demapper();
        assert_eq!(spec.mac_count(), 2 * 16 + 16 * 16 + 16 * 4);
        assert_eq!(spec.mac_count(), 352); // pins the Table-2 DSP count
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let mut model = spec.build(&mut rng);
        assert_eq!(model.input_dim(), 2);
        assert_eq!(model.output_dim(), 4);
        let y = model.forward(&Matrix::zeros(5, 2));
        assert_eq!(y.shape(), (5, 4));
        // Sigmoid output is a probability.
        assert!(y.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn parameter_count() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let model = MlpSpec::paper_demapper().build(&mut rng);
        // Weights 352 + biases 16+16+4 = 388.
        assert_eq!(model.params().map(|p| p.len()).sum::<usize>(), 388);
    }

    #[test]
    fn json_round_trip_preserves_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut model = MlpSpec::paper_demapper().build(&mut rng);
        let x = Matrix::from_rows(&[&[0.3f32, -0.8], &[1.0, 0.1]]);
        let y1 = model.forward(&x).clone();
        let json = model.to_json();
        let mut restored = Sequential::from_json(&json).unwrap();
        assert_eq!(&y1, restored.forward(&x));
    }

    #[test]
    fn learns_xor() {
        // The canonical non-linear sanity check for backprop.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let spec = MlpSpec {
            dims: vec![2, 16, 1],
            hidden: Activation::Relu,
            output: Activation::Linear,
        };
        let mut model = spec.build(&mut rng);
        let x = Matrix::from_rows(&[&[0.0f32, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = Matrix::from_rows(&[&[0.0f32], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..800 {
            last = model.bce_step(&mut opt, &x, &t, true).unwrap();
        }
        assert!(last < 0.05, "XOR loss did not converge: {last}");
        let probs = model
            .forward(&x)
            .map(hybridem_mathkit::special::sigmoid_f32);
        assert!(probs[(0, 0)] < 0.5 && probs[(3, 0)] < 0.5);
        assert!(probs[(1, 0)] > 0.5 && probs[(2, 0)] > 0.5);
    }

    #[test]
    fn insert_fake_quant_places_one_boundary_per_tensor() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let specs: Vec<QuantSpec> = [(8u32, 5u32), (8, 4), (8, 4), (10, 4)]
            .iter()
            .map(|&(t, f)| QuantSpec {
                format: QFormat::signed(t, f),
                rounding: Rounding::Nearest,
            })
            .collect();
        let qat = insert_fake_quant(&model, &specs);
        assert_eq!(crate::model::boundary_specs(&qat), specs);
        assert_eq!(qat.input_dim(), 2);
        assert_eq!(qat.output_dim(), 4);
        // dense,relu,dense,relu,dense + 4 fake_quant boundaries.
        assert_eq!(qat.layers().len(), 9);
        // Boundary order: input cast first, output cast last.
        assert_eq!(qat.layers()[0].name(), "fake_quant");
        assert_eq!(qat.layers()[qat.layers().len() - 1].name(), "fake_quant");
    }

    #[test]
    #[should_panic(expected = "already quantisation-aware")]
    fn insert_fake_quant_rejects_double_insertion() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let spec = QuantSpec {
            format: QFormat::signed(8, 4),
            rounding: Rounding::Nearest,
        };
        let qat = insert_fake_quant(&model, &[spec; 4]);
        let _ = insert_fake_quant(&qat, &[spec; 4]);
    }

    #[test]
    fn qat_json_round_trip_preserves_specs_and_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let specs = vec![
            QuantSpec {
                format: QFormat::signed(8, 5),
                rounding: Rounding::Nearest,
            },
            QuantSpec {
                format: QFormat::signed(6, 3),
                rounding: Rounding::Truncate,
            },
            QuantSpec {
                format: QFormat::unsigned(6, 6),
                rounding: Rounding::NearestEven,
            },
            QuantSpec {
                format: QFormat::signed(12, 6),
                rounding: Rounding::Nearest,
            },
        ];
        let mut qat = insert_fake_quant(&model, &specs);
        let json = qat.to_json();
        let mut restored = Sequential::from_json(&json).unwrap();
        assert_eq!(crate::model::boundary_specs(&restored), specs);
        let x = Matrix::from_rows(&[&[0.37f32, -0.92], &[1.4, 0.05]]);
        assert_eq!(qat.forward(&x), restored.forward(&x));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut model = MlpSpec::paper_demapper_logits().build(&mut rng);
        let x = Matrix::zeros(3, 2);
        let t = Matrix::zeros(3, 4);
        let mut g = Matrix::zeros(0, 0);
        bce_with_logits_grad(model.forward(&x), &t, &mut g);
        model.backward(&g);
        assert!(model.params().any(|p| p.grad.max_abs() > 0.0));
        model.zero_grad();
        assert!(model.params().all(|p| p.grad.max_abs() == 0.0));
    }
}
