//! Minimal neural-network building blocks over the autograd tape: parameter
//! collections and dense (affine) layers. Graph layers live in the
//! framework crates; this module only provides what the *backend* would in
//! the paper's architecture (PyTorch's `nn.Linear` etc.).

use crate::autograd::{Param, Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// One named tensor in a serialised model state: `(name, shape, row-major
/// data)`. The tuple form matches [`ParamSet::state_dict`] so checkpoints
/// and in-memory state dicts are interchangeable.
pub type StateEntry = (String, crate::Shape, Vec<f32>);

/// Typed failure from [`StateDict::try_load_state_dict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateDictError {
    /// The dict has no entry for a parameter the model owns.
    MissingParam(String),
    /// An entry exists but its shape differs from the parameter's.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape the model expects.
        expected: crate::Shape,
        /// Shape found in the dict.
        found: crate::Shape,
    },
}

impl std::fmt::Display for StateDictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDictError::MissingParam(name) => {
                write!(f, "state dict missing parameter '{name}'")
            }
            StateDictError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for '{name}': model expects {expected}, dict has {found}"
            ),
        }
    }
}

impl std::error::Error for StateDictError {}

/// Models whose parameters can be exported and imported by name — the
/// checkpointing interface `stgraph-serve` persists through its `.stgc`
/// format. Implementors only provide [`StateDict::parameters`]; export and
/// import derive from it.
pub trait StateDict {
    /// Every learnable parameter, in registration order.
    fn parameters(&self) -> Vec<Param>;

    /// Snapshots all parameters as named `(name, shape, data)` entries.
    fn to_state_dict(&self) -> Vec<StateEntry> {
        self.parameters()
            .iter()
            .map(|p| {
                let v = p.value();
                (p.name(), v.shape(), v.to_vec())
            })
            .collect()
    }

    /// Restores parameters by name. Entries the model does not own are
    /// ignored (so a sub-model can load from a larger checkpoint); every
    /// owned parameter must be present with an identical shape. Validation
    /// runs before any mutation, so on error the model is unchanged.
    fn try_load_state_dict(&self, dict: &[StateEntry]) -> Result<(), StateDictError> {
        let params = self.parameters();
        let mut resolved = Vec::with_capacity(params.len());
        for p in &params {
            let name = p.name();
            let Some((_, shape, data)) = dict.iter().find(|(n, _, _)| *n == name) else {
                return Err(StateDictError::MissingParam(name));
            };
            let expected = p.value().shape();
            if *shape != expected {
                return Err(StateDictError::ShapeMismatch {
                    name,
                    expected,
                    found: *shape,
                });
            }
            resolved.push((p, *shape, data));
        }
        for (p, shape, data) in resolved {
            p.set_value(Tensor::from_vec(shape, data.clone()));
        }
        Ok(())
    }
}

/// An ordered collection of parameters, shared by modules and optimizers.
#[derive(Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> ParamSet {
        ParamSet { params: Vec::new() }
    }

    /// Registers a new parameter and returns a handle.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> Param {
        let p = Param::new(name, value);
        self.params.push(p.clone());
        p
    }

    /// Adopts parameters from another set (module composition).
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    /// Iterates over parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn numel(&self) -> usize {
        self.params.iter().map(|p| p.value().numel()).sum()
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Snapshots all parameter values as `(name, shape, data)` triples —
    /// a state dict for checkpointing.
    pub fn state_dict(&self) -> Vec<(String, crate::Shape, Vec<f32>)> {
        self.params
            .iter()
            .map(|p| {
                let v = p.value();
                (p.name(), v.shape(), v.to_vec())
            })
            .collect()
    }

    /// Restores parameter values from a state dict produced by
    /// [`ParamSet::state_dict`]. Matching is by name; shapes must agree.
    ///
    /// # Panics
    /// If a parameter has no entry, or an entry's shape differs.
    pub fn load_state_dict(&self, dict: &[(String, crate::Shape, Vec<f32>)]) {
        for p in &self.params {
            let name = p.name();
            let (_, shape, data) = dict
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("state dict missing parameter '{name}'"));
            assert_eq!(*shape, p.value().shape(), "shape mismatch for '{name}'");
            p.set_value(Tensor::from_vec(*shape, data.clone()));
        }
    }
}

impl StateDict for ParamSet {
    fn parameters(&self) -> Vec<Param> {
        self.params.clone()
    }
}

impl StateDict for Linear {
    fn parameters(&self) -> Vec<Param> {
        let mut out = vec![self.weight.clone()];
        out.extend(self.bias.iter().cloned());
        out
    }
}

/// A dense affine layer `y = x W + b`.
pub struct Linear {
    /// Weight `[in, out]`.
    pub weight: Param,
    /// Bias `[out]`, if enabled.
    pub bias: Option<Param>,
}

impl Linear {
    /// Glorot-initialised dense layer registered into `params`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        fan_in: usize,
        fan_out: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Linear {
        let weight = params.register(
            format!("{name}.weight"),
            Tensor::glorot(fan_in, fan_out, rng),
        );
        let bias = bias.then(|| params.register(format!("{name}.bias"), Tensor::zeros(fan_out)));
        Linear { weight, bias }
    }

    /// Applies the layer on the given tape.
    pub fn forward<'t>(&self, tape: &'t Tape, x: &Var<'t>) -> Var<'t> {
        self.forward_parts(tape, &[x])
    }

    /// Applies the layer to `concat_cols(parts)` without building the
    /// concatenation ([`Var::matmul_parts`]): bitwise the same values and
    /// gradients, with each part's gradient written directly.
    pub fn forward_parts<'t>(&self, tape: &'t Tape, parts: &[&Var<'t>]) -> Var<'t> {
        let w = tape.param(&self.weight);
        let y = Var::matmul_parts(parts, &w);
        match &self.bias {
            Some(b) => y.add_bias(&tape.param(b)),
            None => y,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weight.value().rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weight.value().cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::check::{assert_close, numeric_grad};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, true, &mut rng);
        assert_eq!(ps.len(), 2);
        assert_eq!(lin.fan_in(), 3);
        assert_eq!(lin.fan_out(), 2);
        let x = Tensor::rand_uniform((4, 3), -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = lin.forward(&tape, &xv);
        let manual = x
            .matmul(&lin.weight.value())
            .add_bias(&lin.bias.as_ref().unwrap().value());
        assert!(y.value().approx_eq(&manual, 1e-6));
    }

    #[test]
    fn linear_weight_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, true, &mut rng);
        let x = Tensor::rand_uniform((4, 3), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((4, 2), -1.0, 1.0, &mut rng);
        {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = lin.forward(&tape, &xv).mse_loss(&target);
            tape.backward(&loss);
        }
        let w0 = lin.weight.value();
        let bias = lin.bias.as_ref().unwrap().value();
        let mut f = |w: &Tensor| {
            x.matmul(w)
                .add_bias(&bias)
                .sub(&target)
                .square()
                .sum()
                .item()
                / target.numel() as f32
        };
        assert_close(&lin.weight.grad(), &numeric_grad(&mut f, &w0, 1e-2), 2e-2);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, true, &mut rng);
        let dict = ps.state_dict();
        assert_eq!(dict.len(), 2);
        // Mutate, then restore.
        lin.weight.set_value(Tensor::zeros((3, 2)));
        ps.load_state_dict(&dict);
        let restored = ps.state_dict();
        for ((n1, s1, d1), (n2, s2, d2)) in dict.iter().zip(&restored) {
            assert_eq!(n1, n2);
            assert_eq!(s1, s2);
            assert_eq!(d1, d2);
        }
        assert!(lin.weight.value().data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn load_state_dict_missing_entry_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let _ = Linear::new(&mut ps, "l", 2, 2, false, &mut rng);
        ps.load_state_dict(&[]);
    }

    #[test]
    fn statedict_trait_roundtrips_and_ignores_extras() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, true, &mut rng);
        let mut dict = StateDict::to_state_dict(&ps);
        // Extra entries are ignored on load.
        dict.push(("other.weight".into(), crate::Shape::Vec(4), vec![0.0; 4]));
        lin.weight.set_value(Tensor::zeros((3, 2)));
        ps.try_load_state_dict(&dict).unwrap();
        assert_eq!(lin.weight.value().to_vec(), dict[0].2);
    }

    #[test]
    fn statedict_errors_are_typed_and_leave_model_untouched() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 2, 2, false, &mut rng);
        let before = lin.weight.value().to_vec();
        assert_eq!(
            ps.try_load_state_dict(&[]),
            Err(StateDictError::MissingParam("l.weight".into()))
        );
        let bad = vec![("l.weight".into(), crate::Shape::Vec(4), vec![1.0; 4])];
        assert!(matches!(
            ps.try_load_state_dict(&bad),
            Err(StateDictError::ShapeMismatch { .. })
        ));
        assert_eq!(
            lin.weight.value().to_vec(),
            before,
            "model must be unchanged"
        );
    }

    #[test]
    fn paramset_bookkeeping() {
        let mut ps = ParamSet::new();
        assert!(ps.is_empty());
        ps.register("a", Tensor::zeros((2, 3)));
        let mut ps2 = ParamSet::new();
        ps2.register("b", Tensor::zeros(5));
        ps.extend(&ps2);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.numel(), 11);
    }
}
