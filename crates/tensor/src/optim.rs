//! The first-order optimizer over a [`ParamSet`]: Adam — the paper's TGCN
//! experiments train with PyTorch's Adam defaults, which we replicate
//! here.

use crate::nn::{ParamSet, StateEntry};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Clips the global L2 norm of all gradients in `params` to `max_norm`
/// (PyTorch's `clip_grad_norm_`), returning the pre-clip norm. Essential
/// for stable BPTT through long sequences.
pub fn clip_grad_norm(params: &ParamSet, max_norm: f32) -> f32 {
    let total_sq: f32 = params
        .iter()
        .map(|p| p.grad().data().iter().map(|g| g * g).sum::<f32>())
        .sum();
    let norm = total_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter() {
            p.set_grad(p.grad().mul_scalar(scale));
        }
    }
    norm
}

/// Adam (Kingma & Ba) with PyTorch's default hyperparameters.
pub struct Adam {
    params: ParamSet,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and eps 1e-8.
    pub fn new(params: ParamSet, lr: f32) -> Adam {
        Adam::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyperparameters.
    pub fn with_betas(params: ParamSet, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Adam {
        let m = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape()))
            .collect();
        let v = params
            .iter()
            .map(|p| Tensor::zeros(p.value().shape()))
            .collect();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m,
            v,
        }
    }

    /// Applies one Adam update from the accumulated gradients.
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let g = p.grad();
            self.m[i] = self.m[i]
                .mul_scalar(self.beta1)
                .add(&g.mul_scalar(1.0 - self.beta1));
            self.v[i] = self.v[i]
                .mul_scalar(self.beta2)
                .add(&g.square().mul_scalar(1.0 - self.beta2));
            let mhat = self.m[i].mul_scalar(1.0 / bc1);
            let vhat = self.v[i].mul_scalar(1.0 / bc2);
            let denom = vhat.sqrt().add_scalar(self.eps);
            p.set_value(p.value().sub(&mhat.div(&denom).mul_scalar(self.lr)));
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&self) {
        self.params.zero_grad();
    }

    /// Snapshots the optimizer state (first/second moments and step count)
    /// as checkpoint entries under the `adam.` prefix, so a resumed
    /// training run continues the *exact* loss trajectory — without the
    /// moments, the first post-resume step re-warms bias correction and
    /// the trajectory diverges.
    pub fn state_entries(&self) -> Vec<StateEntry> {
        let mut out = Vec::with_capacity(2 * self.params.len() + 1);
        out.push((
            "adam.t".to_string(),
            Shape::Scalar,
            vec![f32::from_bits(self.t)],
        ));
        for (i, p) in self.params.iter().enumerate() {
            let name = p.name();
            out.push((
                format!("adam.m.{name}"),
                self.m[i].shape(),
                self.m[i].to_vec(),
            ));
            out.push((
                format!("adam.v.{name}"),
                self.v[i].shape(),
                self.v[i].to_vec(),
            ));
        }
        out
    }

    /// Restores optimizer state written by [`Adam::state_entries`].
    /// Matching is by parameter name; entries for unknown parameters are
    /// ignored (the dict usually also carries the model weights). Missing
    /// moment entries or shape mismatches are typed errors and leave the
    /// optimizer untouched.
    pub fn load_state_entries(
        &mut self,
        dict: &[StateEntry],
    ) -> Result<(), crate::nn::StateDictError> {
        use crate::nn::StateDictError;
        let find = |key: &str| dict.iter().find(|(n, _, _)| n == key);
        let Some((_, _, t_data)) = find("adam.t") else {
            return Err(StateDictError::MissingParam("adam.t".into()));
        };
        let mut m = Vec::with_capacity(self.params.len());
        let mut v = Vec::with_capacity(self.params.len());
        for p in self.params.iter() {
            let name = p.name();
            for (which, store) in [("m", &mut m), ("v", &mut v)] {
                let key = format!("adam.{which}.{name}");
                let Some((_, shape, data)) = find(&key) else {
                    return Err(StateDictError::MissingParam(key));
                };
                let expected = p.value().shape();
                if *shape != expected {
                    return Err(StateDictError::ShapeMismatch {
                        name: key,
                        expected,
                        found: *shape,
                    });
                }
                store.push(Tensor::from_vec(*shape, data.clone()));
            }
        }
        self.t = t_data[0].to_bits();
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::nn::ParamSet;

    /// Minimise f(w) = (w - 3)^2 elementwise; both optimizers must converge.
    fn run<F: FnMut()>(param_value: &Tensor, mut step: F, read: impl Fn() -> Tensor) -> f32 {
        let _ = param_value;
        for _ in 0..200 {
            step();
        }
        read()
            .data()
            .iter()
            .map(|&w| (w - 3.0).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut ps = ParamSet::new();
        let a = ps.register("a", Tensor::zeros(2));
        let b = ps.register("b", Tensor::zeros(1));
        // Set grads via a tape: loss = 3*a0 + 4*b0 => grads [3,0] and [4].
        let tape = Tape::new();
        let av = tape.param(&a);
        let bv = tape.param(&b);
        let mask = tape.constant(Tensor::from_vec(2, vec![3.0, 0.0]));
        let loss = av.mul(&mask).sum().add(&bv.mul_scalar(4.0).sum());
        tape.backward(&loss);
        let norm = clip_grad_norm(&ps, 2.5);
        assert!((norm - 5.0).abs() < 1e-5, "pre-clip norm {norm}");
        // Post-clip norm == 2.5: grads scaled by 0.5.
        assert!((a.grad().to_vec()[0] - 1.5).abs() < 1e-5);
        assert!((b.grad().to_vec()[0] - 2.0).abs() < 1e-5);
        // Under the limit: untouched.
        let norm2 = clip_grad_norm(&ps, 100.0);
        assert!((norm2 - 2.5).abs() < 1e-5);
        assert!((a.grad().to_vec()[0] - 1.5).abs() < 1e-5);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_vec(3, vec![0.0, 10.0, -4.0]));
        let mut opt = Adam::new(ps, 0.3);
        let err = run(
            &w.value(),
            || {
                opt.zero_grad();
                let tape = Tape::new();
                let wv = tape.param(&w);
                let loss = wv.add_scalar(-3.0).square().sum();
                tape.backward(&loss);
                opt.step();
            },
            || w.value(),
        );
        assert!(err < 1e-2, "adam residual {err}");
    }

    #[test]
    fn adam_state_roundtrip_resumes_trajectory_bitwise() {
        let make = || {
            let mut ps = ParamSet::new();
            let w = ps.register("w", Tensor::from_vec(3, vec![0.0, 10.0, -4.0]));
            (Adam::new(ps, 0.05), w)
        };
        let step = |opt: &mut Adam, w: &crate::autograd::Param| {
            opt.zero_grad();
            let tape = Tape::new();
            let wv = tape.param(w);
            let loss = wv.add_scalar(-3.0).square().sum();
            tape.backward(&loss);
            opt.step();
        };
        // Reference: 10 uninterrupted steps.
        let (mut opt_a, w_a) = make();
        for _ in 0..10 {
            step(&mut opt_a, &w_a);
        }
        // Interrupted: 6 steps, snapshot, rebuild, restore, 4 more.
        let (mut opt_b, w_b) = make();
        for _ in 0..6 {
            step(&mut opt_b, &w_b);
        }
        let mut dict = opt_b.state_entries();
        dict.push(("w".into(), w_b.value().shape(), w_b.value().to_vec()));
        let (mut opt_c, w_c) = make();
        w_c.set_value(Tensor::from_vec(3, dict.last().unwrap().2.clone()));
        opt_c.load_state_entries(&dict).unwrap();
        for _ in 0..4 {
            step(&mut opt_c, &w_c);
        }
        let (a, c) = (w_a.value(), w_c.value());
        let bits_a: Vec<u32> = a.data().iter().map(|x| x.to_bits()).collect();
        let bits_c: Vec<u32> = c.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits_a, bits_c, "resumed trajectory must be bitwise exact");
    }

    #[test]
    fn adam_state_load_errors_are_typed() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::zeros(2));
        let mut opt = Adam::new(ps, 0.1);
        assert!(matches!(
            opt.load_state_entries(&[]),
            Err(crate::nn::StateDictError::MissingParam(_))
        ));
        let bad = vec![
            ("adam.t".to_string(), Shape::Scalar, vec![0.0]),
            ("adam.m.w".to_string(), Shape::Vec(3), vec![0.0; 3]),
            ("adam.v.w".to_string(), Shape::Vec(3), vec![0.0; 3]),
        ];
        assert!(matches!(
            opt.load_state_entries(&bad),
            Err(crate::nn::StateDictError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step is ~lr * sign(g).
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_vec(1, vec![5.0]));
        let mut opt = Adam::new(ps, 0.1);
        let tape = Tape::new();
        let wv = tape.param(&w);
        let loss = wv.sum();
        tape.backward(&loss);
        opt.step();
        assert!((w.value().item() - 4.9).abs() < 1e-4);
    }
}
