//! TGN-style per-node memory: a learned GRU-flavored state machine over
//! interaction events, plus a fixed cosine time-delta encoding.
//!
//! Each node carries a `dim`-wide memory vector and the timestamp of its
//! last update. When a batch of events arrives, the nodes involved read
//! their memory `h`, build a message `x = [partner_memory ; enc(Δt)]`,
//! and step a GRU: `h' = (1-z)⊙h + z⊙h̃`. Only the GRU weights are
//! trained — the memory store itself is treated as an input (gradients
//! stop at the read, as in TGN's "no backprop through time across
//! batches" regime), which is what makes epoch-boundary resume exact.
//!
//! The whole module — GRU weights *and* the memory/last-update state —
//! implements [`StateDict`], so it checkpoints through `stgraph-serve`'s
//! `.stgc` format like any other model. Timestamps are stored as f32,
//! exact for the synthetic clocks used here (all < 2²⁴).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{Param, Shape, StateDict, Tape, Tensor, Var};

/// Width of the fixed cosine time-delta encoding.
pub const TIME_ENC_DIM: usize = 8;

/// Shape of a [`TgnMemory`].
#[derive(Debug, Clone, Copy)]
pub struct TgnMemoryConfig {
    /// Nodes tracked.
    pub num_nodes: usize,
    /// Memory width per node.
    pub dim: usize,
    /// Seed for GRU weight init.
    pub seed: u64,
}

/// Per-node memory with a GRU-flavored update rule. See module docs.
pub struct TgnMemory {
    cfg: TgnMemoryConfig,
    /// GRU weights (trained): per gate, an input map `W` over
    /// `[partner ; enc(Δt)]`, a recurrent map `U` over `h`, and a bias.
    weights: ParamSet,
    w_z: Param,
    u_z: Param,
    b_z: Param,
    w_r: Param,
    u_r: Param,
    b_r: Param,
    w_h: Param,
    u_h: Param,
    b_h: Param,
    /// `[num_nodes, dim]` memory state (not trained; committed host-side).
    memory: Param,
    /// `[num_nodes]` last-update timestamps as f32.
    last_update: Param,
    /// Fixed cosine basis frequencies (not learned, not checkpointed).
    freqs: [f32; TIME_ENC_DIM],
}

impl TgnMemory {
    /// A fresh memory: zero state, Glorot-initialised GRU weights drawn
    /// from `cfg.seed`.
    pub fn new(cfg: TgnMemoryConfig) -> TgnMemory {
        assert!(cfg.dim > 0 && cfg.num_nodes > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7a6e_0001);
        let d = cfg.dim;
        let x_dim = d + TIME_ENC_DIM;
        let mut ws = ParamSet::new();
        let mut gate = |name: &str| {
            (
                ws.register(format!("tgn.w_{name}"), Tensor::glorot(x_dim, d, &mut rng)),
                ws.register(format!("tgn.u_{name}"), Tensor::glorot(d, d, &mut rng)),
                ws.register(format!("tgn.b_{name}"), Tensor::zeros(Shape::Vec(d))),
            )
        };
        let (w_z, u_z, b_z) = gate("z");
        let (w_r, u_r, b_r) = gate("r");
        let (w_h, u_h, b_h) = gate("h");
        let mut freqs = [0.0f32; TIME_ENC_DIM];
        for (i, f) in freqs.iter_mut().enumerate() {
            // Geometric ladder from period ~6 up to ~60k time units.
            *f = 1.0 / 10f32.powf(i as f32 * 4.0 / (TIME_ENC_DIM - 1) as f32);
        }
        TgnMemory {
            cfg,
            weights: ws,
            w_z,
            u_z,
            b_z,
            w_r,
            u_r,
            b_r,
            w_h,
            u_h,
            b_h,
            memory: Param::new("tgn.memory", Tensor::zeros(Shape::Mat(cfg.num_nodes, d))),
            last_update: Param::new("tgn.last_update", Tensor::zeros(Shape::Vec(cfg.num_nodes))),
            freqs,
        }
    }

    /// Memory width per node.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.cfg.num_nodes
    }

    /// The trainable GRU weights (what the optimizer steps).
    pub fn weights(&self) -> &ParamSet {
        &self.weights
    }

    /// Zeroes the memory state and last-update clocks (epoch start).
    /// GRU weights are untouched.
    pub fn reset_state(&self) {
        self.memory
            .set_value(Tensor::zeros(Shape::Mat(self.cfg.num_nodes, self.cfg.dim)));
        self.last_update
            .set_value(Tensor::zeros(Shape::Vec(self.cfg.num_nodes)));
    }

    /// Current memory rows for `nodes` (`[len, dim]`, detached).
    pub fn read_rows(&self, nodes: &[u32]) -> Tensor {
        self.memory.value().gather_rows(nodes)
    }

    /// Fixed cosine encoding of per-row time deltas (`[len, TIME_ENC_DIM]`).
    /// Δt for node `i` at event time `t` is `t - last_update[i]`.
    pub fn time_encode(&self, nodes: &[u32], times: &[u64]) -> Tensor {
        assert_eq!(nodes.len(), times.len());
        let last = self.last_update.value();
        let lastd = last.data();
        let mut out = vec![0.0f32; nodes.len() * TIME_ENC_DIM];
        for (row, (&n, &t)) in nodes.iter().zip(times).enumerate() {
            let dt = (t as f32 - lastd[n as usize]).max(0.0);
            for (j, &f) in self.freqs.iter().enumerate() {
                out[row * TIME_ENC_DIM + j] = (dt * f).cos();
            }
        }
        Tensor::from_vec(Shape::Mat(nodes.len(), TIME_ENC_DIM), out)
    }

    /// One GRU step on the tape. `h` is the nodes' current memory
    /// (detached read), `partner` the message content (e.g. the partner
    /// node's memory, or zeros for negative samples), `enc` the time
    /// encoding. Returns `h'`; gradients flow into the GRU weights only.
    pub fn update<'t>(
        &self,
        tape: &'t Tape,
        h: &Var<'t>,
        partner: &Var<'t>,
        enc: &Var<'t>,
    ) -> Var<'t> {
        let wz = tape.param(&self.w_z);
        let uz = tape.param(&self.u_z);
        let bz = tape.param(&self.b_z);
        let wr = tape.param(&self.w_r);
        let ur = tape.param(&self.u_r);
        let br = tape.param(&self.b_r);
        let wh = tape.param(&self.w_h);
        let uh = tape.param(&self.u_h);
        let bh = tape.param(&self.b_h);
        // The message `x = [partner | enc]` is read in place as GEMM parts.
        let x = [partner, enc];
        let z = Var::matmul_parts(&x, &wz)
            .add(&h.matmul(&uz))
            .add_bias(&bz)
            .sigmoid();
        let r = Var::matmul_parts(&x, &wr)
            .add(&h.matmul(&ur))
            .add_bias(&br)
            .sigmoid();
        let h_tilde = Var::matmul_parts(&x, &wh)
            .add(&r.mul(h).matmul(&uh))
            .add_bias(&bh)
            .tanh();
        z.mix(&h_tilde, h)
    }

    /// Writes updated rows back into the store and stamps their clocks.
    /// Duplicate nodes in the batch resolve last-write-wins (= latest
    /// event), matching sequential replay.
    pub fn commit(&self, nodes: &[u32], h_new: &Tensor, times: &[u64]) {
        assert_eq!(h_new.rows(), nodes.len());
        assert_eq!(h_new.cols(), self.cfg.dim);
        let mut mem = self.memory.value().to_vec();
        let mut last = self.last_update.value().to_vec();
        let src = h_new.data();
        let d = self.cfg.dim;
        for (row, (&n, &t)) in nodes.iter().zip(times).enumerate() {
            let n = n as usize;
            mem[n * d..(n + 1) * d].copy_from_slice(&src[row * d..(row + 1) * d]);
            last[n] = t as f32;
        }
        self.memory
            .set_value(Tensor::from_vec(Shape::Mat(self.cfg.num_nodes, d), mem));
        self.last_update
            .set_value(Tensor::from_vec(Shape::Vec(self.cfg.num_nodes), last));
    }
}

impl StateDict for TgnMemory {
    fn parameters(&self) -> Vec<Param> {
        let mut ps: Vec<Param> = self.weights.iter().cloned().collect();
        ps.push(self.memory.clone());
        ps.push(self.last_update.clone());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TgnMemory {
        TgnMemory::new(TgnMemoryConfig {
            num_nodes: 6,
            dim: 4,
            seed: 11,
        })
    }

    #[test]
    fn update_and_commit_change_only_touched_rows() {
        let m = tiny();
        let nodes = [1u32, 3];
        let times = [10u64, 12];
        let tape = Tape::new();
        let h = tape.constant(m.read_rows(&nodes));
        let partner = tape.constant(m.read_rows(&[3, 1]));
        let enc = tape.constant(m.time_encode(&nodes, &times));
        let h2 = m.update(&tape, &h, &partner, &enc);
        m.commit(&nodes, h2.value(), &times);
        let mem = m.memory.value();
        assert!(mem.data()[4..8].iter().any(|&v| v != 0.0));
        assert!(
            mem.data()[0..4].iter().all(|&v| v == 0.0),
            "row 0 untouched"
        );
        assert_eq!(m.last_update.value().data()[3], 12.0);
        m.reset_state();
        assert!(m.memory.value().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn state_dict_roundtrips_weights_and_memory() {
        let a = tiny();
        let nodes = [0u32, 5];
        let times = [7u64, 9];
        let tape = Tape::new();
        let h = tape.constant(a.read_rows(&nodes));
        let p = tape.constant(a.read_rows(&[5, 0]));
        let enc = tape.constant(a.time_encode(&nodes, &times));
        let h2 = a.update(&tape, &h, &p, &enc);
        a.commit(&nodes, h2.value(), &times);

        let dict = a.to_state_dict();
        let b = TgnMemory::new(TgnMemoryConfig {
            num_nodes: 6,
            dim: 4,
            seed: 999, // different init — must be overwritten
        });
        b.try_load_state_dict(&dict).unwrap();
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.name(), pb.name());
            assert_eq!(pa.value().to_vec(), pb.value().to_vec(), "{}", pa.name());
        }
    }

    #[test]
    fn gru_step_is_deterministic_and_learns_gradients() {
        let m = tiny();
        let nodes = [2u32];
        let times = [5u64];
        let tape = Tape::new();
        let h = tape.constant(m.read_rows(&nodes));
        let p = tape.constant(m.read_rows(&[4]));
        let enc = tape.constant(m.time_encode(&nodes, &times));
        let out = m.update(&tape, &h, &p, &enc);
        let loss = out.square().sum();
        tape.backward(&loss);
        let total_grad: f32 = m
            .weights()
            .iter()
            .map(|pm| pm.grad().data().iter().map(|g| g.abs()).sum::<f32>())
            .sum();
        assert!(total_grad > 0.0, "GRU weights must receive gradient");
    }
}
