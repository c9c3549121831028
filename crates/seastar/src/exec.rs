//! Kernel generation and execution for vertex-centric programs.
//!
//! This module plays the role of Seastar's CUDA code generator + executor.
//! Node-space ops run as whole-tensor kernels. Edge-space subtrees are
//! *compiled* to a small register program (`EdgePlan`) and evaluated
//! per-edge inside fused, vertex-parallel aggregation loops — edge tensors
//! are never materialised unless the backward program explicitly needs one
//! saved. Vertices are scheduled in the degree-sorted `node_ids` order
//! (Figure 3) so long rows start first and overlap with the tail of short
//! rows — the paper's load-balancing argument for its speed-ups.

use crate::ir::{Id, Op, Program, Space};
use rayon::prelude::*;
use stgraph_graph::base::STGraphBase;
use stgraph_graph::csr::Csr;
use stgraph_tensor::mem::{self, TrackedBuf};
use stgraph_tensor::simd::{self, F32x8, LANES};
use stgraph_tensor::{par_min, Shape, Tensor};

/// Lane-dispatched `dst[j] = scalar(a[j], b[j])` over equal-width scratch
/// regions. `lane` must apply the same per-lane IEEE op as `scalar`, so the
/// SIMD and `STGRAPH_NO_SIMD` paths stay bitwise equal.
#[inline(always)]
fn lane_bin(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    lane: impl Fn(F32x8, F32x8) -> F32x8,
    scalar: impl Fn(f32, f32) -> f32,
) {
    if simd::enabled() {
        let main = dst.len() / LANES * LANES;
        let (dm, dt) = dst.split_at_mut(main);
        let mut ac = a.chunks_exact(LANES);
        let mut bc = b.chunks_exact(LANES);
        for (dc, (ac, bc)) in dm.chunks_exact_mut(LANES).zip(ac.by_ref().zip(bc.by_ref())) {
            lane(F32x8::load(ac), F32x8::load(bc)).store(dc);
        }
        for (d, (&x, &y)) in dt.iter_mut().zip(ac.remainder().iter().zip(bc.remainder())) {
            *d = scalar(x, y);
        }
    } else {
        for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
            *d = scalar(x, y);
        }
    }
}

/// Lane-dispatched in-place accumulate `row[j] = scalar(row[j], val[j])`
/// (the fused aggregation's hot loop). Same bitwise contract as
/// [`lane_bin`].
#[inline(always)]
fn lane_accum(
    row: &mut [f32],
    val: &[f32],
    lane: impl Fn(F32x8, F32x8) -> F32x8,
    scalar: impl Fn(f32, f32) -> f32,
) {
    if simd::enabled() {
        let main = row.len() / LANES * LANES;
        let (rm, rt) = row.split_at_mut(main);
        let mut vc = val.chunks_exact(LANES);
        for (rc, vc) in rm.chunks_exact_mut(LANES).zip(vc.by_ref()) {
            lane(F32x8::load(rc), F32x8::load(vc)).store(rc);
        }
        for (r, &v) in rt.iter_mut().zip(vc.remainder()) {
            *r = scalar(*r, v);
        }
    } else {
        for (r, &v) in row.iter_mut().zip(val) {
            *r = scalar(*r, v);
        }
    }
}

/// Binary edge-op kinds.
#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

/// One instruction of a compiled edge subtree. Registers are offsets into a
/// per-thread scratch buffer.
#[derive(Debug, Clone)]
enum Instr {
    /// Copy the source endpoint's row of node tensor `t`.
    GatherSrc { t: usize, out: usize, w: usize },
    /// Copy the destination endpoint's row of node tensor `t`.
    GatherDst { t: usize, out: usize, w: usize },
    /// Copy row `eid` of edge tensor `t`.
    LoadEdge { t: usize, out: usize, w: usize },
    /// `out = a (op) b` with width-1 broadcast on either side.
    Bin {
        k: BinKind,
        a: usize,
        wa: usize,
        b: usize,
        wb: usize,
        out: usize,
        w: usize,
    },
    /// `out = a * c`.
    Scale {
        a: usize,
        c: f32,
        out: usize,
        w: usize,
    },
    /// `out = leaky_relu(a)`.
    LeakyRelu {
        a: usize,
        slope: f32,
        out: usize,
        w: usize,
    },
    /// `out = g * leaky_relu'(x)`.
    LeakyReluGrad {
        g: usize,
        x: usize,
        slope: f32,
        out: usize,
        w: usize,
    },
    /// `out = exp(a)`.
    Exp { a: usize, out: usize, w: usize },
    /// `out = sigmoid(a)`.
    Sigmoid { a: usize, out: usize, w: usize },
    /// `out = tanh(a)`.
    Tanh { a: usize, out: usize, w: usize },
    /// `out[0] = Σ_j a[j]`.
    ReduceFeat { a: usize, wa: usize, out: usize },
    /// `out[j] = a[0]`.
    BroadcastFeat { a: usize, out: usize, w: usize },
}

/// A compiled edge subtree: instructions, total scratch length, result
/// register/width, and the node/edge tensors the instructions index.
struct EdgePlan<'a> {
    instrs: Vec<Instr>,
    scratch_len: usize,
    root: usize,
    root_w: usize,
    node_tensors: Vec<&'a Tensor>,
    edge_tensors: Vec<&'a Tensor>,
}

struct EdgeCompiler<'p, 'a> {
    prog: &'p Program,
    values: &'a [Option<Tensor>],
    plan_instrs: Vec<Instr>,
    regs: std::collections::HashMap<Id, (usize, usize)>,
    scratch_len: usize,
    node_tensors: Vec<&'a Tensor>,
    node_tensor_ids: std::collections::HashMap<Id, usize>,
    edge_tensors: Vec<&'a Tensor>,
    edge_tensor_slots: std::collections::HashMap<usize, usize>,
    edge_consts: &'a [&'a Tensor],
}

impl<'p, 'a> EdgeCompiler<'p, 'a> {
    fn alloc(&mut self, w: usize) -> usize {
        let r = self.scratch_len;
        self.scratch_len += w;
        r
    }

    fn node_tensor(&mut self, id: Id) -> usize {
        if let Some(&t) = self.node_tensor_ids.get(&id) {
            return t;
        }
        let tensor = self.values[id]
            .as_ref()
            .expect("gathered node value not materialised before kernel");
        self.node_tensors.push(tensor);
        let t = self.node_tensors.len() - 1;
        self.node_tensor_ids.insert(id, t);
        t
    }

    fn edge_tensor(&mut self, slot: usize) -> usize {
        if let Some(&t) = self.edge_tensor_slots.get(&slot) {
            return t;
        }
        self.edge_tensors.push(self.edge_consts[slot]);
        let t = self.edge_tensors.len() - 1;
        self.edge_tensor_slots.insert(slot, t);
        t
    }

    /// Compiles the edge-space subtree rooted at `id`, returning
    /// `(register, width)`.
    fn compile(&mut self, id: Id) -> (usize, usize) {
        if let Some(&rw) = self.regs.get(&id) {
            return rw;
        }
        let node = self.prog.node(id);
        debug_assert_eq!(
            node.space,
            Space::Edge,
            "edge plan reached a node-space value"
        );
        let w = node.width;
        let rw = match node.op {
            Op::GatherSrc(v) => {
                let t = self.node_tensor(v);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::GatherSrc { t, out, w });
                (out, w)
            }
            Op::GatherDst(v) => {
                let t = self.node_tensor(v);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::GatherDst { t, out, w });
                (out, w)
            }
            Op::EdgeConst(slot) => {
                let t = self.edge_tensor(slot);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::LoadEdge { t, out, w });
                (out, w)
            }
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                let k = match node.op {
                    Op::Add(..) => BinKind::Add,
                    Op::Sub(..) => BinKind::Sub,
                    Op::Mul(..) => BinKind::Mul,
                    _ => BinKind::Div,
                };
                let (ra, wa) = self.compile(a);
                let (rb, wb) = self.compile(b);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::Bin {
                    k,
                    a: ra,
                    wa,
                    b: rb,
                    wb,
                    out,
                    w,
                });
                (out, w)
            }
            Op::Scale(a, c) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::Scale { a: ra, c, out, w });
                (out, w)
            }
            Op::LeakyRelu(a, slope) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::LeakyRelu {
                    a: ra,
                    slope,
                    out,
                    w,
                });
                (out, w)
            }
            Op::LeakyReluGrad(g, x, slope) => {
                let (rg, _) = self.compile(g);
                let (rx, _) = self.compile(x);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::LeakyReluGrad {
                    g: rg,
                    x: rx,
                    slope,
                    out,
                    w,
                });
                (out, w)
            }
            Op::Exp(a) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::Exp { a: ra, out, w });
                (out, w)
            }
            Op::Sigmoid(a) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::Sigmoid { a: ra, out, w });
                (out, w)
            }
            Op::Tanh(a) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs.push(Instr::Tanh { a: ra, out, w });
                (out, w)
            }
            Op::ReduceFeat(a) => {
                let (ra, wa) = self.compile(a);
                let out = self.alloc(1);
                self.plan_instrs.push(Instr::ReduceFeat { a: ra, wa, out });
                (out, 1)
            }
            Op::BroadcastFeat(a, _) => {
                let (ra, _) = self.compile(a);
                let out = self.alloc(w);
                self.plan_instrs
                    .push(Instr::BroadcastFeat { a: ra, out, w });
                (out, w)
            }
            Op::NodeInput(_)
            | Op::NodeConst(_)
            | Op::AggSumDst(_)
            | Op::AggSumSrc(_)
            | Op::AggMaxDst(_) => {
                unreachable!("node-space op inside an edge plan")
            }
        };
        self.regs.insert(id, rw);
        rw
    }
}

fn compile_edge_plan<'a>(
    prog: &Program,
    root: Id,
    values: &'a [Option<Tensor>],
    edge_consts: &'a [&'a Tensor],
) -> EdgePlan<'a> {
    let mut c = EdgeCompiler {
        prog,
        values,
        plan_instrs: Vec::new(),
        regs: Default::default(),
        scratch_len: 0,
        node_tensors: Vec::new(),
        node_tensor_ids: Default::default(),
        edge_tensors: Vec::new(),
        edge_tensor_slots: Default::default(),
        edge_consts,
    };
    let (root_reg, root_w) = c.compile(root);
    EdgePlan {
        instrs: c.plan_instrs,
        scratch_len: c.scratch_len,
        root: root_reg,
        root_w,
        node_tensors: c.node_tensors,
        edge_tensors: c.edge_tensors,
    }
}

impl EdgePlan<'_> {
    /// When the whole edge program is one bare gather of a node tensor —
    /// the shape every GCN/GRU aggregation compiles to — the aggregation
    /// loops can read each neighbour's row in place instead of routing it
    /// through scratch (a copy plus instruction dispatch per edge, with a
    /// tensor deref inside the hot loop). Returns the node-tensor index
    /// and whether the gather reads the edge's source (`true`) or its
    /// destination (`false`).
    fn direct_gather(&self) -> Option<(usize, bool)> {
        match *self.instrs.as_slice() {
            [Instr::GatherSrc { t, out, w }] if out == self.root && w == self.root_w => {
                Some((t, true))
            }
            [Instr::GatherDst { t, out, w }] if out == self.root && w == self.root_w => {
                Some((t, false))
            }
            _ => None,
        }
    }

    /// Evaluates the plan for one edge into `scratch`.
    #[inline]
    fn eval(&self, scratch: &mut [f32], src: usize, dst: usize, eid: usize) {
        for instr in &self.instrs {
            match *instr {
                Instr::GatherSrc { t, out, w } => {
                    let d = self.node_tensors[t].data();
                    scratch[out..out + w].copy_from_slice(&d[src * w..src * w + w]);
                }
                Instr::GatherDst { t, out, w } => {
                    let d = self.node_tensors[t].data();
                    scratch[out..out + w].copy_from_slice(&d[dst * w..dst * w + w]);
                }
                Instr::LoadEdge { t, out, w } => {
                    let d = self.edge_tensors[t].data();
                    scratch[out..out + w].copy_from_slice(&d[eid * w..eid * w + w]);
                }
                Instr::Bin {
                    k,
                    a,
                    wa,
                    b,
                    wb,
                    out,
                    w,
                } => {
                    if wa == w && wb == w {
                        // Register allocation is monotonic, so the output
                        // region always lies after both operand regions —
                        // split there for a safe parallel borrow.
                        debug_assert!(a + w <= out && b + w <= out);
                        let (lo, hi) = scratch.split_at_mut(out);
                        let (dst, aa, bb) = (&mut hi[..w], &lo[a..a + w], &lo[b..b + w]);
                        match k {
                            BinKind::Add => lane_bin(dst, aa, bb, |x, y| x.add(y), |x, y| x + y),
                            BinKind::Sub => lane_bin(dst, aa, bb, |x, y| x.sub(y), |x, y| x - y),
                            BinKind::Mul => lane_bin(dst, aa, bb, |x, y| x.mul(y), |x, y| x * y),
                            BinKind::Div => lane_bin(dst, aa, bb, |x, y| x.div(y), |x, y| x / y),
                        }
                    } else {
                        for j in 0..w {
                            let av = scratch[a + if wa == 1 { 0 } else { j }];
                            let bv = scratch[b + if wb == 1 { 0 } else { j }];
                            scratch[out + j] = match k {
                                BinKind::Add => av + bv,
                                BinKind::Sub => av - bv,
                                BinKind::Mul => av * bv,
                                BinKind::Div => av / bv,
                            };
                        }
                    }
                }
                Instr::Scale { a, c, out, w } => {
                    debug_assert!(a + w <= out);
                    let (lo, hi) = scratch.split_at_mut(out);
                    let cx = F32x8::splat(c);
                    lane_bin(
                        &mut hi[..w],
                        &lo[a..a + w],
                        &lo[a..a + w],
                        |x, _| x.mul(cx),
                        |x, _| x * c,
                    );
                }
                Instr::LeakyRelu { a, slope, out, w } => {
                    for j in 0..w {
                        let x = scratch[a + j];
                        scratch[out + j] = if x >= 0.0 { x } else { slope * x };
                    }
                }
                Instr::LeakyReluGrad {
                    g,
                    x,
                    slope,
                    out,
                    w,
                } => {
                    for j in 0..w {
                        let d = if scratch[x + j] >= 0.0 { 1.0 } else { slope };
                        scratch[out + j] = scratch[g + j] * d;
                    }
                }
                Instr::Exp { a, out, w } => {
                    for j in 0..w {
                        scratch[out + j] = simd::exp(scratch[a + j]);
                    }
                }
                Instr::Sigmoid { a, out, w } => {
                    for j in 0..w {
                        scratch[out + j] = simd::sigmoid(scratch[a + j]);
                    }
                }
                Instr::Tanh { a, out, w } => {
                    for j in 0..w {
                        scratch[out + j] = simd::tanh(scratch[a + j]);
                    }
                }
                Instr::ReduceFeat { a, wa, out } => {
                    scratch[out] = scratch[a..a + wa].iter().sum();
                }
                Instr::BroadcastFeat { a, out, w } => {
                    let v = scratch[a];
                    scratch[out..out + w].fill(v);
                }
            }
        }
    }
}

/// Aggregation kind for the fused kernel.
#[derive(Clone, Copy, PartialEq)]
enum AggKind {
    SumDst,
    SumSrc,
    MaxDst,
}

/// Splits `node_ids` into ranges of roughly `n_chunks` equal *edge* counts
/// using a prefix sum of row extents. Degree-sorted order puts the heaviest
/// vertices first, so naive fixed-width chunking would hand one worker all
/// the hubs; cutting on cumulative edge work instead gives every worker the
/// same number of plan evaluations (± one vertex).
fn balanced_ranges(csr: &Csr, n_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let ids = &csr.node_ids;
    // +1 per vertex charges the fixed row setup so empty rows aren't free.
    let mut prefix = Vec::with_capacity(ids.len() + 1);
    let mut acc = 0usize;
    prefix.push(0);
    for &v in ids {
        acc += csr.degree(v as usize) + 1;
        prefix.push(acc);
    }
    let target = acc.div_ceil(n_chunks.max(1)).max(1);
    let mut ranges = Vec::with_capacity(n_chunks);
    let mut start = 0;
    let mut next_cut = target;
    for i in 0..ids.len() {
        if prefix[i + 1] >= next_cut {
            ranges.push(start..i + 1);
            start = i + 1;
            next_cut = prefix[i + 1] + target;
        }
    }
    if start < ids.len() {
        ranges.push(start..ids.len());
    }
    ranges
}

/// Runs a fused aggregation kernel over the appropriate CSR in degree-sorted
/// order, evaluating the edge plan per edge and accumulating into the output
/// rows. Parallelism is *edge-balanced*: vertices are grouped into chunks of
/// equal cumulative degree (see [`balanced_ranges`]) and each chunk reuses
/// one pooled scratch buffer for every plan evaluation it performs. Each
/// vertex appears exactly once in `node_ids`, so output rows are written by
/// exactly one task (the same disjointness argument the CUDA kernel relies
/// on) — and because every row is written, the output can start from a
/// pooled uninitialised buffer (rows are zero-filled before accumulation).
fn run_aggregation(plan: &EdgePlan<'_>, csr: &Csr, kind: AggKind, num_nodes: usize) -> Tensor {
    let _sp = stgraph_telemetry::span_cat("seastar.agg", "kernel");
    let w = plan.root_w;
    let mem_pool = mem::current_pool();
    let mut out = TrackedBuf::raw_in(mem_pool, num_nodes * w);
    if csr.node_ids.len() != num_nodes {
        // Defensive: rows not covered by node_ids must still read as zero.
        out.as_mut_slice().fill(0.0);
    }
    {
        struct Shared(*mut f32);
        unsafe impl Sync for Shared {}
        let shared = Shared(out.as_mut_slice().as_mut_ptr());
        let node_ids = &csr.node_ids;
        // Hoisted once per kernel launch, not per edge: the bare-gather
        // fast path and its tensor slice.
        let direct = plan
            .direct_gather()
            .map(|(t, is_src)| (plan.node_tensors[t].data(), is_src));
        let per_vertex = |scratch: &mut [f32], v: u32| {
            let shared = &shared;
            let v = v as usize;
            let row = unsafe { std::slice::from_raw_parts_mut(shared.0.add(v * w), w) };
            row.fill(0.0);
            let mut first = true;
            for (nbr, eid) in csr.iter_row(v) {
                // For Dst kernels the CSR is the reverse CSR: rows are
                // destinations, neighbours are sources. For Src kernels the
                // rows are sources.
                let (src, dst) = match kind {
                    AggKind::SumDst | AggKind::MaxDst => (nbr as usize, v),
                    AggKind::SumSrc => (v, nbr as usize),
                };
                let val: &[f32] = if let Some((d, is_src)) = &direct {
                    let i = if *is_src { src } else { dst };
                    &d[i * w..i * w + w]
                } else {
                    plan.eval(scratch, src, dst, eid as usize);
                    &scratch[plan.root..plan.root + w]
                };
                match kind {
                    AggKind::SumDst | AggKind::SumSrc => {
                        lane_accum(row, val, |r, v| r.add(v), |r, v| r + v);
                    }
                    AggKind::MaxDst => {
                        if first {
                            row.copy_from_slice(val);
                        } else {
                            lane_accum(row, val, |r, v| r.max(v), |r, v| r.max(v));
                        }
                    }
                }
                first = false;
            }
        };
        if csr.num_edges() * w >= par_min() {
            let ranges = balanced_ranges(csr, rayon::current_num_threads() * 4);
            ranges.par_iter().for_each(|range| {
                let mut scratch = TrackedBuf::raw_in(mem_pool, plan.scratch_len);
                for &v in &node_ids[range.clone()] {
                    per_vertex(scratch.as_mut_slice(), v);
                }
            });
        } else {
            let mut scratch = TrackedBuf::raw_in(mem_pool, plan.scratch_len);
            for &v in node_ids {
                per_vertex(scratch.as_mut_slice(), v);
            }
        }
    }
    Tensor::from_buf(Shape::Mat(num_nodes, w), out)
}

/// Materialises an edge-space value as an `[m, w]` tensor indexed by edge
/// id, used only when the backward program needs the value saved. Iterates
/// the dense reverse CSR so every edge id is visited exactly once.
fn materialize_edge_value(plan: &EdgePlan<'_>, rev: &Csr, num_edges: usize) -> Tensor {
    let _sp = stgraph_telemetry::span_cat("seastar.edge_values", "kernel");
    let w = plan.root_w;
    let mem_pool = mem::current_pool();
    let mut out = TrackedBuf::zeros_in(mem_pool, num_edges * w);
    {
        struct Shared(*mut f32);
        unsafe impl Sync for Shared {}
        let shared = Shared(out.as_mut_slice().as_mut_ptr());
        let per_vertex = |scratch: &mut [f32], v: u32| {
            let shared = &shared;
            let dst = v as usize;
            for (src, eid) in rev.iter_row(dst) {
                plan.eval(scratch, src as usize, dst, eid as usize);
                let row =
                    unsafe { std::slice::from_raw_parts_mut(shared.0.add(eid as usize * w), w) };
                row.copy_from_slice(&scratch[plan.root..plan.root + w]);
            }
        };
        if num_edges * w >= par_min() {
            let ranges = balanced_ranges(rev, rayon::current_num_threads() * 4);
            ranges.par_iter().for_each(|range| {
                let mut scratch = TrackedBuf::raw_in(mem_pool, plan.scratch_len);
                for &v in &rev.node_ids[range.clone()] {
                    per_vertex(scratch.as_mut_slice(), v);
                }
            });
        } else {
            let mut scratch = TrackedBuf::raw_in(mem_pool, plan.scratch_len);
            for &v in &rev.node_ids {
                per_vertex(scratch.as_mut_slice(), v);
            }
        }
    }
    Tensor::from_buf(Shape::Mat(num_edges, w), out)
}

/// Node-space elementwise binary with width-1 row broadcast. One pooled
/// output and one parallel driver serve both the equal-width and the
/// broadcast path; the per-row loop is specialised outside the hot loop so
/// the equal-width case stays branch-free per element.
fn node_binary(a: &Tensor, b: &Tensor, w: usize, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let n = a.rows();
    debug_assert_eq!(b.rows(), n);
    let (wa, wb) = (a.cols(), b.cols());
    let (ad, bd) = (a.data(), b.data());
    let mut out = TrackedBuf::raw(n * w);
    let dst = out.as_mut_slice();
    let row_body = |(i, drow): (usize, &mut [f32])| {
        let arow = &ad[i * wa..i * wa + wa];
        let brow = &bd[i * wb..i * wb + wb];
        match (wa == 1, wb == 1) {
            (false, false) => {
                for (d, (&x, &y)) in drow.iter_mut().zip(arow.iter().zip(brow)) {
                    *d = f(x, y);
                }
            }
            (true, false) => {
                for (d, &y) in drow.iter_mut().zip(brow) {
                    *d = f(arow[0], y);
                }
            }
            (false, true) => {
                for (d, &x) in drow.iter_mut().zip(arow) {
                    *d = f(x, brow[0]);
                }
            }
            (true, true) => {
                drow.fill(f(arow[0], brow[0]));
            }
        }
    };
    if n * w >= par_min() {
        dst.par_chunks_mut(w).enumerate().for_each(row_body);
    } else {
        dst.chunks_mut(w).enumerate().for_each(row_body);
    }
    Tensor::from_buf(Shape::Mat(n, w), out)
}

/// Result of executing a program.
pub struct ExecOutput {
    /// Output tensors, in program output order.
    pub outputs: Vec<Tensor>,
    /// Values of the requested `save` ids, in request order.
    pub saved: Vec<Tensor>,
}

/// Executes a vertex-centric program against a graph.
///
/// ```
/// use stgraph_graph::base::Snapshot;
/// use stgraph_seastar::ir::ProgramBuilder;
/// use stgraph_seastar::exec::execute;
/// use stgraph_tensor::Tensor;
///
/// // out_v = sum of in-neighbour features.
/// let mut b = ProgramBuilder::new();
/// let h = b.input(1);
/// let gathered = b.gather_src(h);
/// let out = b.agg_sum_dst(gathered);
/// let prog = b.finish(&[out]);
///
/// let graph = Snapshot::from_edges(3, &[(0, 2), (1, 2)]);
/// let x = Tensor::from_vec((3, 1), vec![1.0, 2.0, 4.0]);
/// let result = execute(&prog, &graph, &[&x], &[], &[], &[]);
/// assert_eq!(result.outputs[0].to_vec(), vec![0.0, 0.0, 3.0]);
/// ```
///
/// * `inputs` — differentiable node inputs, by slot.
/// * `node_consts` / `edge_consts` — constant tensors, by slot.
/// * `save` — forward IR ids whose values the caller wants back (the
///   backward program's saved set); edge-space ids trigger the edge
///   materialisation kernel.
pub fn execute(
    prog: &Program,
    graph: &dyn STGraphBase,
    inputs: &[&Tensor],
    node_consts: &[&Tensor],
    edge_consts: &[&Tensor],
    save: &[Id],
) -> ExecOutput {
    let n = graph.num_nodes();
    assert_eq!(inputs.len(), prog.input_widths.len(), "input slot count");
    assert_eq!(
        node_consts.len(),
        prog.node_const_widths.len(),
        "node const slot count"
    );
    assert_eq!(
        edge_consts.len(),
        prog.edge_const_widths.len(),
        "edge const slot count"
    );
    for (i, t) in inputs.iter().enumerate() {
        assert_eq!(t.rows(), n, "input {i}: rows vs num_nodes");
        assert_eq!(t.cols(), prog.input_widths[i], "input {i}: width");
    }

    let mut values: Vec<Option<Tensor>> = vec![None; prog.len()];
    for (id, node) in prog.nodes.iter().enumerate() {
        if node.space == Space::Edge {
            continue; // fused into kernels
        }
        let w = node.width;
        let value = match node.op {
            Op::NodeInput(slot) => inputs[slot].clone(),
            Op::NodeConst(slot) => node_consts[slot].clone(),
            Op::AggSumDst(e) | Op::AggMaxDst(e) => {
                let plan = compile_edge_plan(prog, e, &values, edge_consts);
                let kind = if matches!(node.op, Op::AggSumDst(_)) {
                    AggKind::SumDst
                } else {
                    AggKind::MaxDst
                };
                run_aggregation(&plan, graph.reverse_csr(), kind, n)
            }
            Op::AggSumSrc(e) => {
                let plan = compile_edge_plan(prog, e, &values, edge_consts);
                run_aggregation(&plan, graph.csr(), AggKind::SumSrc, n)
            }
            Op::Add(a, b) => node_binary(
                values[a].as_ref().unwrap(),
                values[b].as_ref().unwrap(),
                w,
                |x, y| x + y,
            ),
            Op::Sub(a, b) => node_binary(
                values[a].as_ref().unwrap(),
                values[b].as_ref().unwrap(),
                w,
                |x, y| x - y,
            ),
            Op::Mul(a, b) => node_binary(
                values[a].as_ref().unwrap(),
                values[b].as_ref().unwrap(),
                w,
                |x, y| x * y,
            ),
            Op::Div(a, b) => node_binary(
                values[a].as_ref().unwrap(),
                values[b].as_ref().unwrap(),
                w,
                |x, y| x / y,
            ),
            Op::Scale(a, c) => values[a].as_ref().unwrap().mul_scalar(c),
            Op::LeakyRelu(a, s) => values[a].as_ref().unwrap().leaky_relu(s),
            Op::LeakyReluGrad(g, x, s) => node_binary(
                values[g].as_ref().unwrap(),
                values[x].as_ref().unwrap(),
                w,
                move |gv, xv| gv * if xv >= 0.0 { 1.0 } else { s },
            ),
            Op::Exp(a) => values[a].as_ref().unwrap().exp(),
            Op::Sigmoid(a) => values[a].as_ref().unwrap().sigmoid(),
            Op::Tanh(a) => values[a].as_ref().unwrap().tanh(),
            Op::ReduceFeat(a) => {
                let t = values[a].as_ref().unwrap();
                t.sum_axis1().reshape(Shape::Mat(t.rows(), 1))
            }
            Op::BroadcastFeat(a, bw) => {
                let t = values[a].as_ref().unwrap();
                let src = t.data();
                let mut out = TrackedBuf::raw(t.rows() * bw);
                let dst = out.as_mut_slice();
                for i in 0..t.rows() {
                    dst[i * bw..(i + 1) * bw].fill(src[i]);
                }
                Tensor::from_buf(Shape::Mat(t.rows(), bw), out)
            }
            Op::EdgeConst(_) | Op::GatherSrc(_) | Op::GatherDst(_) => {
                unreachable!("edge-space op reached node evaluation")
            }
        };
        values[id] = Some(value);
    }

    let saved = save
        .iter()
        .map(|&id| match prog.node(id).space {
            Space::Node => values[id].as_ref().expect("saved node value").clone(),
            Space::Edge => {
                let plan = compile_edge_plan(prog, id, &values, edge_consts);
                materialize_edge_value(&plan, graph.reverse_csr(), graph.num_edges())
            }
        })
        .collect();

    let outputs = prog
        .outputs
        .iter()
        .map(|&o| values[o].as_ref().expect("output value").clone())
        .collect();
    ExecOutput { outputs, saved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{gcn_aggregation, ProgramBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_graph::base::{dense_adjacency, gcn_norm, Snapshot};

    fn diamond() -> Snapshot {
        Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn plain_copy_aggregation_sums_in_neighbours() {
        // out_v = sum of h_u over in-neighbours u.
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let g = b.gather_src(h);
        let out = b.agg_sum_dst(g);
        let prog = b.finish(&[out]);
        let snap = diamond();
        let x = Tensor::from_vec((4, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let r = execute(&prog, &snap, &[&x], &[], &[], &[]);
        // node1 <- node0; node2 <- node0; node3 <- node1 + node2.
        assert_eq!(
            r.outputs[0].to_vec(),
            vec![0.0, 0.0, 1.0, 2.0, 1.0, 2.0, 8.0, 10.0]
        );
    }

    #[test]
    fn agg_sum_src_sums_out_neighbours() {
        let mut b = ProgramBuilder::new();
        let h = b.input(1);
        let g = b.gather_dst(h);
        let out = b.agg_sum_src(g);
        let prog = b.finish(&[out]);
        let snap = diamond();
        let x = Tensor::from_vec((4, 1), vec![10.0, 20.0, 30.0, 40.0]);
        let r = execute(&prog, &snap, &[&x], &[], &[], &[]);
        // node0 -> {1,2}: 50; node1 -> {3}: 40; node2 -> {3}: 40; node3: 0.
        assert_eq!(r.outputs[0].to_vec(), vec![50.0, 40.0, 40.0, 0.0]);
    }

    #[test]
    fn agg_max_takes_row_max() {
        let mut b = ProgramBuilder::new();
        let h = b.input(1);
        let g = b.gather_src(h);
        let out = b.agg_max_dst(g);
        let prog = b.finish(&[out]);
        let snap = diamond();
        let x = Tensor::from_vec((4, 1), vec![-5.0, -1.0, -2.0, 0.0]);
        let r = execute(&prog, &snap, &[&x], &[], &[], &[]);
        // node3's in-nbrs {1,2}: max(-1,-2) = -1. Isolated (node0): 0.
        assert_eq!(r.outputs[0].to_vec(), vec![0.0, -5.0, -5.0, -1.0]);
    }

    #[test]
    fn gcn_matches_dense_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let snap = Snapshot::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (2, 5),
                (1, 1),
            ],
        );
        let f = 4;
        let x = Tensor::rand_uniform((6, f), -1.0, 1.0, &mut rng);
        let prog = gcn_aggregation(f);
        let norm = gcn_norm(&snap.in_degrees);
        let norm_t = Tensor::from_vec((6, 1), norm.clone());
        let got = execute(&prog, &snap, &[&x], &[&norm_t], &[], &[])
            .outputs
            .remove(0);
        // Dense oracle: out = N (A^T + I) N X  with N = diag(norm).
        let a = dense_adjacency(&snap);
        let n = 6;
        let mut want = vec![0.0f32; n * f];
        for v in 0..n {
            for u in 0..n {
                let w_uv = a[u][v]; // edge u -> v
                if w_uv != 0.0 {
                    for j in 0..f {
                        want[v * f + j] += norm[v] * w_uv * norm[u] * x.at(u, j);
                    }
                }
            }
            for j in 0..f {
                want[v * f + j] += norm[v] * norm[v] * x.at(v, j);
            }
        }
        let want = Tensor::from_vec((n, f), want);
        assert!(
            got.approx_eq(&want, 1e-4),
            "diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn saved_edge_value_materialises_by_eid() {
        let mut b = ProgramBuilder::new();
        let h = b.input(1);
        let gs = b.gather_src(h);
        let gd = b.gather_dst(h);
        let prod = b.mul(gs, gd);
        let out = b.agg_sum_dst(prod);
        let prog = b.finish(&[out]);
        let prod_id = prog
            .nodes
            .iter()
            .position(|nd| matches!(nd.op, Op::Mul(_, _)))
            .unwrap();
        let snap = diamond();
        let x = Tensor::from_vec((4, 1), vec![2.0, 3.0, 5.0, 7.0]);
        let r = execute(&prog, &snap, &[&x], &[], &[], &[prod_id]);
        // Edge e labelled by canonical order: (0,1)=6, (0,2)=10, (1,3)=21, (2,3)=35.
        assert_eq!(r.saved[0].to_vec(), vec![6.0, 10.0, 21.0, 35.0]);
        assert_eq!(r.outputs[0].to_vec(), vec![0.0, 6.0, 10.0, 56.0]);
    }

    #[test]
    fn edge_const_loads_by_eid() {
        let mut b = ProgramBuilder::new();
        let h = b.input(1);
        let wts = b.edge_const(1);
        let gs = b.gather_src(h);
        let weighted = b.mul(gs, wts);
        let out = b.agg_sum_dst(weighted);
        let prog = b.finish(&[out]);
        let snap = diamond();
        let x = Tensor::ones((4, 1));
        let w = Tensor::from_vec((4, 1), vec![1.0, 10.0, 100.0, 1000.0]);
        let r = execute(&prog, &snap, &[&x], &[], &[&w], &[]);
        assert_eq!(r.outputs[0].to_vec(), vec![0.0, 1.0, 10.0, 1100.0]);
    }

    #[test]
    fn sigmoid_tanh_in_kernels_match_node_space() {
        // Edge-space sigmoid/tanh inside a kernel == node-space math.
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let g = b.gather_src(h);
        let sg = b.sigmoid(g);
        let tg = b.tanh(sg);
        let out = b.agg_sum_dst(tg);
        let prog = b.finish(&[out]);
        let snap = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let x = Tensor::rand_uniform((4, 2), -2.0, 2.0, &mut rng);
        let got = execute(&prog, &snap, &[&x], &[], &[], &[])
            .outputs
            .remove(0);
        // Oracle via node-space transforms + plain copy aggregation.
        let tx = x.sigmoid().tanh();
        let mut want = vec![0.0f32; 8];
        for v in 0..4 {
            for (u, _) in snap.reverse_csr.iter_row(v) {
                for j in 0..2 {
                    want[v * 2 + j] += tx.at(u as usize, j);
                }
            }
        }
        assert!(got.approx_eq(&Tensor::from_vec((4, 2), want), 1e-5));
    }

    #[test]
    #[should_panic(expected = "rows vs num_nodes")]
    fn wrong_input_rows_panics() {
        let prog = gcn_aggregation(2);
        let snap = diamond();
        let x = Tensor::zeros((3, 2));
        let norm = Tensor::zeros((4, 1));
        let _ = execute(&prog, &snap, &[&x], &[&norm], &[], &[]);
    }
}
