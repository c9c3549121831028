//! The no-batching replay oracle served answers are checked against.
//!
//! [`direct_chain`] recomputes every generation's recurrent step on the
//! same snapshot chain the engine sees, with no queue, no batching and no
//! engine code on the path, so `serve --verify` and the serving test suites
//! can require the engine's answers to match it bitwise.

use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::RecurrentCell;
use stgraph_dyngraph::DtdgSource;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{StateDict, Tape, Tensor};

use crate::ingest::LiveGraph;
use crate::online::{OnlineError, OnlineTrainer};

/// One recurrent step per generation, hidden state carried:
/// `h_g = cell(feats, A_g, h_{g-1})`, returned for every generation.
///
/// With `online` it follows the engine's train-while-serving schedule too:
/// forward generation `g` on the current weights, apply `diffs[g]`, run one
/// online step, and install the published weights into `params` before
/// `g+1`'s forward. A trainer cloned from the live one's initial state
/// replays the served embeddings bitwise. The only error is the trainer's
/// own (an injected fault at an `online.*` site).
pub fn direct_chain(
    src: &DtdgSource,
    feats: &Tensor,
    cell: &dyn RecurrentCell,
    mut online: Option<(&mut OnlineTrainer, &ParamSet)>,
) -> Result<Vec<Tensor>, OnlineError> {
    let mut live = LiveGraph::from_source(src);
    let diffs = src.diffs();
    let mut hidden: Option<Tensor> = None;
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // g is a generation, not just an index
    for g in 0..src.num_timestamps() {
        let (_, snap) = live.snapshot();
        let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
        let tape = Tape::new();
        let x = tape.constant(feats.clone());
        let h = hidden.clone().map(|t| tape.constant(t));
        let new = cell.step(&tape, &exec, 0, &x, h.as_ref());
        hidden = Some(new.value().clone());
        out.push(new.value().clone());
        if g + 1 == src.num_timestamps() {
            continue;
        }
        live.apply(&diffs[g]);
        if let Some((trainer, params)) = online.as_mut() {
            let (_, snap) = live.snapshot();
            let step = trainer.on_advance(live.generation(), &diffs[g], snap, feats)?;
            if let Some(published) = step {
                params
                    .try_load_state_dict(&published.entries)
                    .expect("published weights match the serving cell");
            }
        }
    }
    Ok(out)
}
