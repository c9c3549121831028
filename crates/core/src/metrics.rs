//! Classification metrics (accuracy and ROC-AUC) for link prediction.

use stgraph_tensor::Tensor;

/// Binary accuracy of logits against 0/1 labels at threshold 0.
pub fn binary_accuracy(logits: &Tensor, labels: &Tensor) -> f32 {
    assert_eq!(logits.numel(), labels.numel());
    let correct = logits
        .data()
        .iter()
        .zip(labels.data())
        .filter(|(&l, &y)| (l > 0.0) == (y > 0.5))
        .count();
    correct as f32 / logits.numel() as f32
}

/// Area under the ROC curve for logits against 0/1 labels, computed by the
/// rank statistic (equivalent to the Mann–Whitney U), with the midrank
/// correction for tied scores.
pub fn roc_auc(logits: &Tensor, labels: &Tensor) -> f32 {
    assert_eq!(logits.numel(), labels.numel());
    let n = logits.numel();
    let mut idx: Vec<usize> = (0..n).collect();
    let scores = logits.data();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
    // Midranks.
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = mid;
        }
        i = j + 1;
    }
    let labels = labels.data();
    let pos: f64 = labels.iter().filter(|&&y| y > 0.5).count() as f64;
    let neg = n as f64 - pos;
    if pos == 0.0 || neg == 0.0 {
        return 0.5;
    }
    let rank_sum: f64 = (0..n).filter(|&k| labels[k] > 0.5).map(|k| ranks[k]).sum();
    ((rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_thresholds_at_zero() {
        let logits = Tensor::from_vec(4, vec![2.0, -1.0, 0.5, -0.1]);
        let labels = Tensor::from_vec(4, vec![1.0, 0.0, 0.0, 1.0]);
        // correct: idx0 (pos,pos), idx1 (neg,neg); wrong: idx2, idx3.
        assert!((binary_accuracy(&logits, &labels) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let logits = Tensor::from_vec(4, vec![-2.0, -1.0, 1.0, 2.0]);
        let labels = Tensor::from_vec(4, vec![0.0, 0.0, 1.0, 1.0]);
        assert!((roc_auc(&logits, &labels) - 1.0).abs() < 1e-6);
        let inverted = Tensor::from_vec(4, vec![1.0, 1.0, 0.0, 0.0]);
        assert!((roc_auc(&logits, &inverted) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn auc_handles_ties_with_midranks() {
        // All scores equal: AUC must be exactly 0.5.
        let logits = Tensor::from_vec(4, vec![0.3, 0.3, 0.3, 0.3]);
        let labels = Tensor::from_vec(4, vec![1.0, 0.0, 1.0, 0.0]);
        assert!((roc_auc(&logits, &labels) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn auc_degenerate_single_class() {
        let logits = Tensor::from_vec(3, vec![0.1, 0.2, 0.3]);
        let labels = Tensor::from_vec(3, vec![1.0, 1.0, 1.0]);
        assert_eq!(roc_auc(&logits, &labels), 0.5);
    }

    #[test]
    fn auc_known_value() {
        // scores: pos {0.9, 0.4}, neg {0.5, 0.1}. Pairs: (0.9>0.5),
        // (0.9>0.1), (0.4<0.5), (0.4>0.1) => 3/4.
        let logits = Tensor::from_vec(4, vec![0.9, 0.4, 0.5, 0.1]);
        let labels = Tensor::from_vec(4, vec![1.0, 1.0, 0.0, 0.0]);
        assert!((roc_auc(&logits, &labels) - 0.75).abs() < 1e-6);
    }
}
