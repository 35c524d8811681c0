#ifndef AHNTP_DATA_SPLIT_H_
#define AHNTP_DATA_SPLIT_H_

#include <vector>

#include "data/dataset.h"

namespace ahntp::data {

/// A labelled user pair: label 1 = trust, 0 = no observed trust.
struct TrustPair {
  int src = 0;
  int dst = 0;
  float label = 0.0f;
};

/// Split protocol of Section V-B: positives are shuffled once; the final
/// `test_fraction` forms a fixed test set, and the first `train_fraction`
/// forms the training set (so sweeping train_fraction in {0.5..0.8} keeps
/// the same test pairs, as the robustness study Q2 requires). Negative
/// pairs are sampled from unconnected user pairs — 2 per positive for
/// training, per Section V-A.4.
struct SplitOptions {
  double train_fraction = 0.8;
  double test_fraction = 0.2;
  int train_negatives_per_positive = 2;
  int test_negatives_per_positive = 1;
  /// Fraction of negatives drawn as *hard* negatives: unconnected pairs
  /// within 3 (undirected) hops of each other, instead of uniformly random
  /// pairs. Uniform negatives are usually separable by coarse community
  /// signals alone; hard negatives require the fine-grained high-order
  /// structure the paper's method targets. The same mix is used for train
  /// and test so every model faces the identical task.
  double hard_negative_fraction = 0.5;
  uint64_t seed = 7;
};

/// The materialized split.
struct TrustSplit {
  std::vector<graph::Edge> train_positive;
  std::vector<graph::Edge> test_positive;
  /// Positives + sampled negatives, shuffled.
  std::vector<TrustPair> train_pairs;
  std::vector<TrustPair> test_pairs;
};

/// Builds a train/test split. Negative samples avoid *all* trust edges
/// (train and test) so no negative is secretly positive.
///
/// Cost: one 3-hop BFS per distinct hard-negative source (counted by
/// `data.split.ball_bfs`), memoized across the train and test draws. The
/// memo holds Σ|ball| ints and is freed on return; it adds about 32 MB to
/// peak RSS at CiaoLike 1.0 and 62 MB at EpinionsLike 1.0.
TrustSplit MakeSplit(const SocialDataset& dataset,
                     const SplitOptions& options = {});

/// Temporal variant (the paper's future-work setting): positives are
/// ordered by trust_edge_times instead of shuffled, so the model trains on
/// the oldest `train_fraction` of edges and is tested on the newest
/// `test_fraction` — predicting *future* trust. Precondition: the dataset
/// carries trust_edge_times.
TrustSplit MakeTemporalSplit(const SocialDataset& dataset,
                             const SplitOptions& options = {});

}  // namespace ahntp::data

#endif  // AHNTP_DATA_SPLIT_H_
