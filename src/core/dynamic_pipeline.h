#ifndef AHNTP_CORE_DYNAMIC_PIPELINE_H_
#define AHNTP_CORE_DYNAMIC_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/ahntp_model.h"
#include "data/dataset.h"
#include "data/features.h"
#include "graph/delta.h"
#include "graph/dynamic_motifs.h"
#include "models/trust_predictor.h"

namespace ahntp::core {

/// Configuration of a DynamicTrustPipeline.
struct DynamicPipelineOptions {
  AhntpConfig model;
  models::TrustPredictorConfig predictor;
  data::FeatureOptions features;
  graph::MutableGraphOptions store;
  /// Seed for model/predictor initialization. Weight draws depend only on
  /// layer dimensions — never on graph structure — so a rebuilt pipeline
  /// with the same seed reproduces the weights bit-for-bit.
  uint64_t seed = 2024;
};

/// What one ApplyDelta() did beyond the raw store receipt.
struct DeltaOutcome {
  graph::DeltaReceipt receipt;
  /// Power iterations the warm-started influence refresh used, and the
  /// cold-start count of the solve at construction time, on the initial
  /// graph: it is not re-measured per delta, so cold - warm only estimates
  /// the saving on the current graph. Both 0 for rating-only deltas
  /// (influence untouched).
  int pagerank_iterations = 0;
  int pagerank_cold_iterations = 0;
  /// Whether the social hypergroup was re-derived (structural deltas only;
  /// influence is a global fixed point, so its top-K sets are rebuilt
  /// whole rather than patched).
  bool social_rebuilt = false;
};

/// The dynamic trust stack (DESIGN.md §17): a mutable graph store plus
/// every derived structure — motif counts, influence scores, hypergroups
/// and the serving inference plan — kept current under graph deltas. The
/// graph-side structures are patched incrementally; the encoder is not:
/// attribute hyperedges mix globally, so a delta changes every user's
/// embedding and one full re-encode is the cheapest refresh. Every value is
/// bit-identical to what a full rebuild from the current snapshot produces
/// (RebuildFromScratch() is the equivalence oracle; the influence vector
/// alone is tolerance-equal, see below).
///
/// Per delta, the update cascade is:
///   store.Apply  ->  motif counts patched around touched edges
///                ->  influence re-solved warm-started from the previous
///                    vector (warm and cold iteration counts in the outcome)
///                ->  hypergroups: social rebuilt whole (global top-K),
///                    attribute untouched, pairwise/multi-hop patched via
///                    retained + changed fragments (hypergraph/dynamic.h)
///                ->  model inputs installed: features, influence, and the
///                    hypergraph of each branch whose structure changed
///                    (surviving hyperedges keep their learned weights)
///                ->  the serving plan rebuilt: one all-user encode plus
///                    the fp32 copy, int8 quantize or sharded spill.
///
/// Fault site "plan.delta.refresh" fires right after the store commit; an
/// injected fault rolls the store back (RevertLast) and leaves every
/// derived structure untouched, so the pipeline stays consistent at the
/// previous generation.
///
/// Not thread-safe; the serving layer applies deltas between batches on
/// its dispatcher thread. generation() is safe from any thread.
class DynamicTrustPipeline {
 public:
  /// Builds the full stack from `dataset`. The inference plan is built
  /// lazily (or by WarmInferencePlan()).
  static Result<DynamicTrustPipeline> Create(
      const data::SocialDataset& dataset,
      DynamicPipelineOptions options = DynamicPipelineOptions());

  DynamicTrustPipeline(DynamicTrustPipeline&&) = default;
  DynamicTrustPipeline& operator=(DynamicTrustPipeline&&) = default;

  /// Applies one delta through the whole cascade. On error (validation or
  /// an injected fault) the pipeline is unchanged, previous generation
  /// included. An error rebuilding the plan (IoError from a sharded spill)
  /// is returned after the store and model have moved on; the plan then
  /// rebuilds at its next use.
  Result<DeltaOutcome> ApplyDelta(const graph::GraphDelta& delta);

  /// Builds a fresh pipeline from the current snapshot — the equivalence
  /// oracle for the incremental path. The incrementally maintained
  /// influence vector is handed to the rebuild verbatim
  /// (AhntpConfig::influence_override), so everything downstream of
  /// influence compares bitwise; the vector itself is validated separately
  /// against a cold solve at testing tolerance (tests/dynamic_test.cc).
  Result<DynamicTrustPipeline> RebuildFromScratch() const;

  /// The store's monotonic generation — the serving cache key. Safe from
  /// any thread.
  int64_t generation() const { return store_->generation(); }

  models::TrustPredictor& predictor() { return *predictor_; }
  const models::TrustPredictor& predictor() const { return *predictor_; }
  AhntpModel& model() { return *model_; }
  const AhntpModel& model() const { return *model_; }
  const graph::MutableTrustGraph& store() const { return *store_; }
  const data::SocialDataset& dataset() const { return dataset_; }
  const tensor::Matrix& features() const { return features_; }
  const std::vector<double>& influence() const { return influence_; }
  /// Incrementally maintained motif counts (null when use_mpr is off).
  const graph::MotifCounts* motif_counts() const {
    return motifs_ ? &*motifs_ : nullptr;
  }
  int cold_pagerank_iterations() const { return cold_pr_iterations_; }

  /// The per-hypergroup states the incremental updates maintain.
  const hypergraph::Hypergraph& social_hypergroup() const { return social_; }
  const hypergraph::Hypergraph& attribute_hypergroup() const {
    return attribute_;
  }
  const hypergraph::Hypergraph& pairwise_hypergroup() const {
    return pairwise_;
  }
  const hypergraph::Hypergraph& multihop_hypergroup() const {
    return multihop_;
  }

 private:
  DynamicTrustPipeline() = default;

  DynamicPipelineOptions options_;
  data::SocialDataset dataset_;
  std::optional<graph::MutableTrustGraph> store_;
  tensor::Matrix features_;
  std::optional<graph::MotifCounts> motifs_;
  std::vector<double> influence_;
  int cold_pr_iterations_ = 0;

  hypergraph::Hypergraph social_{0};
  hypergraph::Hypergraph attribute_{0};
  hypergraph::Hypergraph pairwise_{0};
  hypergraph::Hypergraph multihop_{0};
  hypergraph::MultiHopOptions hop_options_;
  std::vector<int64_t> node_keys_;      // social || attribute, static
  std::vector<int64_t> pairwise_keys_;  // tracks the live edge set
  std::vector<int64_t> multihop_keys_;  // static

  std::unique_ptr<Rng> rng_;  // stable address: the model keeps a pointer
  std::shared_ptr<AhntpModel> model_;
  std::unique_ptr<models::TrustPredictor> predictor_;
};

}  // namespace ahntp::core

#endif  // AHNTP_CORE_DYNAMIC_PIPELINE_H_
