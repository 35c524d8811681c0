#ifndef AHNTP_MODELS_INFERENCE_PLAN_H_
#define AHNTP_MODELS_INFERENCE_PLAN_H_

#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "graph/sharding.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "tensor/workspace.h"

namespace ahntp::models {

class TrustPredictor;

/// Numeric format of the cached embedding table inside an inference plan.
///
/// kFloat32 is the reference: scores are bit-identical to the tape path.
/// kInt8 stores the table as per-row symmetric int8 (tensor/quant.h) —
/// 4x smaller resident/spilled bytes — and dequantizes rows on gather, so
/// the scoring chain itself still runs in float32. Scores agree with
/// kFloat32 to quantization tolerance; the AUC-delta guard in
/// scripts/check_inference.sh bounds the ranking impact (<= 0.002).
enum class PlanPrecision {
  kFloat32 = 0,
  kInt8 = 1,
};

/// "fp32" / "int8".
const char* PlanPrecisionName(PlanPrecision precision);

/// Compiled inference state for one TrustPredictor: the all-user embedding
/// table (encoded once, reused across every batch until invalidated) plus a
/// Workspace arena for the per-batch scoring chain. Score() is bit-identical
/// to the tape path (Forward() in eval mode) at any --threads=N because both
/// run the exact same tensor kernels in the same order.
///
/// Lifecycle: parameters changed (training step, checkpoint load, reload)
/// => Invalidate(); the next Score() re-encodes. TrustPredictor owns one
/// plan and invalidates it from InvalidateCaches() and training forwards;
/// serve::ModelBackend additionally warms the plan before publishing a
/// predictor so the first live request never pays the encode.
///
/// Not thread-safe: one plan (like one Workspace) per scoring thread.
class InferencePlan {
 public:
  /// `predictor` must outlive the plan; the plan holds no ownership.
  explicit InferencePlan(TrustPredictor* predictor);

  /// Encodes all users through the tape-free path if the cache is stale.
  /// Counts infer.plan_builds / infer.cache_misses; a fresh cache counts
  /// infer.cache_hits instead. Encoding uses a throwaway arena so the
  /// steady-state workspace only holds the (small) scoring buffers.
  /// InvalidArgument when int8 calibration fails (a non-finite embedding,
  /// or external stats that no longer fit the table); the plan stays
  /// unbuilt.
  Status EnsureBuilt();

  /// Marks the embedding cache stale. Cheap; storage is kept.
  void Invalidate() { built_ = false; }

  bool built() const { return built_; }

  /// Probabilities for a batch of pairs, read from the cached embedding
  /// table. Steady state performs zero heap allocations: every intermediate
  /// lives in the arena and the index buffers reuse their capacity.
  std::vector<float> Score(const std::vector<data::TrustPair>& pairs);

  /// Score() with deterministic inverted dropout applied to the gathered
  /// embedding rows before the scoring chain — the MC-dropout perturbation
  /// of the uncertainty ensemble (models/uncertainty.h, DESIGN.md §16).
  /// Masks are keyed on (seed, user id, tower side, element), never on
  /// batch position or shard layout, so a pair's perturbed score is
  /// invariant to batch composition and bit-identical between the
  /// monolithic and sharded plans. `rate` must lie in (0, 1) (CHECK).
  std::vector<float> ScoreWithInputDropout(
      const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed);

  /// Switches the table format; a change invalidates the plan (the next
  /// Score() re-encodes and, for kInt8, requantizes).
  void SetPrecision(PlanPrecision precision);
  PlanPrecision precision() const { return precision_; }

  /// Installs externally captured calibration stats (e.g. from a training
  /// activation sweep) instead of the default self-calibration over the
  /// encoder's own activations. Validates the stats against the live table
  /// (row count, finite non-negative absmax) and returns InvalidArgument on
  /// bad input — fuzzed stats must never crash. On success the plan is
  /// invalidated: recalibration requantizes at the next Score().
  Status SetCalibration(tensor::RowCalibration calib);

  /// The calibration in effect for the current int8 table (empty before the
  /// first int8 build).
  const tensor::RowCalibration& calibration() const { return calib_; }

  /// Cached (num_users x d) embeddings; valid after EnsureBuilt() under
  /// kFloat32 (empty under kInt8 — the float table is freed after
  /// quantization).
  const tensor::Matrix& embeddings() const { return embeddings_; }

  /// The int8 table; valid after EnsureBuilt() under kInt8.
  const tensor::QuantizedMatrix& quantized_embeddings() const {
    return qembeddings_;
  }

  /// Resident bytes of the cached table in its current precision.
  size_t embedding_bytes() const;

  /// The scoring arena (exposed for the allocation regression tests).
  const tensor::Workspace& workspace() const { return ws_; }

 private:
  /// Shared body of Score / ScoreWithInputDropout; rate < 0 = no dropout.
  std::vector<float> ScoreImpl(const std::vector<data::TrustPair>& pairs,
                               float dropout_rate, uint64_t dropout_seed);

  TrustPredictor* predictor_;
  tensor::Workspace ws_;        // scoring arena, reset per batch
  tensor::Matrix embeddings_;   // all-user embedding cache (kFloat32)
  tensor::QuantizedMatrix qembeddings_;  // int8 table (kInt8)
  tensor::RowCalibration calib_;
  bool has_external_calib_ = false;
  PlanPrecision precision_ = PlanPrecision::kFloat32;
  std::vector<int> src_idx_;    // reused per batch
  std::vector<int> dst_idx_;
  bool built_ = false;
};

// ---------------------------------------------------------------------------
// The shard-aware inference path (DESIGN.md §14): the embedding table is
// split by UserSharding into per-shard blocks spilled to disk, and a
// bounded LRU keeps at most max_resident_shards blocks in RAM. A score
// request faults in only the shards of its (src, dst) users. Because a
// float32 survives the disk round-trip bit-exactly and the scoring kernels
// are shared with InferencePlan, scores are bit-identical to the monolithic
// plan at any (shard count, residency cap, thread count) combination.
// ---------------------------------------------------------------------------

/// Options for ShardedInferencePlan.
struct ShardedPlanOptions {
  int num_shards = 1;
  /// RAM residency cap in shards; 0 = use the process-wide
  /// MaxResidentShards() value (--max_resident_shards /
  /// AHNTP_MAX_RESIDENT_SHARDS, default 2).
  int max_resident_shards = 0;
  graph::ShardingMode mode = graph::ShardingMode::kContiguous;
  /// Directory for the per-shard block files; created if missing. Each plan
  /// instance spills into its own subdirectory, so a staged reload never
  /// clobbers the live plan's blocks.
  std::string spill_dir;
  /// Block format. kInt8 spills quantized blocks (4x smaller, "AHSQ"
  /// format); scores are bitwise-identical to a monolithic kInt8 plan built
  /// from the same calibration, and tolerance-close to kFloat32.
  PlanPrecision precision = PlanPrecision::kFloat32;
};

/// Disk-backed per-shard embedding blocks behind a bounded LRU.
///
/// kFloat32 blocks are raw float32 rows (one per owned user, ascending user
/// order) with a small header and a CRC32 footer ("AHSB"); kInt8 blocks
/// store per-row scales followed by the int8 payload, CRC over both
/// ("AHSQ"). Fault-in validates header and CRC.
/// Counters: infer.shard_faults (disk loads), infer.shard_hits (already
/// resident), infer.shard_evictions; gauge infer.shard_resident_bytes.
/// Not thread-safe (same contract as InferencePlan).
class ShardEmbeddingStore {
 public:
  /// `max_resident` >= 1 (CHECK). The directory is created on first spill.
  ShardEmbeddingStore(graph::UserSharding sharding, size_t dim,
                      std::string spill_dir, int max_resident,
                      PlanPrecision precision = PlanPrecision::kFloat32);

  /// Writes every shard's block from the full (num_users x dim) table and
  /// drops all residency (the table is the caller's to free). Atomic per
  /// block file. kFloat32 stores only.
  Status SpillAll(const tensor::Matrix& embeddings);

  /// Writes one shard's block; `rows` must be (owned-count x dim) in
  /// ascending owned-user order. Lets builders stream blocks without ever
  /// materializing the full table. kFloat32 stores only.
  Status SpillShard(int shard, const tensor::Matrix& rows);

  /// kInt8 analogue of SpillAll: slices `calib` (full-table row
  /// calibration, already validated) per shard and spills quantized blocks.
  /// Because every user keeps its full-table absmax, the dequantized rows
  /// are bitwise-identical to a monolithic int8 plan's.
  Status SpillAllQuantized(const tensor::Matrix& embeddings,
                           const tensor::RowCalibration& calib);

  /// Writes one quantized shard block (rows in ascending owned-user order).
  Status SpillQuantShard(int shard, const tensor::QuantizedMatrix& rows);

  /// The resident block for `shard` (rows in ascending owned-user order),
  /// faulting it in from disk — and evicting the least recently used block
  /// past the cap — as needed. kFloat32 stores only (CHECK).
  Result<const tensor::Matrix*> Block(int shard);

  /// kInt8 counterpart of Block() (CHECK on a kFloat32 store).
  Result<const tensor::QuantizedMatrix*> QuantBlock(int shard);

  /// Copies `user`'s embedding row into out[0..dim), dequantizing on a
  /// kInt8 store. Faults like Block().
  Status CopyUserRow(int user, float* out);

  const graph::UserSharding& sharding() const { return sharding_; }
  size_t dim() const { return dim_; }
  PlanPrecision precision() const { return precision_; }
  int num_resident() const {
    return static_cast<int>(resident_.size() + qresident_.size());
  }
  int max_resident() const { return max_resident_; }
  size_t resident_bytes() const;

 private:
  std::string BlockPath(int shard) const;
  void Touch(int shard);
  void EvictPastCap();

  graph::UserSharding sharding_;
  size_t dim_;
  std::string spill_dir_;
  int max_resident_;
  PlanPrecision precision_;
  /// shard -> resident block; lru_ front is most recently used. Exactly one
  /// of the two maps is populated, per `precision_`.
  std::map<int, tensor::Matrix> resident_;
  std::map<int, tensor::QuantizedMatrix> qresident_;
  std::list<int> lru_;
};

/// Shard-aware analogue of InferencePlan. EnsureBuilt() encodes all users,
/// spills the table into per-shard blocks, and frees the full table; each
/// Score() then touches only the shards its pairs live in, with RAM bounded
/// by max_resident_shards blocks. Scores are bit-identical to
/// InferencePlan::Score at any configuration. Not thread-safe.
class ShardedInferencePlan {
 public:
  /// `predictor` must outlive the plan. options.num_shards >= 1 and
  /// options.spill_dir non-empty (CHECK).
  ShardedInferencePlan(TrustPredictor* predictor, ShardedPlanOptions options);

  /// Encode + spill when stale. InvalidArgument propagates from a bad
  /// shard/user combination; IoError from spill failures.
  Status EnsureBuilt();

  void Invalidate() { built_ = false; }
  bool built() const { return built_; }

  Result<std::vector<float>> Score(const std::vector<data::TrustPair>& pairs);

  /// Sharded counterpart of InferencePlan::ScoreWithInputDropout: identical
  /// masks (keyed on user id, not shard/row), so the perturbed scores match
  /// the monolithic plan's bit-for-bit at any shard count.
  Result<std::vector<float>> ScoreWithInputDropout(
      const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed);

  /// Switches the block format; a change invalidates the plan (the next
  /// Score() re-encodes and re-spills).
  void SetPrecision(PlanPrecision precision);
  PlanPrecision precision() const { return options_.precision; }

  /// External calibration stats, same validation contract as
  /// InferencePlan::SetCalibration. Invalidates on success.
  Status SetCalibration(tensor::RowCalibration calib);

  /// The block store; valid after EnsureBuilt() (null before).
  const ShardEmbeddingStore* store() const { return store_.get(); }
  ShardEmbeddingStore* mutable_store() { return store_.get(); }

  const ShardedPlanOptions& options() const { return options_; }

 private:
  /// Shared body of Score / ScoreWithInputDropout; rate < 0 = no dropout.
  Result<std::vector<float>> ScoreImpl(
      const std::vector<data::TrustPair>& pairs, float dropout_rate,
      uint64_t dropout_seed);

  TrustPredictor* predictor_;
  ShardedPlanOptions options_;
  std::string plan_spill_dir_;  // per-instance subdirectory of spill_dir
  std::unique_ptr<ShardEmbeddingStore> store_;
  tensor::Workspace ws_;
  tensor::RowCalibration calib_;
  bool has_external_calib_ = false;
  bool built_ = false;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_INFERENCE_PLAN_H_
