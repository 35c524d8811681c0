#include "models/inference_plan.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/fileio.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "models/trust_predictor.h"
#include "nn/infer.h"
#include "tensor/kernels.h"

namespace ahntp::models {

namespace {

/// The tape-equivalent scoring chain from gathered tower inputs. Shared by
/// InferencePlan and ShardedInferencePlan so their kernel sequences cannot
/// drift: identical inputs give bit-identical probabilities on both paths.
std::vector<float> RunScoringChain(const TrustPredictor& predictor,
                                   tensor::Workspace* ws,
                                   const tensor::Matrix& src_emb,
                                   const tensor::Matrix& dst_emb) {
  using tensor::Matrix;
  const size_t n = src_emb.rows();
  Matrix& t_src = nn::InferMlp(predictor.tower_src(), src_emb, ws);
  Matrix& t_dst = nn::InferMlp(predictor.tower_dst(), dst_emb, ws);

  // PairwiseCosine: row-L2-normalize both sides (epsilon matches the tape
  // default), then row-wise dot.
  Matrix* norms = ws->Acquire(n, 1);
  tensor::RowNormsInto(norms, t_src, 1e-12f);
  Matrix* n_src = ws->Acquire(n, t_src.cols());
  tensor::DivRowsByNormsInto(n_src, t_src, *norms);
  tensor::RowNormsInto(norms, t_dst, 1e-12f);
  Matrix* n_dst = ws->Acquire(n, t_dst.cols());
  tensor::DivRowsByNormsInto(n_dst, t_dst, *norms);
  Matrix* cosine = ws->Acquire(n, 1);
  tensor::RowwiseDotInto(cosine, *n_src, *n_dst);

  // p = (1 + cos) / 2 as the tape computes it: Scale then AddScalar, two
  // separately rounded kernel passes.
  Matrix* prob = ws->Acquire(n, 1);
  tensor::ScaleInto(prob, *cosine, 0.5f);
  tensor::AddScalarInto(prob, *prob, 0.5f);

  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = prob->At(i, 0);
  return out;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic inverted dropout over gathered embedding rows. The mask
/// for element j of user u on tower side `role` is a pure function of
/// (seed, u, role, j): batch position, duplicate occurrences of a user,
/// and shard layout all see the same mask, which is what makes the
/// MC-dropout scores identical across the monolithic and sharded plans.
void ApplyInputDropout(tensor::Matrix* emb, const std::vector<int>& users,
                       int role, float rate, uint64_t seed) {
  AHNTP_CHECK(rate > 0.0f && rate < 1.0f)
      << "dropout rate must lie in (0, 1), got " << rate;
  const float inv_keep = 1.0f / (1.0f - rate);
  const double rate_d = static_cast<double>(rate);
  for (size_t i = 0; i < emb->rows(); ++i) {
    const uint64_t user_key = SplitMix64(
        seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(users[i])) * 2 +
                static_cast<uint64_t>(role)));
    float* row = emb->RowPtr(i);
    for (size_t j = 0; j < emb->cols(); ++j) {
      const uint64_t h = SplitMix64(user_key + j);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      row[j] = u < rate_d ? 0.0f : row[j] * inv_keep;
    }
  }
}

void RecordWorkspaceBytes(const tensor::Workspace& ws) {
  if (metrics::Enabled()) {
    static metrics::Gauge& ws_bytes =
        metrics::GetGauge("infer.workspace_bytes");
    ws_bytes.Set(static_cast<double>(ws.bytes()));
  }
}

}  // namespace

const char* PlanPrecisionName(PlanPrecision precision) {
  switch (precision) {
    case PlanPrecision::kFloat32:
      return "fp32";
    case PlanPrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

InferencePlan::InferencePlan(TrustPredictor* predictor)
    : predictor_(predictor) {
  AHNTP_CHECK(predictor_ != nullptr);
}

Status InferencePlan::EnsureBuilt() {
  if (built_) {
    AHNTP_METRIC_COUNT("infer.cache_hits", 1);
    return Status::Ok();
  }
  AHNTP_METRIC_COUNT("infer.cache_misses", 1);
  AHNTP_METRIC_COUNT("infer.plan_builds", 1);
  // The all-user encode needs per-layer buffers far larger than the scoring
  // chain; a throwaway arena keeps that storage from lingering in ws_.
  tensor::Workspace encode_ws;
  embeddings_ = predictor_->encoder().InferUsers(&encode_ws);
  if (precision_ == PlanPrecision::kInt8) {
    if (has_external_calib_) {
      AHNTP_RETURN_IF_ERROR(
          tensor::ValidateCalibration(calib_, embeddings_.rows()));
    } else {
      // Self-calibration over the encoder's own activations (the embedding
      // table is exactly what flows into the scoring towers).
      auto calib = tensor::CalibrateRowAbsmax(embeddings_);
      AHNTP_RETURN_IF_ERROR(calib.status());
      calib_ = std::move(calib).value();
    }
    qembeddings_ = tensor::QuantizedMatrix::Quantize(embeddings_, calib_);
    embeddings_ = tensor::Matrix();  // the fp32 table is dead weight now
    AHNTP_METRIC_COUNT("infer.quantized_builds", 1);
  } else {
    qembeddings_ = tensor::QuantizedMatrix();
  }
  built_ = true;
  return Status::Ok();
}

void InferencePlan::SetPrecision(PlanPrecision precision) {
  if (precision_ == precision) return;
  precision_ = precision;
  Invalidate();
}

Status InferencePlan::SetCalibration(tensor::RowCalibration calib) {
  // Build first so the live table's row count is known for validation.
  AHNTP_RETURN_IF_ERROR(EnsureBuilt());
  const size_t rows = precision_ == PlanPrecision::kInt8
                          ? qembeddings_.rows()
                          : embeddings_.rows();
  AHNTP_RETURN_IF_ERROR(tensor::ValidateCalibration(calib, rows));
  calib_ = std::move(calib);
  has_external_calib_ = true;
  Invalidate();  // recalibration requantizes at the next Score()
  return Status::Ok();
}

size_t InferencePlan::embedding_bytes() const {
  return precision_ == PlanPrecision::kInt8
             ? qembeddings_.bytes()
             : embeddings_.size() * sizeof(float);
}

std::vector<float> InferencePlan::Score(
    const std::vector<data::TrustPair>& pairs) {
  return ScoreImpl(pairs, -1.0f, 0);
}

std::vector<float> InferencePlan::ScoreWithInputDropout(
    const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed) {
  AHNTP_CHECK(rate > 0.0f && rate < 1.0f)
      << "dropout rate must lie in (0, 1), got " << rate;
  return ScoreImpl(pairs, rate, seed);
}

std::vector<float> InferencePlan::ScoreImpl(
    const std::vector<data::TrustPair>& pairs, float dropout_rate,
    uint64_t dropout_seed) {
  AHNTP_CHECK(!pairs.empty());
  AHNTP_CHECK_OK(EnsureBuilt());
  ws_.Reset();
  const size_t n = pairs.size();
  src_idx_.clear();
  dst_idx_.clear();
  src_idx_.reserve(n);
  dst_idx_.reserve(n);
  for (const data::TrustPair& p : pairs) {
    src_idx_.push_back(p.src);
    dst_idx_.push_back(p.dst);
  }

  using tensor::Matrix;
  const size_t d = precision_ == PlanPrecision::kInt8 ? qembeddings_.cols()
                                                      : embeddings_.cols();
  Matrix* src_emb = ws_.Acquire(n, d);
  Matrix* dst_emb = ws_.Acquire(n, d);
  if (precision_ == PlanPrecision::kInt8) {
    qembeddings_.GatherDequantizeInto(src_emb, src_idx_);
    qembeddings_.GatherDequantizeInto(dst_emb, dst_idx_);
  } else {
    tensor::GatherRowsInto(src_emb, embeddings_, src_idx_);
    tensor::GatherRowsInto(dst_emb, embeddings_, dst_idx_);
  }
  if (dropout_rate > 0.0f) {
    ApplyInputDropout(src_emb, src_idx_, /*role=*/0, dropout_rate,
                      dropout_seed);
    ApplyInputDropout(dst_emb, dst_idx_, /*role=*/1, dropout_rate,
                      dropout_seed);
  }
  std::vector<float> out = RunScoringChain(*predictor_, &ws_, *src_emb, *dst_emb);
  ws_.Reset();
  RecordWorkspaceBytes(ws_);
  return out;
}

// ---------------------------------------------------------------------------
// ShardEmbeddingStore
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kBlockMagic = 0x42534841u;       // "AHSB" little-endian
constexpr uint32_t kQuantBlockMagic = 0x51534841u;  // "AHSQ" little-endian

void AppendU32(std::string* buf, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  buf->append(bytes, sizeof(v));
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

ShardEmbeddingStore::ShardEmbeddingStore(graph::UserSharding sharding,
                                         size_t dim, std::string spill_dir,
                                         int max_resident,
                                         PlanPrecision precision)
    : sharding_(std::move(sharding)),
      dim_(dim),
      spill_dir_(std::move(spill_dir)),
      max_resident_(max_resident),
      precision_(precision) {
  AHNTP_CHECK_GE(max_resident_, 1) << "resident-shard cap must be positive";
  AHNTP_CHECK_GT(dim_, 0u);
  AHNTP_CHECK(!spill_dir_.empty()) << "shard store needs a spill directory";
}

std::string ShardEmbeddingStore::BlockPath(int shard) const {
  return spill_dir_ + "/shard_" + std::to_string(shard) + ".emb";
}

Status ShardEmbeddingStore::SpillShard(int shard, const tensor::Matrix& rows) {
  trace::TraceSpan span("infer.shard.spill");
  AHNTP_CHECK(precision_ == PlanPrecision::kFloat32)
      << "float spill into an int8 store";
  if (shard < 0 || shard >= sharding_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding_.num_shards()));
  }
  const std::vector<int>& owned = sharding_.UsersOf(shard);
  if (rows.rows() != owned.size() || rows.cols() != dim_) {
    return Status::InvalidArgument(StrFormat(
        "shard %d block must be %zux%zu, got %zux%zu", shard, owned.size(),
        dim_, rows.rows(), rows.cols()));
  }
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create spill directory " + spill_dir_ +
                           ": " + ec.message());
  }
  const size_t payload_bytes = rows.size() * sizeof(float);
  std::string buf;
  buf.reserve(16 + payload_bytes + 4);
  AppendU32(&buf, kBlockMagic);
  AppendU32(&buf, static_cast<uint32_t>(shard));
  AppendU32(&buf, static_cast<uint32_t>(rows.rows()));
  AppendU32(&buf, static_cast<uint32_t>(rows.cols()));
  buf.append(reinterpret_cast<const char*>(rows.data()), payload_bytes);
  AppendU32(&buf, Crc32(rows.data(), payload_bytes));
  AHNTP_RETURN_IF_ERROR(WriteFileAtomic(BlockPath(shard), buf));
  // The on-disk block is now the truth; a resident copy of the old
  // generation must not serve.
  auto it = resident_.find(shard);
  if (it != resident_.end()) {
    resident_.erase(it);
    lru_.remove(shard);
  }
  return Status::Ok();
}

Status ShardEmbeddingStore::SpillAll(const tensor::Matrix& embeddings) {
  if (embeddings.rows() != sharding_.num_users() || embeddings.cols() != dim_) {
    return Status::InvalidArgument(StrFormat(
        "embedding table must be %zux%zu, got %zux%zu", sharding_.num_users(),
        dim_, embeddings.rows(), embeddings.cols()));
  }
  for (int s = 0; s < sharding_.num_shards(); ++s) {
    const std::vector<int>& owned = sharding_.UsersOf(s);
    tensor::Matrix block(owned.size(), dim_);
    for (size_t r = 0; r < owned.size(); ++r) {
      std::memcpy(block.RowPtr(r),
                  embeddings.RowPtr(static_cast<size_t>(owned[r])),
                  dim_ * sizeof(float));
    }
    AHNTP_RETURN_IF_ERROR(SpillShard(s, block));
  }
  resident_.clear();
  lru_.clear();
  if (metrics::Enabled()) {
    metrics::GetGauge("infer.shard_resident_bytes").Set(0.0);
  }
  return Status::Ok();
}

Status ShardEmbeddingStore::SpillQuantShard(int shard,
                                            const tensor::QuantizedMatrix& rows) {
  trace::TraceSpan span("infer.shard.spill");
  AHNTP_CHECK(precision_ == PlanPrecision::kInt8)
      << "int8 spill into a float store";
  if (shard < 0 || shard >= sharding_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding_.num_shards()));
  }
  const std::vector<int>& owned = sharding_.UsersOf(shard);
  if (rows.rows() != owned.size() || rows.cols() != dim_) {
    return Status::InvalidArgument(StrFormat(
        "shard %d block must be %zux%zu, got %zux%zu", shard, owned.size(),
        dim_, rows.rows(), rows.cols()));
  }
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create spill directory " + spill_dir_ +
                           ": " + ec.message());
  }
  // Layout: header | scales (rows x f32) | payload (rows x cols x i8) | CRC
  // over scales + payload, so a flipped scale bit is caught exactly like a
  // flipped payload bit.
  const size_t scales_bytes = rows.rows() * sizeof(float);
  const size_t payload_bytes = rows.rows() * rows.cols() * sizeof(int8_t);
  std::string buf;
  buf.reserve(16 + scales_bytes + payload_bytes + 4);
  AppendU32(&buf, kQuantBlockMagic);
  AppendU32(&buf, static_cast<uint32_t>(shard));
  AppendU32(&buf, static_cast<uint32_t>(rows.rows()));
  AppendU32(&buf, static_cast<uint32_t>(rows.cols()));
  buf.append(reinterpret_cast<const char*>(rows.scales().data()),
             scales_bytes);
  buf.append(reinterpret_cast<const char*>(rows.data()), payload_bytes);
  AppendU32(&buf, Crc32(buf.data() + 16, scales_bytes + payload_bytes));
  AHNTP_RETURN_IF_ERROR(WriteFileAtomic(BlockPath(shard), buf));
  auto it = qresident_.find(shard);
  if (it != qresident_.end()) {
    qresident_.erase(it);
    lru_.remove(shard);
  }
  return Status::Ok();
}

Status ShardEmbeddingStore::SpillAllQuantized(
    const tensor::Matrix& embeddings, const tensor::RowCalibration& calib) {
  if (embeddings.rows() != sharding_.num_users() || embeddings.cols() != dim_) {
    return Status::InvalidArgument(StrFormat(
        "embedding table must be %zux%zu, got %zux%zu", sharding_.num_users(),
        dim_, embeddings.rows(), embeddings.cols()));
  }
  AHNTP_RETURN_IF_ERROR(
      tensor::ValidateCalibration(calib, embeddings.rows()));
  for (int s = 0; s < sharding_.num_shards(); ++s) {
    const std::vector<int>& owned = sharding_.UsersOf(s);
    tensor::Matrix block(owned.size(), dim_);
    tensor::RowCalibration block_calib;
    block_calib.absmax.resize(owned.size());
    for (size_t r = 0; r < owned.size(); ++r) {
      std::memcpy(block.RowPtr(r),
                  embeddings.RowPtr(static_cast<size_t>(owned[r])),
                  dim_ * sizeof(float));
      block_calib.absmax[r] = calib.absmax[static_cast<size_t>(owned[r])];
    }
    AHNTP_RETURN_IF_ERROR(SpillQuantShard(
        s, tensor::QuantizedMatrix::Quantize(block, block_calib)));
  }
  qresident_.clear();
  lru_.clear();
  if (metrics::Enabled()) {
    metrics::GetGauge("infer.shard_resident_bytes").Set(0.0);
  }
  return Status::Ok();
}

void ShardEmbeddingStore::Touch(int shard) {
  lru_.remove(shard);
  lru_.push_front(shard);
}

void ShardEmbeddingStore::EvictPastCap() {
  while (num_resident() >= max_resident_) {
    int victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
    qresident_.erase(victim);
    AHNTP_METRIC_COUNT("infer.shard_evictions", 1);
  }
}

size_t ShardEmbeddingStore::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& [shard, block] : resident_) {
    bytes += block.size() * sizeof(float);
  }
  for (const auto& [shard, block] : qresident_) {
    bytes += block.bytes();
  }
  return bytes;
}

Result<const tensor::Matrix*> ShardEmbeddingStore::Block(int shard) {
  AHNTP_CHECK(precision_ == PlanPrecision::kFloat32)
      << "Block() on an int8 store; use QuantBlock()";
  if (shard < 0 || shard >= sharding_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding_.num_shards()));
  }
  auto it = resident_.find(shard);
  if (it != resident_.end()) {
    AHNTP_METRIC_COUNT("infer.shard_hits", 1);
    Touch(shard);
    return &it->second;
  }

  trace::TraceSpan span("infer.shard.fault");
  AHNTP_METRIC_COUNT("infer.shard_faults", 1);
  std::string buf;
  AHNTP_RETURN_IF_ERROR(ReadFileToString(BlockPath(shard), &buf));
  const size_t rows = sharding_.UsersOf(shard).size();
  const size_t payload_bytes = rows * dim_ * sizeof(float);
  if (buf.size() != 16 + payload_bytes + 4 ||
      ReadU32(buf.data()) != kBlockMagic ||
      ReadU32(buf.data() + 4) != static_cast<uint32_t>(shard) ||
      ReadU32(buf.data() + 8) != static_cast<uint32_t>(rows) ||
      ReadU32(buf.data() + 12) != static_cast<uint32_t>(dim_)) {
    return Status::Corruption("bad shard block header: " + BlockPath(shard));
  }
  if (ReadU32(buf.data() + 16 + payload_bytes) !=
      Crc32(buf.data() + 16, payload_bytes)) {
    return Status::Corruption("shard block CRC mismatch: " + BlockPath(shard));
  }
  tensor::Matrix block(rows, dim_);
  std::memcpy(block.data(), buf.data() + 16, payload_bytes);

  EvictPastCap();
  auto [inserted, ok] = resident_.emplace(shard, std::move(block));
  AHNTP_CHECK(ok);
  lru_.push_front(shard);
  if (metrics::Enabled()) {
    metrics::GetGauge("infer.shard_resident_bytes")
        .Set(static_cast<double>(resident_bytes()));
  }
  return &inserted->second;
}

Result<const tensor::QuantizedMatrix*> ShardEmbeddingStore::QuantBlock(
    int shard) {
  AHNTP_CHECK(precision_ == PlanPrecision::kInt8)
      << "QuantBlock() on a float store; use Block()";
  if (shard < 0 || shard >= sharding_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding_.num_shards()));
  }
  auto it = qresident_.find(shard);
  if (it != qresident_.end()) {
    AHNTP_METRIC_COUNT("infer.shard_hits", 1);
    Touch(shard);
    return &it->second;
  }

  trace::TraceSpan span("infer.shard.fault");
  AHNTP_METRIC_COUNT("infer.shard_faults", 1);
  std::string buf;
  AHNTP_RETURN_IF_ERROR(ReadFileToString(BlockPath(shard), &buf));
  const size_t rows = sharding_.UsersOf(shard).size();
  const size_t scales_bytes = rows * sizeof(float);
  const size_t payload_bytes = rows * dim_ * sizeof(int8_t);
  if (buf.size() != 16 + scales_bytes + payload_bytes + 4 ||
      ReadU32(buf.data()) != kQuantBlockMagic ||
      ReadU32(buf.data() + 4) != static_cast<uint32_t>(shard) ||
      ReadU32(buf.data() + 8) != static_cast<uint32_t>(rows) ||
      ReadU32(buf.data() + 12) != static_cast<uint32_t>(dim_)) {
    return Status::Corruption("bad quant block header: " + BlockPath(shard));
  }
  if (ReadU32(buf.data() + 16 + scales_bytes + payload_bytes) !=
      Crc32(buf.data() + 16, scales_bytes + payload_bytes)) {
    return Status::Corruption("quant block CRC mismatch: " +
                              BlockPath(shard));
  }
  std::vector<float> scales(rows);
  std::memcpy(scales.data(), buf.data() + 16, scales_bytes);
  std::vector<int8_t> data(rows * dim_);
  std::memcpy(data.data(), buf.data() + 16 + scales_bytes, payload_bytes);
  tensor::QuantizedMatrix block = tensor::QuantizedMatrix::FromParts(
      rows, dim_, std::move(data), std::move(scales));

  EvictPastCap();
  auto [inserted, ok] = qresident_.emplace(shard, std::move(block));
  AHNTP_CHECK(ok);
  lru_.push_front(shard);
  if (metrics::Enabled()) {
    metrics::GetGauge("infer.shard_resident_bytes")
        .Set(static_cast<double>(resident_bytes()));
  }
  return &inserted->second;
}

Status ShardEmbeddingStore::CopyUserRow(int user, float* out) {
  const int shard = sharding_.ShardOf(user);
  const std::vector<int>& owned = sharding_.UsersOf(shard);
  auto it = std::lower_bound(owned.begin(), owned.end(), user);
  AHNTP_CHECK(it != owned.end() && *it == user);
  const size_t row = static_cast<size_t>(it - owned.begin());
  if (precision_ == PlanPrecision::kInt8) {
    auto block = QuantBlock(shard);
    AHNTP_RETURN_IF_ERROR(block.status());
    // Same q * scale product a monolithic int8 plan computes, so the
    // sharded and monolithic int8 paths stay bitwise-identical.
    block.value()->DequantizeRowInto(row, out);
    return Status::Ok();
  }
  auto block = Block(shard);
  AHNTP_RETURN_IF_ERROR(block.status());
  std::memcpy(out, block.value()->RowPtr(row), dim_ * sizeof(float));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ShardedInferencePlan
// ---------------------------------------------------------------------------

ShardedInferencePlan::ShardedInferencePlan(TrustPredictor* predictor,
                                           ShardedPlanOptions options)
    : predictor_(predictor), options_(std::move(options)) {
  AHNTP_CHECK(predictor_ != nullptr);
  AHNTP_CHECK_GE(options_.num_shards, 1);
  AHNTP_CHECK(!options_.spill_dir.empty())
      << "sharded inference needs a spill directory";
  // A unique subdirectory per plan instance: a staged reload's freshly
  // spilled blocks must never be faulted in by the still-serving plan of
  // the previous generation. The pid keeps concurrent processes sharing a
  // spill_dir (parallel test runners) from colliding on plan_0.
  static std::atomic<uint64_t> plan_counter{0};
  plan_spill_dir_ =
      options_.spill_dir + "/plan_" + std::to_string(::getpid()) + "_" +
      std::to_string(plan_counter.fetch_add(1, std::memory_order_relaxed));
}

Status ShardedInferencePlan::EnsureBuilt() {
  if (built_) {
    AHNTP_METRIC_COUNT("infer.cache_hits", 1);
    return Status::Ok();
  }
  trace::TraceSpan span("infer.shard.plan_build");
  AHNTP_METRIC_COUNT("infer.cache_misses", 1);
  AHNTP_METRIC_COUNT("infer.shard_plan_builds", 1);
  // Encode into a throwaway arena (as InferencePlan does), then spill the
  // table and let it die with this scope — steady state holds at most
  // max_resident_shards blocks.
  tensor::Matrix embeddings;
  {
    tensor::Workspace encode_ws;
    embeddings = predictor_->encoder().InferUsers(&encode_ws);
  }
  auto sharding = graph::UserSharding::Create(
      embeddings.rows(),
      {.num_shards = options_.num_shards, .mode = options_.mode});
  AHNTP_RETURN_IF_ERROR(sharding.status());
  const int max_resident = options_.max_resident_shards > 0
                               ? options_.max_resident_shards
                               : MaxResidentShards();
  store_ = std::make_unique<ShardEmbeddingStore>(
      std::move(sharding).value(), embeddings.cols(), plan_spill_dir_,
      max_resident, options_.precision);
  if (options_.precision == PlanPrecision::kInt8) {
    if (has_external_calib_) {
      AHNTP_RETURN_IF_ERROR(
          tensor::ValidateCalibration(calib_, embeddings.rows()));
    } else {
      auto calib = tensor::CalibrateRowAbsmax(embeddings);
      AHNTP_RETURN_IF_ERROR(calib.status());
      calib_ = std::move(calib).value();
    }
    AHNTP_RETURN_IF_ERROR(store_->SpillAllQuantized(embeddings, calib_));
    AHNTP_METRIC_COUNT("infer.quantized_builds", 1);
  } else {
    AHNTP_RETURN_IF_ERROR(store_->SpillAll(embeddings));
  }
  built_ = true;
  return Status::Ok();
}

void ShardedInferencePlan::SetPrecision(PlanPrecision precision) {
  if (options_.precision == precision) return;
  options_.precision = precision;
  Invalidate();
}

Status ShardedInferencePlan::SetCalibration(tensor::RowCalibration calib) {
  AHNTP_RETURN_IF_ERROR(EnsureBuilt());
  AHNTP_RETURN_IF_ERROR(tensor::ValidateCalibration(
      calib, static_cast<size_t>(store_->sharding().num_users())));
  calib_ = std::move(calib);
  has_external_calib_ = true;
  Invalidate();
  return Status::Ok();
}

Result<std::vector<float>> ShardedInferencePlan::Score(
    const std::vector<data::TrustPair>& pairs) {
  return ScoreImpl(pairs, -1.0f, 0);
}

Result<std::vector<float>> ShardedInferencePlan::ScoreWithInputDropout(
    const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed) {
  AHNTP_CHECK(rate > 0.0f && rate < 1.0f)
      << "dropout rate must lie in (0, 1), got " << rate;
  return ScoreImpl(pairs, rate, seed);
}

Result<std::vector<float>> ShardedInferencePlan::ScoreImpl(
    const std::vector<data::TrustPair>& pairs, float dropout_rate,
    uint64_t dropout_seed) {
  AHNTP_CHECK(!pairs.empty());
  AHNTP_RETURN_IF_ERROR(EnsureBuilt());
  ws_.Reset();
  const size_t n = pairs.size();
  const size_t d = store_->dim();
  using tensor::Matrix;
  // Same arena discipline as InferencePlan::Score: the gathered inputs are
  // filled row-by-row from the resident blocks instead of GatherRowsInto,
  // which copies the identical float32 values.
  Matrix* src_emb = ws_.Acquire(n, d);
  Matrix* dst_emb = ws_.Acquire(n, d);
  std::vector<int> src_users(n), dst_users(n);
  for (size_t i = 0; i < n; ++i) {
    src_users[i] = pairs[i].src;
    dst_users[i] = pairs[i].dst;
    AHNTP_RETURN_IF_ERROR(store_->CopyUserRow(pairs[i].src, src_emb->RowPtr(i)));
    AHNTP_RETURN_IF_ERROR(store_->CopyUserRow(pairs[i].dst, dst_emb->RowPtr(i)));
  }
  if (dropout_rate > 0.0f) {
    ApplyInputDropout(src_emb, src_users, /*role=*/0, dropout_rate,
                      dropout_seed);
    ApplyInputDropout(dst_emb, dst_users, /*role=*/1, dropout_rate,
                      dropout_seed);
  }
  std::vector<float> out = RunScoringChain(*predictor_, &ws_, *src_emb, *dst_emb);
  ws_.Reset();
  RecordWorkspaceBytes(ws_);
  return out;
}

}  // namespace ahntp::models
