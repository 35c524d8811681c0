#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/dynamic_pipeline.h"
#include "core/model_zoo.h"
#include "core/trainer.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "serve/backend.h"
#include "serve/dynamic.h"
#include "serve/server.h"

#include "loadgen.h"
#include "placement.h"
#include "probe.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace ahntp;

const std::vector<size_t> kHiddenDims = {64, 32, 16};
/// The compute pool's size: with the generator and the dispatcher, four
/// threads, one per CPU of the machine the benchmark was tuned on.
constexpr int kThreads = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Each second of --seconds is one slice: `open_frac` of it open loop,
/// then `capacity_frac` of it closed loop on the same server. The first
/// slice warms the caches and is left out of every figure. Read
/// percentiles and capacity are medians over the slices, so the figures
/// sample the whole run, not one stretch of it.
constexpr double kSliceS = 1.0;
/// The sharded plan: 8 shards, 2 resident, so the working set is 4x the
/// resident budget.
constexpr int kShards = 8;
constexpr int kResidentShards = 2;
/// Zipf exponent of the skewed workloads' keys.
constexpr double kZipfExponent = 1.0;
/// Reads in flight in the closed loop: four full batches, so the
/// dispatcher always finds one waiting. Each closed-loop slice is cut into
/// windows; the first is warm-up, capacity is the median rate of the rest
/// over all slices.
constexpr int kOutstanding = 128;
constexpr int kCapacityWindows = 4;
/// Epochs of the replayed Fit that checks training determinism, and of the
/// traced bench-side copy of Fit's epoch.
constexpr int kReplayEpochs = 2;
/// test_auc after training must beat chance; seeds 1-20 gave 0.53-0.75.
constexpr double kAucFloor = 0.5;

/// Sub-seeds of the run seed, one per input stream.
struct Seeds {
  explicit Seeds(uint64_t seed)
      : dataset(1'000'003 * seed + 4104),
        split(7 + 31 * seed),
        model(11 + 131 * seed),
        traffic(0x9E3779B97F4A7C15ull ^ (seed * 0x100000001B3ull)),
        keys(97 + 7919 * seed),
        deltas(20240717 + seed),
        trainer(123 + seed) {}
  uint64_t dataset, split, model, traffic, keys, deltas, trainer;
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint32_t Bits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t PairKey(int src, int dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

/// The model and everything it was built from. Heap-allocated and never
/// moved: models and backends keep pointers into it.
struct World {
  data::SocialDataset dataset;
  data::TrustSplit split;
  std::optional<graph::Digraph> train_graph;
  tensor::Matrix features;
  models::ModelInputs inputs;  // points into this World, rng unset
  std::unique_ptr<Rng> rng;
  std::unique_ptr<serve::ModelBackend> model;
  std::optional<core::DynamicTrustPipeline> pipeline;
  std::unique_ptr<serve::DynamicBackend> dynamic;
  std::unique_ptr<serve::HeuristicBackend> fallback;

  double generate_s = 0.0;
  double create_s = 0.0;
  double plan_ms = 0.0;
};

/// A predictor together with the Rng its dropout keeps drawing from.
struct SeededPredictor {
  std::unique_ptr<Rng> rng;
  std::unique_ptr<models::TrustPredictor> predictor;
};

SeededPredictor CreateSeeded(const models::ModelInputs& base, uint64_t seed) {
  SeededPredictor out;
  out.rng = std::make_unique<Rng>(seed);
  models::ModelInputs inputs = base;
  inputs.rng = out.rng.get();
  auto created = core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{});
  AHNTP_CHECK(created.ok()) << created.status().ToString();
  out.predictor = std::move(created).value();
  return out;
}

serve::ModelBackend::Factory NoReloadFactory() {
  return []() -> std::unique_ptr<models::TrustPredictor> {
    AHNTP_CHECK(false) << "the benchmark never hot-reloads";
    return nullptr;
  };
}

/// Wraps `predictor` in the workload's ModelBackend; the constructor warms
/// the plan (encode, and for a sharded plan spill), which is timed.
void ServeModel(const WorkloadSpec& spec, const RunOptions& options,
                std::unique_ptr<models::TrustPredictor> predictor,
                World* world) {
  std::optional<models::ShardedPlanOptions> sharded;
  if (spec.backend == BackendKind::kSharded) {
    models::ShardedPlanOptions plan;
    plan.num_shards = kShards;
    plan.max_resident_shards = kResidentShards;
    plan.spill_dir = options.work_dir + "/spill";
    sharded = plan;
  }
  const int64_t start = NowNs();
  world->model = std::make_unique<serve::ModelBackend>(
      NoReloadFactory(), std::move(predictor), sharded);
  world->plan_ms = SecondsSince(start) * 1e3;
}

std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec,
                                  const RunOptions& options,
                                  SeededPredictor* untrained) {
  const Seeds seeds(options.seed);
  auto world = std::make_unique<World>();
  int64_t start = NowNs();
  data::GeneratorConfig gen = data::GeneratorConfig::CiaoLike(spec.scale);
  gen.seed = seeds.dataset;
  world->dataset = data::SocialNetworkGenerator(gen).Generate();
  data::SplitOptions split;
  split.seed = seeds.split;
  world->split = data::MakeSplit(world->dataset, split);
  auto graph = world->dataset.GraphFromEdges(world->split.train_positive);
  AHNTP_CHECK(graph.ok()) << graph.status().ToString();
  world->train_graph = std::move(graph).value();
  world->features = data::BuildFeatureMatrix(world->dataset);
  world->inputs.features = &world->features;
  world->inputs.graph = &*world->train_graph;
  world->inputs.dataset = &world->dataset;
  world->inputs.hidden_dims = kHiddenDims;
  world->fallback = std::make_unique<serve::HeuristicBackend>(
      &*world->train_graph, models::Heuristic::kJaccard);
  world->generate_s = SecondsSince(start);

  start = NowNs();
  if (spec.backend == BackendKind::kDynamic) {
    core::DynamicPipelineOptions dyn;
    dyn.model.hidden_dims = kHiddenDims;
    dyn.seed = seeds.model;
    auto pipeline = core::DynamicTrustPipeline::Create(world->dataset, dyn);
    AHNTP_CHECK(pipeline.ok()) << pipeline.status().ToString();
    world->pipeline.emplace(std::move(pipeline).value());
    world->create_s = SecondsSince(start);
    start = NowNs();
    world->pipeline->predictor().WarmInferencePlan();
    world->plan_ms = SecondsSince(start) * 1e3;
    world->dynamic =
        std::make_unique<serve::DynamicBackend>(&*world->pipeline);
    return world;
  }
  SeededPredictor seeded = CreateSeeded(world->inputs, seeds.model);
  world->create_s = SecondsSince(start);
  if (spec.train_epochs > 0) {
    // Training workloads serve the trained model, whose plan is built once
    // training is done; set-up builds the seed model's, as elsewhere.
    start = NowNs();
    seeded.predictor->WarmInferencePlan();
    world->plan_ms = SecondsSince(start) * 1e3;
    *untrained = std::move(seeded);
    return world;
  }
  world->rng = std::move(seeded.rng);
  ServeModel(spec, options, std::move(seeded.predictor), world.get());
  return world;
}

/// Served scores per key. A key served twice with different bits is an
/// inconsistency on its own; Compare() then checks every key against a
/// reference predictor.
class ScoreLedger {
 public:
  bool Add(int src, int dst, float score) {
    auto [it, inserted] = scores_.emplace(PairKey(src, dst), Bits(score));
    if (!inserted && it->second != Bits(score)) ++conflicts_;
    return inserted || it->second == Bits(score);
  }

  /// Number of served keys whose bits differ from `reference`'s scores.
  int64_t Compare(models::TrustPredictor* reference) const {
    std::vector<data::TrustPair> pairs;
    pairs.reserve(scores_.size());
    for (const auto& [key, bits] : scores_) {
      pairs.push_back({static_cast<int>(key >> 32),
                       static_cast<int>(key & 0xffffffffu), 0.0f});
    }
    return Compare(pairs, reference->PredictProbabilities(pairs));
  }

  /// Number of served keys whose bits differ from `expected`, the scores
  /// of `pairs`; a served key outside `pairs` counts as a mismatch.
  int64_t Compare(const std::vector<data::TrustPair>& pairs,
                  const std::vector<float>& expected) const {
    std::unordered_map<uint64_t, uint32_t> want;
    for (size_t i = 0; i < pairs.size(); ++i) {
      want.emplace(PairKey(pairs[i].src, pairs[i].dst), Bits(expected[i]));
    }
    int64_t mismatches = 0;
    for (const auto& [key, bits] : scores_) {
      auto it = want.find(key);
      if (it == want.end() || it->second != bits) ++mismatches;
    }
    return mismatches;
  }

  int64_t conflicts() const { return conflicts_; }
  size_t keys() const { return scores_.size(); }

 private:
  std::unordered_map<uint64_t, uint32_t> scores_;
  int64_t conflicts_ = 0;
};

serve::ServeOptions SharedServeOptions() {
  // One configuration for every workload: score cache on, coalescing on,
  // strict lane (the TrustQuery default), heuristic fallback. The cache
  // holds a quarter of the ~4k held-out pairs, so Zipf traffic keeps a
  // steady share of misses instead of warming up once and never missing.
  serve::ServeOptions options;
  options.queue_capacity = 1024;
  options.max_batch_size = 32;
  options.coalesce = true;
  options.score_cache_entries = 1024;
  return options;
}

/// The closed loop that follows each open-loop slice of a phase.
struct CapacityPlan {
  KeySampler* sampler = nullptr;
  double seconds = 0.0;  // per slice
  std::function<bool(const ReadRecord&)> verify;
};

/// One phase against a fresh server (fresh score cache).
struct ServedPhase {
  OpenLoopResult loop;
  serve::ServerStats stats;
  std::vector<BatchRecord> batches;
  std::vector<ApplyRecord> applies;
  int64_t score_busy_ns = 0;
  /// Reads and writes of the slices after the warm-up.
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  /// The closed loops: counts summed over every slice, window rates from
  /// the slices after the warm-up.
  ClosedLoopResult capacity;
};

/// Offers `ops` in slices of `slice_s` of schedule; with `capacity` set, a
/// closed loop runs after each slice on the same server.
ServedPhase RunServedPhase(ProbedBackend* probe, serve::ScoreBackend* fallback,
                           bool writable, bool record,
                           const std::vector<Op>& ops,
                           const std::vector<graph::GraphDelta>* deltas,
                           double slice_s, const CapacityPlan* capacity) {
  ServedPhase phase;
  probe->set_recording(record);
  const int64_t busy_before = probe->score_busy_ns();
  const auto slice_ns = static_cast<int64_t>(slice_s * 1e9);
  phase.loop.reads.reserve(ops.size());
  phase.reads.reserve(ops.size());
  {
    serve::TrustServer server(SharedServeOptions(), probe, fallback,
                              writable ? probe : nullptr);
    Placement::Dispatcher();
    server.Start();
    Placement::Generator();
    {
      Ballast ballast;
      size_t begin = 0;
      for (int slice = 0; begin < ops.size(); ++slice) {
        const int64_t slice_start = slice * slice_ns;
        std::vector<Op> slice_ops;
        while (begin < ops.size() &&
               ops[begin].due_ns < slice_start + slice_ns) {
          slice_ops.push_back(ops[begin++]);
          slice_ops.back().due_ns -= slice_start;
        }
        OpenLoopResult part = RunOpenLoop(&server, slice_ops, deltas);
        const bool measured = slice > 0;
        if (slice == 0) phase.loop.start_ns = part.start_ns;
        phase.loop.end_ns = part.end_ns;
        for (ReadRecord& r : part.reads) {
          r.slice = slice;
          if (measured) phase.reads.push_back(r);
          phase.loop.reads.push_back(r);
        }
        for (const WriteRecord& w : part.writes) {
          if (measured) phase.writes.push_back(w);
          phase.loop.writes.push_back(w);
        }
        if (capacity == nullptr) continue;
        ClosedLoopResult closed =
            RunClosedLoop(&server, capacity->sampler, kOutstanding,
                          capacity->seconds, kCapacityWindows,
                          capacity->verify);
        phase.capacity.mismatches += closed.mismatches;
        phase.capacity.attempted += closed.attempted;
        phase.capacity.ok += closed.ok;
        if (!measured) continue;
        phase.capacity.window_qps.insert(phase.capacity.window_qps.end(),
                                         closed.window_qps.begin(),
                                         closed.window_qps.end());
      }
    }
    Placement::Any();
    server.Shutdown();
    phase.stats = server.Stats();
  }
  probe->set_recording(false);
  phase.batches = probe->TakeBatches();
  phase.applies = probe->TakeApplies();
  phase.score_busy_ns = probe->score_busy_ns() - busy_before;
  return phase;
}

/// Read latencies from the due time; a read that was not answered counts
/// as infinitely late, so it misses every limit.
std::vector<double> ReadLatencies(const std::vector<ReadRecord>& reads) {
  std::vector<double> out;
  out.reserve(reads.size());
  for (const ReadRecord& r : reads) {
    out.push_back(r.ok ? r.LatencyMs()
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Read latencies grouped by the slice each read was due in.
std::vector<std::vector<double>> LatencyWindows(
    const std::vector<ReadRecord>& reads) {
  std::vector<std::vector<double>> windows;
  for (const ReadRecord& r : reads) {
    if (static_cast<size_t>(r.slice) >= windows.size()) {
      windows.resize(static_cast<size_t>(r.slice) + 1);
    }
    windows[static_cast<size_t>(r.slice)].push_back(
        r.ok ? r.LatencyMs() : std::numeric_limits<double>::infinity());
  }
  return windows;
}

/// Per-read stages of a traced phase, in ms, cut so that each read's
/// stages add up to its latency: generator lateness, the part of Submit
/// before its backend call began, queue wait, the backend call, and
/// completion. A read is matched to the first backend call that carried
/// its key and ended after it was submitted; reads answered inside Submit
/// from the cache have no backend stages.
struct Stages {
  /// Parallel per read: the five stages and their sum, the read's latency.
  std::vector<double> lateness, submit, queue, score, complete, total;
  /// Only reads that reached a backend call.
  std::vector<double> matched_queue, matched_complete;
};

Stages SplitStages(const std::vector<ReadRecord>& reads,
                   const std::vector<BatchRecord>& batches) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_key;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const data::TrustPair& p : batches[b].pairs) {
      by_key[PairKey(p.src, p.dst)].push_back(b);
    }
  }
  auto ms = [](int64_t ns) { return std::max<int64_t>(ns, 0) * 1e-6; };
  Stages s;
  for (const ReadRecord& r : reads) {
    if (!r.ok) continue;
    const int64_t resolved = r.ResolvedNs();
    const BatchRecord* batch = nullptr;
    if (!r.cached || r.coalesced) {
      auto it = by_key.find(PairKey(r.src, r.dst));
      if (it != by_key.end()) {
        auto found = std::lower_bound(
            it->second.begin(), it->second.end(), r.submit_start_ns,
            [&](size_t b, int64_t t) { return batches[b].end_ns < t; });
        if (found != it->second.end() &&
            batches[*found].start_ns <= resolved) {
          batch = &batches[*found];
        }
      }
    }
    s.lateness.push_back(ms(r.submit_start_ns - r.due_ns));
    s.total.push_back(r.LatencyMs());
    if (batch == nullptr) {
      s.submit.push_back(
          ms(std::min(r.submit_end_ns, resolved) - r.submit_start_ns));
      s.queue.push_back(ms(resolved - r.submit_end_ns));
      s.score.push_back(0.0);
      s.complete.push_back(0.0);
      continue;
    }
    const double queue = ms(batch->start_ns - r.submit_end_ns);
    const double complete = ms(resolved - batch->end_ns);
    s.submit.push_back(
        ms(std::min(r.submit_end_ns, batch->start_ns) - r.submit_start_ns));
    s.queue.push_back(queue);
    s.score.push_back(
        ms(batch->end_ns - std::max(batch->start_ns, r.submit_start_ns)));
    s.complete.push_back(complete);
    s.matched_queue.push_back(queue);
    s.matched_complete.push_back(complete);
  }
  return s;
}

/// Sum of the per-stage medians over the reads whose latency lies between
/// the 40th and 60th percentile: where the median read's time went. (Over
/// all reads, medians of a mixture, such as cache hits beside reads stuck
/// behind a delta apply, need not add up to the median of the sums.)
double MedianReadStageSum(const Stages& s) {
  if (s.total.empty()) return 0.0;
  const double lo = Percentile(s.total, 0.4).value;
  const double hi = Percentile(s.total, 0.6).value;
  std::vector<double> lateness, submit, queue, score, complete;
  for (size_t i = 0; i < s.total.size(); ++i) {
    if (s.total[i] < lo || s.total[i] > hi) continue;
    lateness.push_back(s.lateness[i]);
    submit.push_back(s.submit[i]);
    queue.push_back(s.queue[i]);
    score.push_back(s.score[i]);
    complete.push_back(s.complete[i]);
  }
  return Median(lateness) + Median(submit) + Median(queue) + Median(score) +
         Median(complete);
}

/// Bench-side span log, written out as JSON lines when the run ends.
class SpanLog {
 public:
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request = -1) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  bool Write(const std::string& path, int64_t origin_ns) const {
    std::ofstream out(path);
    if (!out) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"dur_us\": %.3f, \"parent\": %lld, \"request\": %lld}\n",
                    i, s.name.c_str(), (s.start_ns - origin_ns) * 1e-3,
                    (s.end_ns - s.start_ns) * 1e-3,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.request));
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns, end_ns, parent, request;
  };
  std::vector<Span> spans_;
};

/// Adds a traced phase's spans to `log`: every backend call and apply, and
/// the request trees of the first thousand reads plus the twenty slowest.
void LogServedSpans(const ServedPhase& phase, SpanLog* log) {
  const int64_t root = log->Add("phase.open_loop", phase.loop.start_ns,
                                phase.loop.end_ns);
  for (const BatchRecord& b : phase.batches) {
    log->Add("models.score_batch", b.start_ns, b.end_ns, root);
  }
  for (const ApplyRecord& a : phase.applies) {
    log->Add("core.apply", a.start_ns, a.end_ns, root);
  }
  const std::vector<ReadRecord>& reads = phase.loop.reads;
  const size_t first = std::min<size_t>(reads.size(), 1000);
  std::vector<size_t> chosen(first);
  for (size_t i = 0; i < first; ++i) chosen[i] = i;
  std::vector<size_t> order(reads.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t slowest = std::min<size_t>(order.size(), 20);
  std::partial_sort(order.begin(), order.begin() + slowest, order.end(),
                    [&](size_t a, size_t b) {
                      return reads[a].LatencyMs() > reads[b].LatencyMs();
                    });
  for (size_t i = 0; i < slowest; ++i) {
    if (order[i] >= first) chosen.push_back(order[i]);
  }
  for (size_t i : chosen) {
    const ReadRecord& r = reads[i];
    const auto request = static_cast<int64_t>(i);
    const int64_t id =
        log->Add("read", r.due_ns, r.ResolvedNs(), root, request);
    log->Add("bench.late", r.due_ns, r.submit_start_ns, id, request);
    log->Add("serve.submit", r.submit_start_ns, r.submit_end_ns, id, request);
  }
}

/// Per-epoch timings and kernel counts of the bench-side training copy.
struct EpochBreakdown {
  std::vector<double> forward_ms, loss_ms, backward_ms, adam_ms;
  std::vector<double> losses;
  std::vector<double> matmul_calls, matmul_gflop, spmm_calls, spmm_gflop;
};

/// Anchor segments for the contrastive loss, built the way Trainer::Fit
/// builds them: pairs sharing a source user form one segment.
struct AnchorGroups {
  std::vector<int> anchors;
  size_t num_anchors = 0;
  std::vector<bool> is_positive;
  bool has_positive = false;
};

AnchorGroups GroupByAnchor(const std::vector<data::TrustPair>& batch) {
  AnchorGroups groups;
  std::unordered_map<int, int> ids;
  for (const data::TrustPair& p : batch) {
    auto [it, inserted] = ids.emplace(p.src, static_cast<int>(ids.size()));
    groups.anchors.push_back(it->second);
    const bool positive = p.label >= 0.5f;
    groups.is_positive.push_back(positive);
    groups.has_positive = groups.has_positive || positive;
  }
  groups.num_anchors = ids.size();
  return groups;
}

/// Kernel counters of one kind: matmul, or spmm including its transpose.
struct KernelCount {
  int64_t calls = 0;
  int64_t flops = 0;
};

KernelCount Kernels(bool sparse) {
  auto value = [](const char* name) {
    return metrics::GetCounter(name).Value();
  };
  if (!sparse) {
    return {value("tensor.matmul.calls"), value("tensor.matmul.flops")};
  }
  return {value("tensor.spmm.calls") + value("tensor.spmm_t.calls"),
          value("tensor.spmm.flops") + value("tensor.spmm_t.flops")};
}

/// Replays `epochs` full-batch epochs of Trainer::Fit from the same public
/// calls, timing each layer's part; the registry must be on for the kernel
/// counts. With an identically seeded model and config the losses equal
/// Fit's history bit for bit, which the caller checks.
EpochBreakdown TracedEpochs(models::TrustPredictor* model,
                            const std::vector<data::TrustPair>& train_pairs,
                            const core::TrainerConfig& config, int epochs,
                            SpanLog* log) {
  EpochBreakdown out;
  Rng rng(config.seed);
  nn::Adam optimizer(model->Parameters(), config.learning_rate, 0.9f, 0.999f,
                     1e-8f, config.weight_decay);
  std::vector<data::TrustPair> pairs = train_pairs;
  model->SetTraining(true);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    optimizer.set_learning_rate(config.learning_rate);
    rng.Shuffle(&pairs);
    std::vector<float> labels(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) labels[i] = pairs[i].label;
    const KernelCount dense = Kernels(false);
    const KernelCount sparse = Kernels(true);

    const int64_t t0 = NowNs();
    models::TrustPredictor::PairOutput forward = model->Forward(pairs);
    const int64_t t1 = NowNs();
    autograd::Variable bce =
        nn::BinaryCrossEntropy(forward.probability, labels);
    autograd::Variable loss = autograd::Scale(bce, config.lambda2);
    if (config.use_contrastive) {
      AnchorGroups groups = GroupByAnchor(pairs);
      if (groups.has_positive) {
        autograd::Variable contrastive = nn::SupervisedContrastiveLoss(
            forward.cosine, groups.anchors, groups.num_anchors,
            groups.is_positive, config.temperature);
        loss = autograd::Add(loss,
                             autograd::Scale(contrastive, config.lambda1));
      }
    }
    if (model->encoder().HasAuxLoss() && config.aux_loss_weight > 0.0f) {
      loss = autograd::Add(loss, autograd::Scale(model->encoder().AuxLoss(),
                                                 config.aux_loss_weight));
    }
    const int64_t t2 = NowNs();
    optimizer.ZeroGrad();
    loss.Backward();
    const int64_t t3 = NowNs();
    optimizer.Step();
    const int64_t t4 = NowNs();

    const int64_t id = log->Add("train.epoch", t0, t4);
    log->Add("models.forward", t0, t1, id);
    log->Add("nn.loss", t1, t2, id);
    log->Add("autograd.backward", t2, t3, id);
    log->Add("nn.adam_step", t3, t4, id);
    out.forward_ms.push_back((t1 - t0) * 1e-6);
    out.loss_ms.push_back((t2 - t1) * 1e-6);
    out.backward_ms.push_back((t3 - t2) * 1e-6);
    out.adam_ms.push_back((t4 - t3) * 1e-6);
    out.losses.push_back(loss.value().At(0, 0));
    const KernelCount dense_after = Kernels(false);
    const KernelCount sparse_after = Kernels(true);
    out.matmul_calls.push_back(
        static_cast<double>(dense_after.calls - dense.calls));
    out.matmul_gflop.push_back((dense_after.flops - dense.flops) * 1e-9);
    out.spmm_calls.push_back(
        static_cast<double>(sparse_after.calls - sparse.calls));
    out.spmm_gflop.push_back((sparse_after.flops - sparse.flops) * 1e-9);
  }
  model->SetTraining(false);
  return out;
}

std::string Format(const char* fmt, double a, double b = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b);
  return buffer;
}

class Reporter {
 public:
  explicit Reporter(RunReport* report) : report_(report) {}

  void Add(const std::string& name, const std::string& unit, double value) {
    report_->metrics.push_back({name, unit, value});
  }
  /// A percentile metric, with its sample count in the notes. Workloads
  /// without the samples report 0.
  void AddQuantile(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples, double q) {
    Quantile quantile = Percentile(samples, q);
    report_->notes.push_back(Describe(name.c_str(), quantile));
    Add(name, unit, quantile.count == 0 ? 0.0 : quantile.value);
  }
  /// A windowed percentile metric (WindowedPercentile), noted likewise.
  void AddWindowed(const std::string& name, const std::string& unit,
                   const std::vector<std::vector<double>>& windows, double q) {
    Quantile quantile = WindowedPercentile(windows, q);
    report_->notes.push_back(Describe(name.c_str(), quantile));
    Add(name, unit, quantile.count == 0 ? 0.0 : quantile.value);
  }
  /// The median of a few repeated measurements, with their count.
  void AddMedian(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples) {
    Note(name + ": median of " + std::to_string(samples.size()) +
         (samples.empty()
              ? std::string()
              : Format(", range %.6g to %.6g",
                       *std::min_element(samples.begin(), samples.end()),
                       *std::max_element(samples.begin(), samples.end()))));
    Add(name, unit, Median(samples));
  }
  void Fail(const std::string& what) {
    report_->correct = false;
    report_->failures.push_back(what);
  }
  void Note(const std::string& line) { report_->notes.push_back(line); }

 private:
  RunReport* report_;
};

}  // namespace

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  Reporter out(&report);
  SetNumThreads(kThreads);
  // Start the pool's workers now, on their own CPUs.
  Placement::Pool();
  ParallelFor(0, 4, 1, [](size_t, size_t) {});
  Placement::Any();
  metrics::Disable();
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  AHNTP_CHECK(!ec) << "cannot create " << options.work_dir;
  const Seeds seeds(options.seed);
  const int64_t origin = NowNs();
  SpanLog spans;

  // --- Set-up, several times; the last world is the one measured. -------
  std::vector<double> setup_s, generate_s, create_s, plan_ms;
  std::unique_ptr<World> world;
  SeededPredictor untrained;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    untrained = SeededPredictor();
    const int64_t start = NowNs();
    world = BuildWorld(spec, options, &untrained);
    setup_s.push_back(SecondsSince(start));
    spans.Add("setup", start, NowNs());
    generate_s.push_back(world->generate_s);
    create_s.push_back(world->create_s);
    plan_ms.push_back(world->plan_ms);
  }
  const std::vector<data::TrustPair>& test_pairs = world->split.test_pairs;
  const int num_users = static_cast<int>(world->dataset.num_users);

  // --- Training (train workloads) -----------------------------------------
  // One Fit from the seed is timed and then served; a second Fit from the
  // same seed, cut to its first epochs, must repeat the first one's losses.
  core::TrainerConfig train_config;
  train_config.epochs = std::max(spec.train_epochs, 1);
  train_config.patience = 0;  // early stopping off
  train_config.seed = seeds.trainer;
  std::vector<double> epoch_ms;
  std::vector<double> history;
  std::vector<float> trained_scores;  // the trained model on test_pairs
  int64_t train_attempted = 0;
  double test_auc = 0.0;
  if (spec.train_epochs > 0) {
    const int64_t start = NowNs();
    auto fit = core::Trainer(train_config)
                   .Fit(untrained.predictor.get(), world->split.train_pairs);
    const double fit_s = SecondsSince(start);
    spans.Add("train.fit", start, NowNs());
    AHNTP_CHECK(fit.ok()) << fit.status().ToString();
    epoch_ms.push_back(fit_s * 1e3 / train_config.epochs);
    for (const core::EpochStats& e : fit->history) history.push_back(e.loss);
    test_auc = core::Trainer(train_config)
                   .Evaluate(untrained.predictor.get(), test_pairs)
                   .auc;
    trained_scores = untrained.predictor->PredictProbabilities(test_pairs);

    core::TrainerConfig prefix_config = train_config;
    prefix_config.epochs = std::min(kReplayEpochs, train_config.epochs);
    SeededPredictor again = CreateSeeded(world->inputs, seeds.model);
    auto prefix = core::Trainer(prefix_config)
                      .Fit(again.predictor.get(), world->split.train_pairs);
    AHNTP_CHECK(prefix.ok()) << prefix.status().ToString();
    train_attempted = 2;
    for (const core::EpochStats& e : prefix->history) {
      if (static_cast<size_t>(e.epoch) >= history.size() ||
          e.loss != history[static_cast<size_t>(e.epoch)]) {
        out.Fail("two Fits from the same seed have different losses");
        break;
      }
    }
    out.Note(Format("test_auc %.6f (floor %.4f)", test_auc, kAucFloor));
    if (!(test_auc >= kAucFloor)) {
      out.Fail(Format("test_auc %.4f is below the floor %.4f", test_auc,
                      kAucFloor));
    }
    world->rng = std::move(untrained.rng);
    ServeModel(spec, options, std::move(untrained.predictor), world.get());
  }

  // --- Serving ------------------------------------------------------------
  serve::ScoreBackend* scores =
      world->model != nullptr
          ? static_cast<serve::ScoreBackend*>(world->model.get())
          : world->dynamic.get();
  serve::MutationSink* sink = world->dynamic.get();
  ProbedBackend probe(scores, sink);
  KeySampler sampler(&test_pairs, num_users, spec.keys, kZipfExponent,
                     seeds.keys);
  TrafficConfig traffic;
  traffic.read_rate = spec.read_rate;
  traffic.write_rate = sink != nullptr ? spec.write_rate : 0.0;
  traffic.seconds = options.seconds * spec.open_frac;
  traffic.seed = seeds.traffic;
  const std::vector<Op> ops = MakeSchedule(traffic, &sampler);
  int writes_per_phase = 0;
  for (const Op& op : ops) writes_per_phase += op.is_write ? 1 : 0;
  // The traced run replays the schedule twice more (spans, then the
  // registry); each replay's writes continue the delta stream.
  const int phases = options.trace ? 3 : 1;
  std::vector<graph::GraphDelta> deltas;
  if (writes_per_phase > 0) {
    data::DeltaStreamConfig stream;
    stream.num_deltas = static_cast<size_t>(writes_per_phase * phases);
    stream.seed = seeds.deltas;
    deltas = data::GenerateTrustDeltas(world->dataset, stream);
  }
  auto replay = [&](int phase) {
    std::vector<Op> shifted = ops;
    for (Op& op : shifted) {
      if (op.is_write) op.src += phase * writes_per_phase;
    }
    return shifted;
  };

  ScoreLedger ledger;
  const bool verify_reads = spec.backend != BackendKind::kDynamic;
  // The first phase, the only one of an untraced run, measures capacity in
  // a closed loop after each slice; its OK, non-degraded reads go through
  // the same ledger.
  CapacityPlan plan;
  plan.sampler = &sampler;
  plan.seconds = kSliceS * spec.capacity_frac;
  plan.verify = [&](const ReadRecord& r) {
    return !verify_reads || ledger.Add(r.src, r.dst, r.score);
  };
  auto serve_phase = [&](int phase, bool record) {
    ServedPhase served = RunServedPhase(
        &probe, world->fallback.get(), sink != nullptr, record, replay(phase),
        &deltas, kSliceS * spec.open_frac, phase == 0 ? &plan : nullptr);
    for (const ReadRecord& r : served.loop.reads) {
      if (r.ok && !r.degraded && verify_reads) {
        ledger.Add(r.src, r.dst, r.score);
      }
    }
    return served;
  };

  const ServedPhase measured = serve_phase(0, false);
  std::optional<ServedPhase> spanned, counted;
  const ClosedLoopResult& capacity = measured.capacity;
  EpochBreakdown epochs;
  if (options.trace) {
    spanned = serve_phase(1, true);
    LogServedSpans(*spanned, &spans);
    metrics::Enable();
    metrics::Reset();
    counted = serve_phase(2, true);
    if (spec.train_epochs > 0) {
      SeededPredictor copy = CreateSeeded(world->inputs, seeds.model);
      epochs = TracedEpochs(copy.predictor.get(), world->split.train_pairs,
                            train_config,
                            std::min(kReplayEpochs, train_config.epochs),
                            &spans);
      for (size_t e = 0; e < epochs.losses.size(); ++e) {
        if (e >= history.size() || epochs.losses[e] != history[e]) {
          out.Fail("the traced epoch copy does not reproduce Fit's losses");
          break;
        }
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // --- Correctness ----------------------------------------------------------
  std::vector<const ServedPhase*> served = {&measured};
  if (spanned) served.push_back(&*spanned);
  if (counted) served.push_back(&*counted);
  for (const ServedPhase* phase : served) {
    for (const WriteRecord& w : phase->loop.writes) {
      if (!w.ok) out.Fail("an admitted mutation was not applied");
    }
    if (phase->stats.mutations_applied !=
        static_cast<int64_t>(phase->loop.writes.size())) {
      out.Fail("mutations applied differ from mutations offered");
    }
  }
  if (ledger.conflicts() > 0 || capacity.mismatches > 0) {
    out.Fail("one key was served with two different scores");
  }
  if (verify_reads) {
    // read_hot: an identically seeded predictor; read_sharded: the same
    // seed on the monolithic fp32 plan; train: the trained model's own
    // PredictProbabilities, taken before it was handed to the server.
    int64_t mismatches = 0;
    if (spec.train_epochs > 0) {
      mismatches = ledger.Compare(test_pairs, trained_scores);
    } else {
      SeededPredictor fresh = CreateSeeded(world->inputs, seeds.model);
      mismatches = ledger.Compare(fresh.predictor.get());
    }
    out.Note(Format("verified %.0f served keys, %.0f mismatches",
                    static_cast<double>(ledger.keys()),
                    static_cast<double>(mismatches)));
    if (mismatches > 0) out.Fail("served scores differ from the reference");
  } else {
    auto rebuilt = world->pipeline->RebuildFromScratch();
    if (!rebuilt.ok()) {
      out.Fail("RebuildFromScratch failed: " + rebuilt.status().ToString());
    } else {
      std::vector<float> live =
          world->pipeline->predictor().PredictProbabilities(test_pairs);
      std::vector<float> oracle =
          rebuilt->predictor().PredictProbabilities(test_pairs);
      int64_t mismatches = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        if (Bits(live[i]) != Bits(oracle[i])) ++mismatches;
      }
      out.Note(Format("pipeline vs rebuild: %.0f test pairs, %.0f mismatches",
                      static_cast<double>(live.size()),
                      static_cast<double>(mismatches)));
      if (mismatches > 0) {
        out.Fail("incremental pipeline scores differ from RebuildFromScratch");
      }
    }
  }

  // --- Outcome counts -------------------------------------------------------
  int64_t read_failed = 0, write_failed = 0;
  for (const ReadRecord& r : measured.loop.reads) read_failed += r.ok ? 0 : 1;
  for (const WriteRecord& w : measured.loop.writes) {
    write_failed += w.ok ? 0 : 1;
  }
  const auto offered = static_cast<int64_t>(measured.loop.reads.size() +
                                            measured.loop.writes.size());
  report.attempted = offered + capacity.attempted + train_attempted;
  report.failed =
      read_failed + write_failed + (capacity.attempted - capacity.ok);
  const double error_frac = static_cast<double>(read_failed + write_failed) /
                            std::max<double>(1.0, offered);

  const std::vector<double> latencies = ReadLatencies(measured.reads);
  const double read_p50 = Percentile(latencies, 0.5).value;
  std::vector<double> write_ms, lateness_ms;
  for (const WriteRecord& w : measured.writes) {
    write_ms.push_back(w.ok ? w.LatencyMs()
                            : std::numeric_limits<double>::infinity());
  }
  for (const ReadRecord& r : measured.reads) {
    lateness_ms.push_back((r.submit_start_ns - r.due_ns) * 1e-6);
  }
  out.Note(Format("error_frac %.6f of %.0f offered reads and writes",
                  error_frac, static_cast<double>(offered)));

  if (!options.trace) {
    int64_t within = 0;
    for (const ReadRecord& r : measured.reads) {
      if (r.ok && !r.degraded && r.LatencyMs() <= spec.p99_limit_ms) ++within;
    }
    out.AddMedian("setup_s", "s", setup_s);
    out.Add("peak_rss_mb", "MB", peak_rss_mb);
    out.Add("read_slo_frac", "frac",
            static_cast<double>(within) /
                std::max<double>(1.0, measured.reads.size()));
    out.Note(Describe("read_p50_ms", WindowedPercentile(
                                         LatencyWindows(measured.reads), 0.5)));
    out.Note(Format("read_capacity_qps=%.0f (median of %.0f windows)",
                    Median(capacity.window_qps),
                    static_cast<double>(capacity.window_qps.size())));
  } else {
    // Timings come from the span phase (registry off); counts from the
    // registry phase.
    const ServedPhase& t = *spanned;
    const ServedPhase& c = *counted;
    const Stages stages = SplitStages(t.reads, t.batches);
    std::vector<double> submit_us, complete_us, score_ms, apply_ms;
    for (const ReadRecord& r : t.reads) {
      submit_us.push_back((r.submit_end_ns - r.submit_start_ns) * 1e-3);
    }
    for (double v : stages.matched_complete) complete_us.push_back(v * 1e3);
    double pairs = 0.0;
    for (const BatchRecord& b : t.batches) {
      score_ms.push_back((b.end_ns - b.start_ns) * 1e-6);
      pairs += static_cast<double>(b.pairs.size());
    }
    for (const ApplyRecord& a : t.applies) {
      apply_ms.push_back((a.end_ns - a.start_ns) * 1e-6);
    }
    double faults = 0.0, hits = 0.0;
    for (const BatchRecord& b : c.batches) {
      faults += static_cast<double>(b.shard_faults);
      hits += static_cast<double>(b.shard_hits);
    }
    const double batches = std::max<double>(1.0, t.batches.size());
    const double counted_batches = std::max<double>(1.0, c.batches.size());
    const double wall_s = (t.loop.end_ns - t.loop.start_ns) * 1e-9;
    const double block_mb =
        metrics::GetGauge("infer.shard_resident_bytes").Value() /
        kResidentShards / 1e6;
    const serve::ServerStats& ts = t.stats;
    const double probes = static_cast<double>(ts.cache_hits + ts.cache_misses);
    const double admitted = static_cast<double>(ts.submitted - ts.rejected);

    out.AddQuantile("serve.submit_us_p50", "us", submit_us, 0.5);
    out.AddQuantile("serve.submit_us_p99", "us", submit_us, 0.99);
    out.AddQuantile("serve.queue_wait_ms_p50", "ms", stages.matched_queue, 0.5);
    out.AddQuantile("serve.queue_wait_ms_p99", "ms", stages.matched_queue,
                    0.99);
    out.Add("serve.batch_size_mean", "pairs", pairs / batches);
    out.Add("serve.cache_hit_frac", "frac",
            probes > 0 ? ts.cache_hits / probes : 0.0);
    out.Add("serve.coalesced_frac", "frac",
            admitted > 0 ? ts.coalesced / admitted : 0.0);
    out.Add("serve.cache_flushes", "count",
            static_cast<double>(ts.cache_flushes));
    out.AddQuantile("serve.complete_us_p50", "us", complete_us, 0.5);
    out.Add("serve.degraded_frac", "frac",
            ts.degraded / std::max<double>(1.0, t.loop.reads.size()));

    out.AddQuantile("models.score_batch_ms_p50", "ms", score_ms, 0.5);
    out.AddQuantile("models.score_batch_ms_p99", "ms", score_ms, 0.99);
    out.Add("models.busy_frac", "frac", t.score_busy_ns * 1e-9 / wall_s);
    out.Add("models.shard_faults_per_batch", "count", faults / counted_batches);
    out.Add("models.shard_hit_frac", "frac",
            hits + faults > 0 ? hits / (hits + faults) : 0.0);
    out.Add("models.shard_mb_read_per_batch", "MB",
            faults * block_mb / counted_batches);
    out.AddMedian("models.create_s", "s", create_s);
    out.AddMedian("models.plan_build_ms", "ms", plan_ms);

    std::vector<double> analytics, hypergroups, diff, refresh, plan, dirty,
        iterations;
    for (const ApplyRecord& a : c.applies) {
      analytics.push_back(a.analytics_s * 1e3);
      hypergroups.push_back(a.hypergroups_s * 1e3);
      diff.push_back(a.diff_s * 1e3);
      refresh.push_back(a.refresh_s * 1e3);
      plan.push_back(a.plan_s * 1e3);
      dirty.push_back(static_cast<double>(a.dirty_users) / num_users);
      iterations.push_back(static_cast<double>(a.pagerank_iterations));
    }
    out.AddQuantile("core.apply_ms_p50", "ms", apply_ms, 0.5);
    out.AddQuantile("core.apply_ms_p90", "ms", apply_ms, 0.9);
    out.AddQuantile("core.apply.analytics_ms", "ms", analytics, 0.5);
    out.AddQuantile("core.apply.hypergroups_ms", "ms", hypergroups, 0.5);
    out.AddQuantile("core.apply.diff_ms", "ms", diff, 0.5);
    out.AddQuantile("core.apply.refresh_ms", "ms", refresh, 0.5);
    out.AddQuantile("core.apply.plan_ms", "ms", plan, 0.5);
    out.Add("core.apply.dirty_users_frac", "frac", Mean(dirty));
    out.Add("graph.pagerank_iters_per_apply", "count", Mean(iterations));

    out.AddMedian("models.forward_ms", "ms", epochs.forward_ms);
    out.AddMedian("nn.loss_ms", "ms", epochs.loss_ms);
    out.AddMedian("autograd.backward_ms", "ms", epochs.backward_ms);
    out.AddMedian("nn.adam_step_ms", "ms", epochs.adam_ms);
    out.Add("tensor.matmul_gflop_per_epoch", "GFLOP",
            Mean(epochs.matmul_gflop));
    out.Add("tensor.spmm_gflop_per_epoch", "GFLOP", Mean(epochs.spmm_gflop));
    out.Add("tensor.matmul_calls_per_epoch", "count",
            Mean(epochs.matmul_calls));
    out.Add("tensor.spmm_calls_per_epoch", "count", Mean(epochs.spmm_calls));

    out.AddMedian("data.generate_s", "s", generate_s);

    // Read latency and capacity, whose run-to-run spread is too wide to
    // bound, and user-facing figures of single workloads (see README.md).
    // They come from the first phase, which runs as in the untraced run.
    const auto windows = LatencyWindows(measured.reads);
    out.AddWindowed("read_p50_ms", "ms", windows, 0.5);
    out.AddMedian("read_capacity_qps", "1/s", capacity.window_qps);
    out.AddWindowed("read_p90_ms", "ms", windows, 0.9);
    out.AddWindowed("read_p99_ms", "ms", windows, 0.99);
    out.AddQuantile("write_p50_ms", "ms", write_ms, 0.5);
    out.AddQuantile("write_p90_ms", "ms", write_ms, 0.9);
    out.AddMedian("train_epoch_ms", "ms", epoch_ms);
    out.Add("test_auc", "auc", test_auc);

    out.AddQuantile("bench.gen_late_ms_p99", "ms", lateness_ms, 0.99);
    const double spanned_p50 = Percentile(ReadLatencies(t.reads), 0.5).value;
    const double counted_p50 = Percentile(ReadLatencies(c.reads), 0.5).value;
    out.Add("bench.trace_overhead_frac", "frac", spanned_p50 / read_p50 - 1.0);
    out.Add("bench.registry_overhead_frac", "frac",
            counted_p50 / read_p50 - 1.0);
    const double stage_sum = MedianReadStageSum(stages);
    out.Add("bench.stage_sum_frac", "frac", stage_sum / read_p50);
    out.Add("bench.error_frac", "frac", error_frac);
    out.Note(Format("read p50: untraced %.6f ms, spans %.6f ms", read_p50,
                    spanned_p50));
    out.Note(Format("stage medians sum to %.6f ms (untraced p50 %.6f ms)",
                    stage_sum, read_p50));
    // The stages must account for the reads they were cut from. Against the
    // untraced phase the ratio also carries the drift between two phases
    // of one run, which is reported, not checked.
    if (std::abs(stage_sum / spanned_p50 - 1.0) > 0.1) {
      out.Fail("read-path stage medians do not add up to the span phase's "
               "p50 within 10%");
    }

    std::filesystem::create_directories(options.trace_dir, ec);
    const std::string trace_path = options.trace_dir + "/" + spec.name +
                                   "-seed" + std::to_string(options.seed) +
                                   ".jsonl";
    if (spans.Write(trace_path, origin)) out.Note("spans: " + trace_path);
    metrics::Disable();
  }
  out.Note(Format("threads %.0f, offered read rate %.1f/s", kThreads,
                  spec.read_rate));
  world.reset();
  std::filesystem::remove_all(options.work_dir, ec);
  return report;
}

}  // namespace perfbench
