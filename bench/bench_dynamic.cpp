// Dynamic-update benchmark: DynamicTrustPipeline::ApplyDelta (DESIGN.md
// §17) against rebuilding the pipeline, across delta sizes, plus the
// staleness-vs-latency tradeoff of coalescing single-edge mutations into
// wider apply windows. Emits `BENCH_dynamic.json` alongside the usual
// BENCH_META line.
//
// The baseline per delta size is the pipeline rebuild —
// RebuildFromScratch() plus WarmInferencePlan(): every derived structure
// (motifs, influence, hypergroups, model, plan) built from the current
// snapshot, timed right after the apply that produced it. ApplyDelta patches the graph-side structures and re-encodes
// every user once (attribute hyperedges mix globally, so every embedding
// changes); the per-stage breakdown in the JSON shows the split. The
// in-binary gate CHECKs that the median 10-edge apply beats the median
// rebuild. The 1-edge row is reported ungated: a delta that leaves one
// branch's hypergraph unchanged still re-encodes both branches, so its
// margin over a rebuild is thin.
//
//   ./build/bench/bench_dynamic [--scale=0.06] [--iters=5] [--rebuilds=3]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/dynamic_pipeline.h"
#include "data/generator.h"
#include "graph/delta.h"

namespace {

using namespace ahntp;

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// Mean observation of a latency histogram, in milliseconds.
double HistogramMeanMs(const metrics::Snapshot& snapshot, const char* name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name && h.count > 0) {
      return h.sum / static_cast<double>(h.count) * 1e3;
    }
  }
  return 0.0;
}

struct SizeRow {
  size_t delta_edges = 0;
  double apply_ms = 0.0;     // end-to-end ApplyDelta (median)
  double refresh_ms = 0.0;   // model input install stage (mean)
  double plan_ms = 0.0;      // plan rebuild stage: re-encode + table (mean)
  double pipeline_rebuild_ms = 0.0;  // RebuildFromScratch + warm (median)
  double pipeline_speedup = 0.0;     // pipeline_rebuild / apply
  double pagerank_iters_saved = 0.0;  // cold - warm, signed (mean)
};

struct StalenessRow {
  size_t window = 1;       // single-edge mutations coalesced per apply
  size_t refreshes = 0;    // ApplyDelta calls needed for the stream
  double total_ms = 0.0;   // summed refresh latency for the whole stream
  size_t worst_staleness = 0;  // edges waiting unapplied at the window edge
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));
  bench::BenchOptions options = bench::BenchOptions::FromFlags(flags);
  const int iters = static_cast<int>(flags.GetInt("iters", 5));
  const int rebuilds = static_cast<int>(flags.GetInt("rebuilds", 3));

  bench::PrintBanner(
      "dynamic",
      "delta apply vs pipeline rebuild + staleness/latency",
      options);
  // Stage breakdowns come from the dynamic.apply.*_seconds histograms.
  metrics::Enable();

  data::SocialDataset dataset =
      data::SocialNetworkGenerator(
          data::GeneratorConfig::CiaoLike(options.scale))
          .Generate();
  core::DynamicPipelineOptions dyn_options;
  dyn_options.model.hidden_dims = options.dims;
  dyn_options.seed = options.seed;

  Stopwatch build_watch;
  auto pipeline = core::DynamicTrustPipeline::Create(dataset, dyn_options);
  AHNTP_CHECK(pipeline.ok()) << pipeline.status().ToString();
  pipeline.value().predictor().WarmInferencePlan();
  const double cold_build_ms = build_watch.ElapsedMillis();
  std::printf("pipeline: %zu users, %zu trust edges, cold build %.1f ms\n",
              dataset.num_users, dataset.trust_edges.size(), cold_build_ms);

  // --- Delta apply vs pipeline rebuild across delta sizes -----------------
  std::vector<SizeRow> rows;
  std::printf("%12s %10s %10s %10s %14s %12s\n", "delta_edges", "apply_ms",
              "refresh_ms", "plan_ms", "pipe_rebuild", "pipe_spdup");
  for (size_t delta_edges : {size_t{1}, size_t{10}, size_t{1000}}) {
    data::DeltaStreamConfig stream;
    stream.num_deltas = static_cast<size_t>(iters);
    stream.adds_per_delta = delta_edges;
    stream.removes_per_delta = 0;
    stream.ratings_per_delta = 0;
    stream.seed = 20240717 + delta_edges;
    std::vector<graph::GraphDelta> deltas =
        data::GenerateTrustDeltas(dataset, stream);

    // Each apply is followed by a pipeline rebuild of the same snapshot
    // (for the first `rebuilds` deltas): every derived structure built from
    // scratch, plan warmed so both sides end with a servable plan.
    // Interleaving keeps host-load drift from landing on one side only.
    metrics::Reset();
    std::vector<double> apply;
    std::vector<double> pipeline_rebuild;
    double saved = 0.0;
    for (const graph::GraphDelta& delta : deltas) {
      Stopwatch watch;
      auto outcome = pipeline.value().ApplyDelta(delta);
      apply.push_back(watch.ElapsedMillis());
      AHNTP_CHECK(outcome.ok()) << outcome.status().ToString();
      saved += static_cast<double>(outcome->pagerank_cold_iterations -
                                   outcome->pagerank_iterations);
      if (pipeline_rebuild.size() < static_cast<size_t>(rebuilds)) {
        Stopwatch rebuild_watch;
        auto rebuilt = pipeline.value().RebuildFromScratch();
        AHNTP_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
        rebuilt.value().predictor().WarmInferencePlan();
        pipeline_rebuild.push_back(rebuild_watch.ElapsedMillis());
      }
    }
    metrics::Snapshot stages = metrics::Collect();

    SizeRow row;
    row.delta_edges = delta_edges;
    row.apply_ms = Median(apply);
    row.refresh_ms =
        HistogramMeanMs(stages, "dynamic.apply.refresh_seconds");
    row.plan_ms = HistogramMeanMs(stages, "dynamic.apply.plan_seconds");
    row.pipeline_rebuild_ms = Median(pipeline_rebuild);
    row.pipeline_speedup =
        row.apply_ms > 0.0 ? row.pipeline_rebuild_ms / row.apply_ms : 0.0;
    row.pagerank_iters_saved = saved / static_cast<double>(deltas.size());
    rows.push_back(row);
    std::printf("%12zu %10.3f %10.3f %10.3f %14.1f %11.2fx\n",
                row.delta_edges, row.apply_ms, row.refresh_ms, row.plan_ms,
                row.pipeline_rebuild_ms, row.pipeline_speedup);
    std::fflush(stdout);
  }

  // --- Staleness vs latency: coalescing single-edge mutations --------------
  // A stream of single-edge mutations can be applied one by one (freshest
  // scores, most refreshes) or coalesced into windows of w (fewer, larger
  // refreshes; up to w-1 edges serve stale at the window edge).
  std::vector<StalenessRow> staleness;
  const size_t stream_edges = 12;
  for (size_t window : {size_t{1}, size_t{4}, size_t{12}}) {
    data::DeltaStreamConfig stream;
    stream.num_deltas = stream_edges;
    stream.adds_per_delta = 1;
    stream.removes_per_delta = 0;
    stream.ratings_per_delta = 0;
    stream.seed = 20240800 + window;
    std::vector<graph::GraphDelta> singles =
        data::GenerateTrustDeltas(dataset, stream);

    StalenessRow row;
    row.window = window;
    row.worst_staleness = window - 1;
    for (size_t start = 0; start < singles.size(); start += window) {
      graph::GraphDelta coalesced;
      for (size_t i = start; i < std::min(start + window, singles.size());
           ++i) {
        coalesced.add_edges.insert(coalesced.add_edges.end(),
                                   singles[i].add_edges.begin(),
                                   singles[i].add_edges.end());
      }
      Stopwatch watch;
      auto outcome = pipeline.value().ApplyDelta(coalesced);
      row.total_ms += watch.ElapsedMillis();
      AHNTP_CHECK(outcome.ok()) << outcome.status().ToString();
      ++row.refreshes;
    }
    staleness.push_back(row);
    std::printf(
        "staleness: window %2zu -> %zu refreshes, %.3f ms total, worst "
        "staleness %zu edges\n",
        row.window, row.refreshes, row.total_ms, row.worst_staleness);
  }

  // --- The gate -----------------------------------------------------------
  const SizeRow& ten_edges = rows[1];
  AHNTP_CHECK(ten_edges.apply_ms < ten_edges.pipeline_rebuild_ms)
      << "the median 10-edge ApplyDelta must beat the median pipeline "
      << "rebuild, got apply " << ten_edges.apply_ms << " ms vs rebuild "
      << ten_edges.pipeline_rebuild_ms << " ms";
  std::printf("gate: 10-edge apply %.2f ms < pipeline rebuild %.2f ms "
              "(%.2fx); 1-edge %.2fx (ungated)\n",
              ten_edges.apply_ms, ten_edges.pipeline_rebuild_ms,
              ten_edges.pipeline_speedup, rows.front().pipeline_speedup);

  std::string json =
      "{\n  \"bench\": \"dynamic\",\n  \"cold_build_ms\": " +
      StrFormat("%.2f", cold_build_ms) + ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& row = rows[i];
    json += StrFormat(
        "    {\"delta_edges\": %zu, \"apply_ms\": %.4f, "
        "\"refresh_ms\": %.4f, \"plan_ms\": %.4f, "
        "\"pipeline_rebuild_ms\": %.2f, \"pipeline_speedup\": %.2f, "
        "\"pagerank_iters_saved\": %.1f}%s\n",
        row.delta_edges, row.apply_ms, row.refresh_ms, row.plan_ms,
        row.pipeline_rebuild_ms, row.pipeline_speedup,
        row.pagerank_iters_saved, i + 1 < rows.size() ? "," : "");
  }
  json += "  ],\n  \"staleness_vs_latency\": [\n";
  for (size_t i = 0; i < staleness.size(); ++i) {
    const StalenessRow& row = staleness[i];
    json += StrFormat(
        "    {\"window\": %zu, \"refreshes\": %zu, \"total_ms\": %.4f, "
        "\"worst_staleness_edges\": %zu}%s\n",
        row.window, row.refreshes, row.total_ms, row.worst_staleness,
        i + 1 < staleness.size() ? "," : "");
  }
  json += "  ],\n  \"gate\": {\"min_pipeline_speedup_10edge\": 1.0, "
          "\"measured\": " +
          StrFormat("%.2f", ten_edges.pipeline_speedup) + "}\n}\n";
  AHNTP_CHECK_OK(WriteFileAtomic("BENCH_dynamic.json", json));
  std::printf("\nwrote BENCH_dynamic.json (%zu rows)\n", rows.size());
  std::printf(
      "Expected shape: apply and rebuild both pay one all-user encode, so\n"
      "apply wins by the graph-side work it patches instead of redoing\n"
      "(motifs, influence, hypergroups). Wider coalescing windows trade\n"
      "staleness for fewer applies.\n");
  return 0;
}
