// Micro-benchmarks (google-benchmark) for the kernels underlying the
// reproduction, including the DESIGN.md ablation comparisons:
//   * Table II motif algebra (SpGEMM+Hadamard) vs brute-force enumeration,
//   * PageRank vs Motif-based PageRank,
//   * hypergroup builders,
//   * sparse kernels (SpMM / SpGEMM) and the adaptive conv's segment ops.

#include <benchmark/benchmark.h>

#include "common/cpu.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/adaptive_conv.h"
#include "data/features.h"
#include "data/generator.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "tensor/kernels.h"
#include "tensor/workspace.h"

namespace {

using namespace ahntp;

/// Scoped thread-count override: benchmarks tagged ->Arg(t) compare the
/// execution substrate at 1/2/4/8 workers against the serial baseline.
class ThreadScope {
 public:
  explicit ThreadScope(int threads) { SetNumThreads(threads); }
  ~ThreadScope() { SetNumThreads(0); }
};

/// Fixed medium network shared by the graph-level benchmarks.
const data::SocialDataset& Dataset() {
  static const data::SocialDataset* dataset = [] {
    data::GeneratorConfig config = data::GeneratorConfig::EpinionsLike(0.05);
    return new data::SocialDataset(
        data::SocialNetworkGenerator(config).Generate());
  }();
  return *dataset;
}

const graph::Digraph& Graph() {
  static const graph::Digraph* g =
      new graph::Digraph(Dataset().TrustGraph().value());
  return *g;
}

tensor::CsrMatrix RandomSparse(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<tensor::Triplet> triplets;
  auto count = static_cast<size_t>(static_cast<double>(n) * n * density);
  for (size_t i = 0; i < count; ++i) {
    triplets.push_back({static_cast<int>(rng.NextBounded(n)),
                        static_cast<int>(rng.NextBounded(n)),
                        rng.Uniform(0.1f, 1.0f)});
  }
  return tensor::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

// ---------------------------------------------------------------------------
// Execution substrate: serial vs pooled kernels across thread counts.
// The Arg is the worker count handed to SetNumThreads; Arg(1) is the fully
// serial path, so the speedup at Arg(t) reads directly off the report.
// ---------------------------------------------------------------------------

void BM_MatMulThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  tensor::Matrix a = tensor::Matrix::Randn(n, n, &rng);
  tensor::Matrix b = tensor::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * static_cast<int64_t>(n) *
                          static_cast<int64_t>(n) * 2);
}
BENCHMARK(BM_MatMulThreads)
    ->ArgsProduct({{256, 512, 1024}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SpMMThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 1);
  Rng rng(2);
  tensor::Matrix x = tensor::Matrix::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(a, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()) * 64);
}
BENCHMARK(BM_SpMMThreads)
    ->ArgsProduct({{2000, 4000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SpGemmThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 3);
  tensor::CsrMatrix b = RandomSparse(n, 0.01, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpGemm(a, b));
  }
}
BENCHMARK(BM_SpGemmThreads)
    ->ArgsProduct({{2000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_PageRankThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(0)));
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::PageRank(g.Adjacency()));
  }
}
BENCHMARK(BM_PageRankThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

void BM_SpMM(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 1);
  Rng rng(2);
  tensor::Matrix x = tensor::Matrix::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(a, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()) * 64);
}
BENCHMARK(BM_SpMM)->Arg(500)->Arg(1000)->Arg(2000);

void BM_SpGemm(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 3);
  tensor::CsrMatrix b = RandomSparse(n, 0.01, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpGemm(a, b));
  }
}
BENCHMARK(BM_SpGemm)->Arg(500)->Arg(1000);

// ---------------------------------------------------------------------------
// Motif algebra vs enumeration (DESIGN.md ablation 1)
// ---------------------------------------------------------------------------

void BM_MotifAdjacencyAlgebra(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::MotifAdjacency(g.Adjacency(), graph::Motif::kM6));
  }
}
BENCHMARK(BM_MotifAdjacencyAlgebra);

void BM_MotifAdjacencyEnumeration(benchmark::State& state) {
  // O(n^3): run on a small subgraph only.
  data::GeneratorConfig config = data::GeneratorConfig::EpinionsLike(0.01);
  data::SocialDataset small = data::SocialNetworkGenerator(config).Generate();
  graph::Digraph g = small.TrustGraph().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::MotifAdjacencyByEnumeration(g, graph::Motif::kM6));
  }
  state.SetLabel("n=" + std::to_string(g.num_nodes()) +
                 " (algebra handles 5x more nodes per ms)");
}
BENCHMARK(BM_MotifAdjacencyEnumeration);

void BM_AllSevenMotifs(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::AllMotifAdjacencies(g.Adjacency()));
  }
}
BENCHMARK(BM_AllSevenMotifs);

// ---------------------------------------------------------------------------
// PageRank variants
// ---------------------------------------------------------------------------

void BM_PageRank(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::PageRank(g.Adjacency()));
  }
}
BENCHMARK(BM_PageRank);

void BM_MotifPageRank(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  graph::MotifPageRankOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::MotifPageRank(g.Adjacency(), options));
  }
}
BENCHMARK(BM_MotifPageRank);

// ---------------------------------------------------------------------------
// Hypergroup builders (Section IV-B)
// ---------------------------------------------------------------------------

void BM_BuildSocialInfluenceHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  std::vector<double> influence = graph::PageRank(g.Adjacency());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hypergraph::BuildSocialInfluenceHypergroup(g, influence, 5));
  }
}
BENCHMARK(BM_BuildSocialInfluenceHypergroup);

void BM_BuildAttributeHypergroup(benchmark::State& state) {
  const data::SocialDataset& ds = Dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes));
  }
}
BENCHMARK(BM_BuildAttributeHypergroup);

void BM_BuildPairwiseHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypergraph::BuildPairwiseHypergroup(g));
  }
}
BENCHMARK(BM_BuildPairwiseHypergroup);

void BM_BuildMultiHopHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  hypergraph::MultiHopOptions options;
  options.num_hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypergraph::BuildMultiHopHypergroup(g, options));
  }
}
BENCHMARK(BM_BuildMultiHopHypergroup)->Arg(1)->Arg(2)->Arg(3);

void BM_NormalizedAdjacency(benchmark::State& state) {
  const data::SocialDataset& ds = Dataset();
  hypergraph::Hypergraph hg = hypergraph::Hypergraph::Concat(
      hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes),
      hypergraph::BuildPairwiseHypergroup(Graph()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hg.NormalizedAdjacency());
  }
}
BENCHMARK(BM_NormalizedAdjacency);

// ---------------------------------------------------------------------------
// Adaptive convolution: attention (segment ops) vs plain mean aggregation
// (DESIGN.md ablation 2)
// ---------------------------------------------------------------------------

/// Which pass of the adaptive conv a benchmark times.
enum class ConvPass { kForward, kBackward, kInfer };

/// Times one pass of a 64-wide conv over the attribute + pairwise
/// hypergraph. Counters: `pairs` (the hypergraph's incidence pairs) and,
/// for kInfer, `workspace_bytes` (the arena of one pass; with attention on
/// it holds two pairs x 1 columns and no pairs x d buffer).
void AdaptiveConvBenchmark(benchmark::State& state, bool use_attention,
                           ConvPass pass) {
  const data::SocialDataset& ds = Dataset();
  Rng rng(7);
  hypergraph::Hypergraph hg = hypergraph::Hypergraph::Concat(
      hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes),
      hypergraph::BuildPairwiseHypergroup(Graph()));
  tensor::Matrix features = data::BuildFeatureMatrix(ds);
  core::AdaptiveHypergraphConv conv(hg, features.cols(), 64, &rng,
                                    use_attention);
  autograd::Variable x = autograd::Constant(features);
  tensor::Workspace ws;
  for (auto _ : state) {
    switch (pass) {
      case ConvPass::kForward:
        benchmark::DoNotOptimize(conv.Forward(x));
        break;
      case ConvPass::kBackward: {
        state.PauseTiming();
        for (autograd::Variable& p : conv.Parameters()) p.ZeroGrad();
        autograd::Variable loss = autograd::ReduceSum(conv.Forward(x));
        state.ResumeTiming();
        loss.Backward();
        break;
      }
      case ConvPass::kInfer:
        ws.Reset();
        benchmark::DoNotOptimize(conv.Infer(features, &ws));
        break;
    }
  }
  state.counters["pairs"] = static_cast<double>(conv.pairs().size());
  if (pass == ConvPass::kInfer) {
    state.counters["workspace_bytes"] = static_cast<double>(ws.bytes());
  }
}

void BM_AdaptiveConvAttention(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/true, ConvPass::kForward);
}
BENCHMARK(BM_AdaptiveConvAttention);

void BM_AdaptiveConvAttentionBackward(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/true, ConvPass::kBackward);
}
BENCHMARK(BM_AdaptiveConvAttentionBackward);

void BM_AdaptiveConvAttentionInfer(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/true, ConvPass::kInfer);
}
BENCHMARK(BM_AdaptiveConvAttentionInfer);

void BM_AdaptiveConvPlain(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/false, ConvPass::kForward);
}
BENCHMARK(BM_AdaptiveConvPlain);

void BM_AdaptiveConvPlainInfer(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/false, ConvPass::kInfer);
}
BENCHMARK(BM_AdaptiveConvPlainInfer);

// ---------------------------------------------------------------------------
// The two pair attention kernels alone, scalar loop vs AVX2 primitive, at
// 1 and 4 workers. Args: {isa (0 scalar, 1 avx2), threads}. The shape is a
// 4,104-user structure branch: ~148k pairs into 3,000 hyperedges, d = 64.
// ---------------------------------------------------------------------------

struct PairKernelInputs {
  tensor::PairIndex pairs;
  tensor::Matrix s_segment, s_source, rows, weight;
};

const PairKernelInputs& PairInputs() {
  static const PairKernelInputs* inputs = [] {
    const size_t n = 4104, m = 3000, p = 148000, d = 64;
    Rng rng(17);
    std::vector<int> segment(p), source(p);
    for (size_t i = 0; i < p; ++i) {
      segment[i] = static_cast<int>(rng.NextBounded(n));
      source[i] = static_cast<int>(rng.NextBounded(m));
    }
    auto* in = new PairKernelInputs;
    in->pairs = tensor::PairIndex::Build(std::move(segment),
                                         std::move(source), n, m);
    in->s_segment = tensor::Matrix::Randn(n, 1, &rng);
    in->s_source = tensor::Matrix::Randn(m, 1, &rng);
    in->rows = tensor::Matrix::Randn(m, d, &rng);
    in->weight = tensor::Matrix::Randn(p, 1, &rng);
    return in;
  }();
  return *inputs;
}

/// Installs the kernel ISA of Arg 0 for one benchmark; false (and the
/// benchmark skipped) when this build or CPU has no AVX2.
bool SelectIsa(benchmark::State& state) {
  const KernelIsa isa =
      state.range(0) == 0 ? KernelIsa::kScalar : KernelIsa::kAvx2;
  if (!KernelIsaSupported(isa)) {
    state.SkipWithError("AVX2 kernels unavailable");
    return false;
  }
  SetKernelIsa(isa);
  return true;
}

void BM_PairScore(benchmark::State& state) {
  const KernelIsa previous = ActiveKernelIsa();
  if (!SelectIsa(state)) return;
  ThreadScope scope(static_cast<int>(state.range(1)));
  const PairKernelInputs& in = PairInputs();
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::PairScoreInto(&out, in.s_segment, in.s_source, in.pairs);
    benchmark::DoNotOptimize(out.data());
  }
  SetKernelIsa(previous);
}
BENCHMARK(BM_PairScore)->ArgsProduct({{0, 1}, {1, 4}});

void BM_PairAggregate(benchmark::State& state) {
  const KernelIsa previous = ActiveKernelIsa();
  if (!SelectIsa(state)) return;
  ThreadScope scope(static_cast<int>(state.range(1)));
  const PairKernelInputs& in = PairInputs();
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::PairAggregateInto(&out, in.rows, in.weight, in.pairs);
    benchmark::DoNotOptimize(out.data());
  }
  SetKernelIsa(previous);
}
BENCHMARK(BM_PairAggregate)->ArgsProduct({{0, 1}, {1, 4}});

}  // namespace

BENCHMARK_MAIN();
