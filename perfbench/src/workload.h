#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "traffic.h"

namespace perfbench {

/// The model behind the server.
enum class BackendKind {
  /// serve::ModelBackend, monolithic fp32 plan.
  kMonolithic,
  /// serve::ModelBackend with a sharded fp32 plan.
  kSharded,
  /// serve::DynamicBackend over a core::DynamicTrustPipeline; takes writes.
  kDynamic,
};

/// Everything that tells one workload from another. run.py fills it from
/// perfbench/workloads.json.
struct WorkloadSpec {
  std::string name;
  double scale = 0.25;  // of the CiaoLike preset (1.0 = 4104 users)
  BackendKind backend = BackendKind::kMonolithic;
  KeyChoice keys = KeyChoice::kUniformList;
  double read_rate = 1000.0;
  double write_rate = 0.0;
  /// Per-read latency limit used by read_slo_frac.
  double p99_limit_ms = 10.0;
  /// Shares of each one-second slice of --seconds spent in the open and
  /// the closed loop.
  double open_frac = 0.8;
  double capacity_frac = 0.2;
  /// Training before serving: epochs of the one timed Fit (0 = serve the
  /// seed weights). Its length is set by the epochs, not by --seconds.
  int train_epochs = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for shard spill blocks; emptied when the run ends.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed checks, one line each.
  std::vector<std::string> failures;
  /// Human-readable lines: every percentile with its sample count.
  std::vector<std::string> notes;
};

/// Sets up the workload (several times, for setup_s), runs its timed
/// phases, checks the outputs, and returns the end-to-end metrics (trace
/// off) or the per-layer metrics (trace on).
RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
