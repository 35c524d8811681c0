// perfbench: the repository benchmark. Runs one named workload from a seed
// and prints every metric by name and unit; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output check fails. perfbench/run.py builds this binary and passes the
// workload's parameters from perfbench/workloads.json:
//
//   perfbench --workload=read_hot --seed=1 --seconds=10 --trace=0
//       --scale=0.25 --backend=monolithic --keys=zipf --read_rate=20000 ...

#include <cmath>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "workload.h"

namespace {

using perfbench::BackendKind;
using perfbench::KeyChoice;

BackendKind ParseBackend(const std::string& name) {
  if (name == "monolithic") return BackendKind::kMonolithic;
  if (name == "sharded") return BackendKind::kSharded;
  AHNTP_CHECK(name == "dynamic") << "unknown --backend=" << name;
  return BackendKind::kDynamic;
}

KeyChoice ParseKeys(const std::string& name) {
  if (name == "zipf") return KeyChoice::kZipf;
  if (name == "uniform_list") return KeyChoice::kUniformList;
  AHNTP_CHECK(name == "uniform_users") << "unknown --keys=" << name;
  return KeyChoice::kUniformUsers;
}

std::string JsonNumber(double value) {
  char buffer[64];
  // Non-finite values are not JSON; clamp them to the largest double.
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 1.7976931348623157e308);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  ahntp::FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));

  perfbench::WorkloadSpec spec;
  spec.name = flags.GetString("workload", "");
  AHNTP_CHECK(!spec.name.empty()) << "--workload is required";
  spec.scale = flags.GetDouble("scale", spec.scale);
  spec.backend = ParseBackend(flags.GetString("backend", "monolithic"));
  spec.keys = ParseKeys(flags.GetString("keys", "uniform_list"));
  spec.read_rate = flags.GetDouble("read_rate", spec.read_rate);
  spec.write_rate = flags.GetDouble("write_rate", spec.write_rate);
  spec.p99_limit_ms = flags.GetDouble("p99_limit_ms", spec.p99_limit_ms);
  spec.open_frac = flags.GetDouble("open_frac", spec.open_frac);
  spec.capacity_frac = flags.GetDouble("capacity_frac", spec.capacity_frac);
  spec.train_epochs =
      static_cast<int>(flags.GetInt("train_epochs", spec.train_epochs));

  perfbench::RunOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", options.seconds);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.work_dir = flags.GetString("work_dir", options.work_dir);
  options.trace_dir = flags.GetString("trace_dir", options.trace_dir);
  AHNTP_CHECK(options.seconds > 0.0) << "--seconds must be positive";

  perfbench::RunReport report = perfbench::RunWorkload(spec, options);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
