#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/delta.h"
#include "serve/server.h"
#include "traffic.h"

namespace perfbench {

/// What the generator saw of one read. Times are NowNs() values.
struct ReadRecord {
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  int src = 0;
  int dst = 0;
  bool ok = false;  // status OK
  bool degraded = false;
  bool cached = false;
  bool coalesced = false;
  float score = 0.0f;
  /// The server's submit-to-completion time.
  double server_ms = 0.0;
  /// The slice of the phase the read was due in; read percentiles are
  /// medians over slices.
  int slice = 0;

  /// Latency from the due time: generator lateness plus the server's time.
  double LatencyMs() const {
    return static_cast<double>(submit_start_ns - due_ns) * 1e-6 + server_ms;
  }
  /// When the response was resolved, on the NowNs() clock.
  int64_t ResolvedNs() const {
    return submit_start_ns + static_cast<int64_t>(server_ms * 1e6);
  }
};

/// What the generator saw of one mutation.
struct WriteRecord {
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  bool ok = false;
  double server_ms = 0.0;

  double LatencyMs() const {
    return static_cast<double>(submit_start_ns - due_ns) * 1e-6 + server_ms;
  }
};

struct OpenLoopResult {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Offers `ops` to a started server on their schedule from one thread,
/// which also collects responses as they complete. Writes submit
/// `(*deltas)[op.src]`. The schedule never waits for the server: a
/// generator that falls behind submits late, and the lateness counts in
/// every latency.
OpenLoopResult RunOpenLoop(ahntp::serve::TrustServer* server,
                           const std::vector<Op>& ops,
                           const std::vector<ahntp::graph::GraphDelta>* deltas);

struct ClosedLoopResult {
  int64_t attempted = 0;
  int64_t ok = 0;  // OK and not degraded
  double seconds = 0.0;
  /// OK, non-degraded reads that `verify` rejected.
  int64_t mismatches = 0;
  /// OK, non-degraded reads per second in each measured window.
  std::vector<double> window_qps;
};

/// Keeps `outstanding` reads in flight for `seconds`: `outstanding` clients
/// each send their next read as soon as their last one completes; keys come
/// from `sampler`. Every OK,
/// non-degraded response is passed to `verify`. The run is cut into
/// `windows` equal windows and the first one is warm-up: `window_qps`
/// holds the rate of each later window.
ClosedLoopResult RunClosedLoop(
    ahntp::serve::TrustServer* server, KeySampler* sampler, int outstanding,
    double seconds, int windows,
    const std::function<bool(const ReadRecord&)>& verify);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
