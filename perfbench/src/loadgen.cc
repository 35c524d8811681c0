#include "loadgen.h"

#include <chrono>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "common/check.h"
#include "probe.h"

namespace perfbench {

namespace {

using ahntp::serve::MutationResponse;
using ahntp::serve::TrustQuery;
using ahntp::serve::TrustResponse;

template <typename T>
bool Ready(const std::future<T>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Fill(ReadRecord* record, const TrustResponse& response) {
  record->ok = response.status.ok();
  record->degraded = response.degraded;
  record->cached = response.cached;
  record->coalesced = response.coalesced;
  record->score = response.score;
  record->server_ms = response.latency_ms;
}

}  // namespace

OpenLoopResult RunOpenLoop(ahntp::serve::TrustServer* server,
                           const std::vector<Op>& ops,
                           const std::vector<ahntp::graph::GraphDelta>* deltas) {
  AHNTP_CHECK(server != nullptr);
  OpenLoopResult out;
  out.reads.reserve(ops.size());
  std::deque<std::pair<size_t, std::future<TrustResponse>>> reads;
  std::deque<std::pair<size_t, std::future<MutationResponse>>> writes;

  auto collect = [&](bool wait) {
    while (!reads.empty() && (wait || Ready(reads.front().second))) {
      Fill(&out.reads[reads.front().first], reads.front().second.get());
      reads.pop_front();
    }
    while (!writes.empty() && (wait || Ready(writes.front().second))) {
      MutationResponse response = writes.front().second.get();
      WriteRecord& record = out.writes[writes.front().first];
      record.ok = response.status.ok();
      record.server_ms = response.latency_ms;
      writes.pop_front();
    }
  };

  // The generator spins between due times rather than sleeping: a wake-up
  // from sleep can overshoot by far more than the microseconds a read
  // takes. A short lead keeps the first due time ahead of the loop's start.
  out.start_ns = NowNs() + 1'000'000;
  for (const Op& op : ops) {
    const int64_t due = out.start_ns + op.due_ns;
    while (NowNs() < due) collect(false);
    if (op.is_write) {
      AHNTP_CHECK(deltas != nullptr &&
                  static_cast<size_t>(op.src) < deltas->size());
      WriteRecord record;
      record.due_ns = due;
      record.submit_start_ns = NowNs();
      writes.emplace_back(out.writes.size(),
                          server->SubmitMutation((*deltas)[op.src]));
      out.writes.push_back(record);
      continue;
    }
    ReadRecord record;
    record.due_ns = due;
    record.src = op.src;
    record.dst = op.dst;
    TrustQuery query;
    query.src = op.src;
    query.dst = op.dst;
    record.submit_start_ns = NowNs();
    std::future<TrustResponse> future = server->Submit(query);
    record.submit_end_ns = NowNs();
    reads.emplace_back(out.reads.size(), std::move(future));
    out.reads.push_back(record);
  }
  collect(true);
  out.end_ns = NowNs();
  return out;
}

ClosedLoopResult RunClosedLoop(
    ahntp::serve::TrustServer* server, KeySampler* sampler, int outstanding,
    double seconds, int windows,
    const std::function<bool(const ReadRecord&)>& verify) {
  AHNTP_CHECK(server != nullptr && sampler != nullptr && outstanding > 0 &&
              windows >= 2);
  ClosedLoopResult out;
  const int64_t start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9) / windows;
  const int64_t stop = start + window_ns * windows;
  // Per window: completions, and the first and last completion time, so a
  // window's rate is measured between completions, not quantized to it.
  std::vector<int64_t> per_window(windows, 0);
  std::vector<int64_t> first_ns(windows, 0), last_ns(windows, 0);

  // Each slot is one client with one read in flight; a client whose read
  // completed sends its next one at once, whatever the others wait for.
  struct Slot {
    ReadRecord record;
    std::future<TrustResponse> future;
  };
  std::vector<Slot> slots(static_cast<size_t>(outstanding));
  auto submit = [&](Slot* slot) {
    data::TrustPair pair = sampler->Next();
    slot->record = ReadRecord{};
    slot->record.src = pair.src;
    slot->record.dst = pair.dst;
    TrustQuery query;
    query.src = pair.src;
    query.dst = pair.dst;
    slot->record.submit_start_ns = slot->record.due_ns = NowNs();
    slot->future = server->Submit(query);
    ++out.attempted;
  };
  auto complete = [&](Slot* slot) {
    Fill(&slot->record, slot->future.get());
    if (!slot->record.ok || slot->record.degraded) return;
    ++out.ok;
    if (!verify(slot->record)) ++out.mismatches;
    const int64_t now = NowNs();
    const int64_t window = (now - start) / window_ns;
    if (window < windows) {
      if (per_window[window]++ == 0) first_ns[window] = now;
      last_ns[window] = now;
    }
  };

  for (Slot& slot : slots) submit(&slot);
  while (NowNs() < stop) {
    for (Slot& slot : slots) {
      if (!Ready(slot.future)) continue;
      complete(&slot);
      submit(&slot);
    }
  }
  for (Slot& slot : slots) complete(&slot);
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  for (int w = 1; w < windows; ++w) {
    if (per_window[w] < 2) continue;
    out.window_qps.push_back(static_cast<double>(per_window[w] - 1) /
                             (static_cast<double>(last_ns[w] - first_ns[w]) *
                              1e-9));
  }
  return out;
}

}  // namespace perfbench
