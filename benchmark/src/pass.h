// One pass of a workload: build the architecture, warm up, measure the
// window, drain, and collect the simulated-time results plus (traced
// pass) per-layer step timing, spans and the write ledger.

#ifndef SBFT_BENCHMARK_PASS_H_
#define SBFT_BENCHMARK_PASS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace sbft::bench {

using WallClock = std::chrono::steady_clock;

/// The receiving layers deliveries are attributed to, named after the
/// repository's modules. The actor-id blocks of ShardPlane and
/// Architecture decide the layer of every actor.
enum Layer : int {
  kClientLayer = 0,
  kShimLayer,
  kServerlessLayer,
  kStorageLayer,
  kVerifierLayer,
  kCoordinatorLayer,
  kLayerCount,
};
const char* LayerName(int layer);

/// Results that live on the simulated clock. They are exact for
/// (workload, seed): every repetition, and the traced pass, must
/// reproduce them bit for bit.
struct SimResult {
  // --- end to end ---
  uint64_t commits = 0;        ///< Commit responses delivered in the window.
  uint64_t aborts = 0;         ///< Abort responses delivered in the window.
  uint64_t latency_samples = 0;
  int64_t latency_min = 0;     ///< ns of simulated time.
  int64_t latency_p50 = 0;
  int64_t latency_p99 = 0;
  int64_t latency_p999 = 0;
  double goodput_tps = 0;
  double cents_per_ktxn = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Longest interval of the window with no commit delivered.
  int64_t commit_gap = 0;
  // --- per-layer public counters, window deltas ---
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t shim_batches = 0;
  uint64_t shim_txns = 0;
  uint64_t shim_view_changes = 0;
  uint64_t spawns = 0;
  uint64_t cold_starts = 0;
  uint64_t verifier_applied = 0;
  uint64_t verifier_aborted = 0;
  uint64_t storage_writes = 0;
  uint64_t xtxns = 0;
  uint64_t vote_msgs = 0;
  uint64_t lock_waits = 0;
  uint64_t coord_view_changes = 0;
  uint64_t hop_attempts = 0;
  uint64_t hops = 0;

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// Per-layer accounting of the traced pass over the window.
struct LayerStats {
  uint64_t deliveries = 0;
  int64_t net_ns = 0;   ///< Sum of delivered_at - sent_at (simulated).
  int64_t cpu_ns = 0;   ///< Sum of handled - delivered_at (simulated).
  int64_t wall_ns = 0;  ///< Wall time of the steps that delivered here.
};

/// One delivery inside the window, as the traced pass saw it.
struct Span {
  int32_t layer = 0;
  int32_t kind = 0;
  uint64_t txn = 0;  ///< Client txn id where the message carries one.
  int64_t sent = 0;
  int64_t delivered = 0;
  int64_t handled = 0;
  int64_t wall_start = 0;  ///< ns since the window opened.
  int64_t wall_end = 0;
};

struct TraceResult {
  LayerStats layers[kLayerCount];
  int64_t unattributed_wall_ns = 0;
  uint64_t peak_pending_events = 0;
  std::vector<Span> spans;
};

struct PassResult {
  SimResult sim;
  /// Wall seconds from `setup_origin` to Architecture::Start returning.
  double setup_s = 0;
  /// Wall seconds spent simulating the measurement window.
  double window_wall_s = 0;
  /// Property and ledger check failures (empty = all held).
  std::vector<std::string> failures;
  TraceResult trace;  ///< Filled by the traced pass only.
};

/// Runs one pass of `w`. The traced pass advances the serial loop step
/// by step, timing each step and attributing it to the layer it
/// delivered to; it also keeps the write ledger and the spans.
PassResult RunPass(const Workload& w, bool traced,
                   WallClock::time_point setup_origin);

/// Writes the traced pass's spans as tab-separated text.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace sbft::bench

#endif  // SBFT_BENCHMARK_PASS_H_
