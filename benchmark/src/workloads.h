// The benchmark's three workloads: deployment, traffic, fault schedule
// and simulated-time windows, each a pure function of (name, seed).

#ifndef SBFT_BENCHMARK_WORKLOADS_H_
#define SBFT_BENCHMARK_WORKLOADS_H_

#include <string>

#include "core/config.h"

namespace sbft::bench {

/// What one "operation" of a workload is, for the attempted/failed
/// counts: a settled client transaction (closed loop), an offered
/// transaction (open loop), or a workflow chain.
enum class OpUnit { kClientTxn, kOfferedTxn, kChain };

struct Workload {
  std::string name;
  core::SystemConfig config;
  /// Fault schedule in the faults::FaultSchedule text format; empty for
  /// a fault-free run.
  std::string faults;
  OpUnit unit = OpUnit::kClientTxn;
  /// Simulated warmup before the measurement window opens.
  SimDuration warmup = 0;
  /// Simulated measurement window.
  SimDuration window = 0;
  /// Open-loop runs pause their sources when the window closes and keep
  /// simulating until nothing is in flight, for at most this long.
  SimDuration drain_limit = 0;
  /// Minimum commits the window must hold for the percentiles to mean
  /// anything.
  uint64_t min_commits = 10000;
};

/// Builds workload `name` for `seed`; false when the name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace sbft::bench

#endif  // SBFT_BENCHMARK_WORKLOADS_H_
