// Correctness checks every benchmark run applies to what the program
// did. Each check takes plain data gathered from outside the program
// (wire observations, public counters, store versions) so the self-test
// can feed it a corrupted copy and show that it fails.

#ifndef SBFT_BENCHMARK_CHECKS_H_
#define SBFT_BENCHMARK_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/traffic_source.h"
#include "storage/audit_log.h"

namespace sbft::bench {

using Failures = std::vector<std::string>;

/// Write ledger built from the wire: the write keys of every client
/// request and the verdicts the clients were told, set against the
/// stores' version deltas since the load.
struct Ledger {
  static constexpr uint8_t kCommitAck = 1;
  static constexpr uint8_t kAbortAck = 2;
  /// Client txn id -> keys its request writes (one entry per write op).
  std::unordered_map<TxnId, std::vector<std::string>> writes;
  /// Client txn id -> OR of the verdict bits delivered to its client.
  std::unordered_map<TxnId, uint8_t> verdicts;
  /// Key -> VersionOf(key) now minus VersionOf(key) after the load;
  /// only keys whose version moved.
  std::unordered_map<std::string, uint64_t> deltas;
};

/// A commit told to a client is never contradicted, and every key's
/// version delta is explained by commit-acked writes: exactly on a
/// drained run, within [acked, acked + unresolved] otherwise. Catches a
/// lost acknowledged write, an applied ABORT and a double apply.
void CheckLedger(const Ledger& ledger, bool drained, Failures* out);

/// Every completed workflow chain has exactly one commit-acked attempt
/// per hop, and no other attempt of that hop was commit-acked.
void CheckChains(const std::vector<core::TrafficSource::ChainRecord>& chains,
                 const Ledger& ledger, Failures* out);

/// No commit is faster than one round trip from the home region to the
/// nearest executor region.
void CheckCommitFloor(int64_t latency_min, uint64_t samples, int64_t floor,
                      Failures* out);

struct SourceTally {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t dropped = 0;
  uint64_t inflight = 0;
};
/// offered = committed + aborted + dropped + in flight, per source.
void CheckConservation(const std::vector<SourceTally>& sources,
                       Failures* out);

/// Goodput never exceeds the offered rate: commits in the window are
/// bounded by the work offered in it plus the backlog carried in.
void CheckGoodputBound(uint64_t commits, uint64_t offered, uint64_t backlog,
                       Failures* out);

/// Every plane's hash-chained audit log verifies.
void CheckAuditChains(const std::vector<const storage::AuditLog*>& logs,
                      Failures* out);

/// The commits and latency samples this benchmark saw on the wire agree
/// with the program's own counters and latency histogram.
void CheckAgainstProgram(uint64_t seen_samples, uint64_t program_samples,
                         int64_t seen_p50, int64_t program_p50,
                         Failures* out);

/// Exact equality of two passes' simulated results; `what` names them.
template <typename T>
void CheckIdentical(const char* what, const T& a, const T& b, Failures* out) {
  if (!(a == b)) {
    out->push_back(std::string(what) +
                   ": simulated results differ (the run is not "
                   "deterministic, or tracing perturbed it)");
  }
}

/// Feeds every check a valid and a corrupted input; returns true when
/// each accepts the first and rejects the second. Prints one line per
/// check to stdout.
bool SelfTest();

}  // namespace sbft::bench

#endif  // SBFT_BENCHMARK_CHECKS_H_
