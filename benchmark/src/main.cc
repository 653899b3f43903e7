// End-to-end benchmark driver. One process runs one workload on the
// serial engine and prints its metrics; the last stdout line is a JSON
// object {correct, attempted, failed, metrics}.
//
//   sbft_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   sbft_bench --selftest
//   sbft_bench --sweep NAME --seed N --rates R1,R2,... [--zipf T]
//              [--slots K] [--window S] [--no-faults]
//
// --trace 0 repeats fresh untraced passes for S wall seconds and reports
// the end-to-end metrics (wall-clock ones as medians over the passes).
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics; the traced pass writes DIR/NAME.spans.tsv.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "pass.h"
#include "workloads.h"

namespace sbft::bench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Elapsed(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Median ns per call of `fn` over several timed batches.
template <typename Fn>
double NsPerCall(Fn fn) {
  constexpr int kBatches = 9;
  constexpr int kCalls = 4000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    WallClock::time_point t0 = WallClock::now();
    for (int i = 0; i < kCalls; ++i) fn(i);
    per_call.push_back(Elapsed(t0) * 1e9 / kCalls);
  }
  return Median(per_call);
}

/// Times the crypto module's public hash and MAC over buffers of the
/// traced run's mean wire size.
std::pair<double, double> CryptoCosts(double mean_wire_bytes) {
  size_t len = std::max<size_t>(64, static_cast<size_t>(mean_wire_bytes));
  Bytes buf(len, 0x5a);
  Bytes key(32, 0x17);
  volatile uint8_t sink = 0;
  double sha_ns = NsPerCall([&](int i) {
    buf[0] = static_cast<uint8_t>(i);
    sink = sink + crypto::Sha256::Hash(buf).data()[0];
  });
  double hmac_ns = NsPerCall([&](int i) {
    buf[0] = static_cast<uint8_t>(i);
    sink = sink + crypto::HmacSha256(key, buf).data()[0];
  });
  return {sha_ns * 1024.0 / static_cast<double>(len), hmac_ns};
}

std::vector<Metric> EndToEnd(const SimResult& sim, double setup_s,
                             const std::vector<double>& commits_per_wall_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"commits_per_wall_s", Median(commits_per_wall_s), "txn/s"},
      {"goodput_tps", sim.goodput_tps, "txn/s"},
      {"latency_p50_ms", Ms(sim.latency_p50), "ms"},
      {"latency_p99_ms", Ms(sim.latency_p99), "ms"},
      {"latency_p999_ms", Ms(sim.latency_p999), "ms"},
      {"cents_per_ktxn", sim.cents_per_ktxn, "cents"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const SimResult& sim, const TraceResult& trace,
                             uint64_t traced_commits, double traced_wall_s,
                             double untraced_wall_s) {
  const double txns = static_cast<double>(sim.commits);
  const double xtxns = static_cast<double>(sim.xtxns);
  std::vector<Metric> m = {
      {"sim.events_per_txn", Ratio(sim.events, txns), "events"},
      {"sim.peak_pending_events",
       static_cast<double>(trace.peak_pending_events), "events"},
      {"sim.msgs_per_txn", Ratio(sim.msgs, txns), "msgs"},
      {"sim.bytes_per_txn", Ratio(sim.bytes, txns), "bytes"},
      {"shim.txns_per_batch", Ratio(sim.shim_txns, sim.shim_batches), "txns"},
      {"shim.view_changes", static_cast<double>(sim.shim_view_changes),
       "count"},
      {"serverless.spawns_per_txn", Ratio(sim.spawns, txns), "spawns"},
      {"serverless.cold_starts_per_txn", Ratio(sim.cold_starts, txns),
       "starts"},
      {"verifier.applied_per_txn", Ratio(sim.verifier_applied, txns), "txns"},
      {"verifier.aborted_per_txn", Ratio(sim.verifier_aborted, txns), "txns"},
      {"storage.writes_per_txn", Ratio(sim.storage_writes, txns), "writes"},
      {"core.vote_msgs_per_xtxn", Ratio(sim.vote_msgs, xtxns), "msgs"},
      {"core.lock_waits_per_xtxn", Ratio(sim.lock_waits, xtxns), "waits"},
      {"core.coord_view_changes", static_cast<double>(sim.coord_view_changes),
       "count"},
      {"core.hop_attempts_per_hop", Ratio(sim.hop_attempts, sim.hops),
       "attempts"},
  };
  const double wall_txns = static_cast<double>(traced_commits);
  for (int layer = 0; layer < kLayerCount; ++layer) {
    const LayerStats& s = trace.layers[layer];
    const double n = static_cast<double>(s.deliveries);
    const std::string name = LayerName(layer);
    m.push_back({name + ".sim_net_ms", Ratio(Ms(s.net_ns), n), "ms"});
    m.push_back({name + ".sim_cpu_ms", Ratio(Ms(s.cpu_ns), n), "ms"});
    m.push_back({name + ".wall_ns_per_txn",
                 Ratio(static_cast<double>(s.wall_ns), wall_txns), "ns"});
  }
  m.push_back({"sim.unattributed_wall_ns_per_txn",
               Ratio(static_cast<double>(trace.unattributed_wall_ns), wall_txns),
               "ns"});
  m.push_back({"core.failover_gap_ms", Ms(sim.commit_gap), "ms"});
  auto [sha_ns_per_kb, hmac_ns] = CryptoCosts(Ratio(sim.bytes, sim.msgs));
  m.push_back({"crypto.sha256_ns_per_kb", sha_ns_per_kb, "ns"});
  m.push_back({"crypto.hmac_ns_per_msg", hmac_ns, "ns"});
  m.push_back({"trace.overhead_frac",
               Ratio(traced_wall_s, untraced_wall_s) - 1.0, "fraction"});
  return m;
}

void Report(const std::string& what, const Failures& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED [%s] %s\n", what.c_str(), f.c_str());
  }
}

int RunBenchmark(const Workload& w, double seconds, bool trace,
                 const std::string& out_dir,
                 WallClock::time_point origin) {
  const WallClock::time_point deadline =
      origin + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SimResult first;
  double setup_s = 0;
  std::vector<double> commits_per_wall_s;
  // Traced runs: accumulated over the traced passes.
  TraceResult trace_sum;
  uint64_t traced_commits = 0;
  double traced_wall_s = 0;
  double untraced_wall_s = 0;
  std::vector<Span> spans;

  auto account = [&](const std::string& label, PassResult& p, int pass) {
    attempted += p.sim.attempted;
    failed += p.sim.failed;
    if (pass == 0) {
      first = p.sim;
    } else {
      CheckIdentical(label.c_str(), first, p.sim, &p.failures);
    }
    Report(label, p.failures);
    if (!p.failures.empty()) correct = false;
  };

  // Whole rounds only (one untraced pass, plus one traced pass when
  // tracing): a round starts while the last round's duration still fits
  // before the deadline, so a run lasts about `seconds`.
  int pass = 0;
  double round_s = 0;
  do {
    const WallClock::time_point round_start = WallClock::now();
    PassResult p = RunPass(w, false, pass == 0 ? origin : WallClock::now());
    if (pass == 0) setup_s = p.setup_s;
    commits_per_wall_s.push_back(
        Ratio(static_cast<double>(p.sim.commits), p.window_wall_s));
    untraced_wall_s += p.window_wall_s;
    std::fprintf(stderr,
                 "pass %d untraced: %llu commits, window %.3f s wall, "
                 "%llu latency samples\n",
                 pass, static_cast<unsigned long long>(p.sim.commits),
                 p.window_wall_s,
                 static_cast<unsigned long long>(p.sim.latency_samples));
    account("untraced pass " + std::to_string(pass), p, pass);
    ++pass;
    if (trace) {
      PassResult t = RunPass(w, true, WallClock::now());
      traced_wall_s += t.window_wall_s;
      traced_commits += t.sim.commits;
      for (int l = 0; l < kLayerCount; ++l) {
        trace_sum.layers[l].deliveries += t.trace.layers[l].deliveries;
        trace_sum.layers[l].net_ns += t.trace.layers[l].net_ns;
        trace_sum.layers[l].cpu_ns += t.trace.layers[l].cpu_ns;
        trace_sum.layers[l].wall_ns += t.trace.layers[l].wall_ns;
      }
      trace_sum.unattributed_wall_ns += t.trace.unattributed_wall_ns;
      trace_sum.peak_pending_events = t.trace.peak_pending_events;
      spans = std::move(t.trace.spans);
      std::fprintf(stderr, "pass %d traced: window %.3f s wall, %zu spans\n",
                   pass, t.window_wall_s, spans.size());
      account("traced pass " + std::to_string(pass), t, pass);
      ++pass;
    }
    round_s = Elapsed(round_start);
  } while (WallClock::now() +
               std::chrono::microseconds(static_cast<int64_t>(round_s * 1e6)) <
           deadline);

  std::printf("workload %s seed %llu: %d passes, %llu latency samples per "
              "pass\n",
              w.name.c_str(), static_cast<unsigned long long>(w.config.seed),
              pass, static_cast<unsigned long long>(first.latency_samples));
  if (trace) {
    // Net and CPU means are per delivery; sums over identical passes
    // leave them unchanged.
    const std::string path = out_dir + "/" + w.name + ".spans.tsv";
    if (!WriteSpans(path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %s (%zu)\n", path.c_str(), spans.size());
    PrintResult(correct, attempted, failed,
                PerLayer(first, trace_sum, traced_commits, traced_wall_s,
                         untraced_wall_s));
  } else {
    PrintResult(correct, attempted, failed,
                EndToEnd(first, setup_s, commits_per_wall_s));
  }
  return 0;
}

/// Offered-rate sweep of one workload (one untraced pass per rate):
/// locates the knee behind xshard_open's rate and reproduces the
/// workflow abort storm.
int RunSweep(Workload w, const std::vector<double>& rates, double zipf,
             uint32_t slots, double window_s, bool faults) {
  if (!w.config.traffic.open_loop) {
    std::fprintf(stderr, "--sweep needs an open-loop workload\n");
    return 2;
  }
  if (!faults) {
    w.faults.clear();
    w.config.byzantine_executors = 0;
  }
  if (zipf >= 0) w.config.traffic.workflow.zipf_theta = zipf;
  if (slots > 0) w.config.traffic.workflow.state_keys_per_function = slots;
  if (window_s > 0) w.window = Seconds(window_s);
  w.min_commits = 0;
  std::printf("%-10s %10s %10s %9s %9s %9s %10s %10s %8s %8s\n", "offered/s",
              "attempted", "goodput/s", "p50_ms", "p99_ms", "p999_ms",
              "commits", "aborts", "failed", "wall_s");
  for (double rate : rates) {
    w.config.traffic.offered_tps = rate;
    WallClock::time_point t0 = WallClock::now();
    PassResult p = RunPass(w, false, t0);
    const SimResult& r = p.sim;
    std::printf("%-10.0f %10llu %10.0f %9.2f %9.2f %9.2f %10llu %10llu "
                "%8llu %8.2f\n",
                rate, static_cast<unsigned long long>(r.attempted),
                r.goodput_tps, Ms(r.latency_p50), Ms(r.latency_p99),
                Ms(r.latency_p999), static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.aborts),
                static_cast<unsigned long long>(r.failed), Elapsed(t0));
    std::fflush(stdout);
    Report("rate " + std::to_string(rate), p.failures);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sbft_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       sbft_bench --selftest\n"
               "       sbft_bench --sweep NAME --seed N --rates R1,R2,... "
               "[--zipf T] [--slots K] [--window S] [--no-faults]\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace sbft::bench

int main(int argc, char** argv) {
  using namespace sbft::bench;
  // Set-up time runs from here, the start of main, to the first
  // architecture started: one cold set-up per process.
  const WallClock::time_point origin = WallClock::now();

  std::string workload;
  std::string sweep;
  std::string out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  uint64_t trace = 0;
  double zipf = -1;
  uint64_t slots = 0;
  double window_s = 0;
  bool faults = true;
  std::vector<double> rates;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    const char* a = argv[i];
    bool ok = true;
    if (std::strcmp(a, "--selftest") == 0) {
      return SelfTest() ? 0 : 1;
    } else if (std::strcmp(a, "--workload") == 0) {
      workload = next();
    } else if (std::strcmp(a, "--sweep") == 0) {
      sweep = next();
    } else if (std::strcmp(a, "--out") == 0) {
      out_dir = next();
    } else if (std::strcmp(a, "--seed") == 0) {
      ok = ParseU64(next(), &seed);
    } else if (std::strcmp(a, "--seconds") == 0) {
      ok = ParseDouble(next(), &seconds) && seconds > 0 && seconds <= 3600;
    } else if (std::strcmp(a, "--trace") == 0) {
      ok = ParseU64(next(), &trace) && trace <= 1;
    } else if (std::strcmp(a, "--zipf") == 0) {
      ok = ParseDouble(next(), &zipf) && zipf >= 0 && zipf < 1;
    } else if (std::strcmp(a, "--slots") == 0) {
      ok = ParseU64(next(), &slots) && slots > 0 && slots <= 100000;
    } else if (std::strcmp(a, "--window") == 0) {
      ok = ParseDouble(next(), &window_s) && window_s > 0 && window_s <= 600;
    } else if (std::strcmp(a, "--no-faults") == 0) {
      faults = false;
    } else if (std::strcmp(a, "--rates") == 0) {
      std::string list = next();
      size_t pos = 0;
      while (ok && pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        double r = 0;
        ok = ParseDouble(list.substr(pos, comma - pos).c_str(), &r) && r > 0;
        rates.push_back(r);
        pos = comma + 1;
      }
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }

  Workload w;
  if (!sweep.empty()) {
    if (!MakeWorkload(sweep, seed, &w) || rates.empty()) return Usage();
    return RunSweep(w, rates, zipf, static_cast<uint32_t>(slots), window_s,
                    faults);
  }
  if (!MakeWorkload(workload, seed, &w)) return Usage();
  return RunBenchmark(w, seconds, trace == 1, out_dir, origin);
}
