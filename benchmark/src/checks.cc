#include "checks.h"

#include <cstdio>
#include <set>

#include "pass.h"

namespace sbft::bench {

namespace {

// A failing check reports its first few offenders and a total, so one
// systematic fault does not bury the output.
constexpr int kMaxReported = 5;

class Reporter {
 public:
  Reporter(const char* check, Failures* out) : check_(check), out_(out) {}
  ~Reporter() {
    if (count_ > kMaxReported) {
      out_->push_back(std::string(check_) + ": " +
                      std::to_string(count_ - kMaxReported) +
                      " more violations");
    }
  }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  void Fail(const std::string& what) {
    if (++count_ <= kMaxReported) {
      out_->push_back(std::string(check_) + ": " + what);
    }
  }

 private:
  const char* check_;
  Failures* out_;
  int count_ = 0;
};

}  // namespace

void CheckLedger(const Ledger& ledger, bool drained, Failures* out) {
  Reporter report("write-ledger", out);
  std::unordered_map<std::string, uint64_t> acked;
  std::unordered_map<std::string, uint64_t> unresolved;
  for (const auto& [txn, keys] : ledger.writes) {
    auto it = ledger.verdicts.find(txn);
    uint8_t verdict = it == ledger.verdicts.end() ? 0 : it->second;
    if (verdict == (Ledger::kCommitAck | Ledger::kAbortAck)) {
      report.Fail("txn " + std::to_string(txn) +
                  " was told both COMMIT and ABORT");
    }
    if (verdict == 0 && drained) {
      report.Fail("txn " + std::to_string(txn) +
                  " has no verdict after the drain");
    }
    for (const std::string& key : keys) {
      if (verdict & Ledger::kCommitAck) {
        ++acked[key];
      } else if (verdict == 0) {
        ++unresolved[key];
      }
    }
  }
  std::set<std::string> keys;
  for (const auto& [key, n] : acked) keys.insert(key);
  for (const auto& [key, n] : unresolved) keys.insert(key);
  for (const auto& [key, n] : ledger.deltas) keys.insert(key);
  for (const std::string& key : keys) {
    auto find = [&key](const std::unordered_map<std::string, uint64_t>& m) {
      auto it = m.find(key);
      return it == m.end() ? uint64_t{0} : it->second;
    };
    uint64_t delta = find(ledger.deltas);
    uint64_t lo = find(acked);
    uint64_t hi = lo + (drained ? 0 : find(unresolved));
    if (delta < lo || delta > hi) {
      report.Fail("key " + key + " moved " + std::to_string(delta) +
                  " versions, expected " + std::to_string(lo) +
                  (hi == lo ? "" : ".." + std::to_string(hi)) +
                  " from commit-acked writes");
    }
  }
}

void CheckChains(const std::vector<core::TrafficSource::ChainRecord>& chains,
                 const Ledger& ledger, Failures* out) {
  Reporter report("chains", out);
  for (const auto& chain : chains) {
    for (size_t hop = 0; hop < chain.hop_attempts.size(); ++hop) {
      int committed = 0;
      for (TxnId id : chain.hop_attempts[hop]) {
        auto it = ledger.verdicts.find(id);
        if (it != ledger.verdicts.end() &&
            (it->second & Ledger::kCommitAck)) {
          ++committed;
        }
      }
      if (committed > 1 || (chain.completed && committed != 1)) {
        report.Fail("chain " + std::to_string(chain.chain_id) + " hop " +
                    std::to_string(hop) + " has " +
                    std::to_string(committed) + " commit-acked attempts");
      }
    }
  }
}

void CheckCommitFloor(int64_t latency_min, uint64_t samples, int64_t floor,
                      Failures* out) {
  if (samples > 0 && latency_min < floor) {
    out->push_back("commit-floor: a commit took " +
                   std::to_string(latency_min) + " ns, below the " +
                   std::to_string(floor) +
                   " ns round trip to the nearest executor region");
  }
}

void CheckConservation(const std::vector<SourceTally>& sources,
                       Failures* out) {
  Reporter report("conservation", out);
  for (size_t i = 0; i < sources.size(); ++i) {
    const SourceTally& s = sources[i];
    uint64_t accounted = s.completed + s.aborted + s.dropped + s.inflight;
    if (s.offered != accounted) {
      report.Fail("source " + std::to_string(i) + " offered " +
                  std::to_string(s.offered) + " but accounts for " +
                  std::to_string(accounted));
    }
  }
}

void CheckGoodputBound(uint64_t commits, uint64_t offered, uint64_t backlog,
                       Failures* out) {
  if (commits > offered + backlog) {
    out->push_back("goodput-bound: " + std::to_string(commits) +
                   " commits exceed " + std::to_string(offered) +
                   " offered + " + std::to_string(backlog) + " backlog");
  }
}

void CheckAuditChains(const std::vector<const storage::AuditLog*>& logs,
                      Failures* out) {
  for (size_t i = 0; i < logs.size(); ++i) {
    if (!logs[i]->VerifyChain()) {
      out->push_back("audit-chain: log " + std::to_string(i) +
                     " fails VerifyChain");
    }
  }
}

void CheckAgainstProgram(uint64_t seen_samples, uint64_t program_samples,
                         int64_t seen_p50, int64_t program_p50,
                         Failures* out) {
  if (seen_samples != program_samples) {
    out->push_back("program-agreement: " + std::to_string(seen_samples) +
                   " responses seen on the wire, the program recorded " +
                   std::to_string(program_samples));
  }
  // The program's histogram reports a bucket's upper bound (32
  // sub-buckets per power of two), so the exact median sits at most one
  // bucket below it.
  if (seen_p50 > program_p50 || seen_p50 < program_p50 - program_p50 / 16) {
    out->push_back("program-agreement: exact p50 " +
                   std::to_string(seen_p50) +
                   " ns is outside the program's p50 bucket ending at " +
                   std::to_string(program_p50) + " ns");
  }
}

namespace {

// One self-test case: the check must accept `good` and reject `bad`.
template <typename Run>
bool Case(const char* name, Run run) {
  Failures good;
  Failures bad;
  run(&good, &bad);
  const bool ok = good.empty() && !bad.empty();
  std::printf("selftest %-20s %s", name, ok ? "ok" : "FAILED");
  if (!bad.empty()) std::printf("  (corrupted: %s)", bad.front().c_str());
  if (!good.empty()) {
    std::printf("  (valid input rejected: %s)", good.front().c_str());
  }
  std::printf("\n");
  return ok;
}

Ledger SampleLedger() {
  Ledger l;
  l.writes[1] = {"user1", "user2"};
  l.writes[2] = {"user2"};
  l.writes[3] = {"user3"};
  l.verdicts[1] = Ledger::kCommitAck;
  l.verdicts[2] = Ledger::kCommitAck;
  l.verdicts[3] = Ledger::kAbortAck;
  l.deltas["user1"] = 1;
  l.deltas["user2"] = 2;
  return l;
}

}  // namespace

bool SelfTest() {
  bool ok = true;
  ok &= Case("ledger-lost-write", [](Failures* good, Failures* bad) {
    Ledger l = SampleLedger();
    CheckLedger(l, true, good);
    l.deltas["user2"] = 1;  // An acknowledged write never landed.
    CheckLedger(l, true, bad);
  });
  ok &= Case("ledger-applied-abort", [](Failures* good, Failures* bad) {
    Ledger l = SampleLedger();
    CheckLedger(l, true, good);
    l.deltas["user3"] = 1;  // The ABORTed txn's write was applied.
    CheckLedger(l, true, bad);
  });
  ok &= Case("ledger-double-apply", [](Failures* good, Failures* bad) {
    Ledger l = SampleLedger();
    l.writes[4] = {"user4"};  // Unresolved: 0..1 allowed when undrained.
    l.deltas["user4"] = 1;
    CheckLedger(l, false, good);
    l.deltas["user1"] = 2;  // Applied twice.
    CheckLedger(l, false, bad);
  });
  ok &= Case("ledger-contradiction", [](Failures* good, Failures* bad) {
    Ledger l = SampleLedger();
    CheckLedger(l, true, good);
    l.verdicts[1] |= Ledger::kAbortAck;
    CheckLedger(l, true, bad);
  });
  ok &= Case("chains", [](Failures* good, Failures* bad) {
    Ledger l = SampleLedger();
    core::TrafficSource::ChainRecord chain;
    chain.chain_id = 7;
    chain.completed = true;
    chain.hop_attempts = {{3, 1}, {2}};
    CheckChains({chain}, l, good);
    chain.hop_attempts = {{1}, {2, 1}};  // Hop 1 committed twice.
    CheckChains({chain}, l, bad);
  });
  ok &= Case("commit-floor", [](Failures* good, Failures* bad) {
    CheckCommitFloor(Millis(3), 10, Millis(2), good);
    CheckCommitFloor(Millis(1), 10, Millis(2), bad);
  });
  ok &= Case("conservation", [](Failures* good, Failures* bad) {
    SourceTally s{10, 6, 2, 1, 1};
    CheckConservation({s}, good);
    s.completed = 7;
    CheckConservation({s}, bad);
  });
  ok &= Case("goodput-bound", [](Failures* good, Failures* bad) {
    CheckGoodputBound(100, 95, 10, good);
    CheckGoodputBound(106, 95, 10, bad);
  });
  ok &= Case("audit-chain", [](Failures* good, Failures* bad) {
    storage::AuditLog log;
    crypto::Digest d;
    for (SeqNum s = 1; s <= 3; ++s) {
      d.mutable_data()[0] = static_cast<uint8_t>(s);
      (void)log.Append(s, d, d, storage::AuditLog::Outcome::kApplied,
                       Millis(s));
    }
    CheckAuditChains({&log}, good);
    // Tamper with a recorded outcome behind the chain's back.
    auto& entries =
        const_cast<std::vector<storage::AuditLog::Entry>&>(log.entries());
    entries[1].outcome = storage::AuditLog::Outcome::kAborted;
    CheckAuditChains({&log}, bad);
  });
  ok &= Case("program-agreement", [](Failures* good, Failures* bad) {
    CheckAgainstProgram(100, 100, Millis(40), Millis(41), good);
    CheckAgainstProgram(100, 99, Millis(40), Millis(41), bad);
  });
  ok &= Case("passes-identical", [](Failures* good, Failures* bad) {
    SimResult a;
    a.commits = 5;
    a.latency_p99 = Millis(7);
    SimResult b = a;
    CheckIdentical("traced vs untraced", a, b, good);
    b.events = 1;  // One extra event: tracing perturbed the run.
    CheckIdentical("traced vs untraced", a, b, bad);
  });
  return ok;
}

}  // namespace sbft::bench
