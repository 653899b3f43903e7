#include "pass.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/architecture.h"
#include "faults/controller.h"
#include "faults/schedule.h"
#include "serverless/billing.h"
#include "shim/message.h"
#include "workload/workflow.h"
#include "workload/ycsb.h"

namespace sbft::bench {

const char* LayerName(int layer) {
  static const char* const kNames[kLayerCount] = {
      "core.client", "shim",     "serverless",
      "storage",     "verifier", "core.coordinator"};
  return kNames[layer];
}

namespace {

int LayerOf(ActorId id) {
  using core::Architecture;
  if (id >= Architecture::kFirstExecutorId) return kServerlessLayer;
  if (id >= Architecture::kFirstClientId) return kClientLayer;  // + sources
  if (id >= Architecture::kVerifierId) {
    // Per-shard block 900000 + 1000 * shard: +0 verifier, +1 storage,
    // +2 the no-shim coordinator (a shim stand-in).
    ActorId offset = (id - Architecture::kVerifierId) % 1000;
    if (offset == 0) return kVerifierLayer;
    if (offset == 1) return kStorageLayer;
    return kShimLayer;
  }
  if (id >= Architecture::kCoordinatorId) return kCoordinatorLayer;
  return kShimLayer;
}

bool IsClient(ActorId id) {
  return id >= core::Architecture::kFirstClientId &&
         id < core::Architecture::kFirstExecutorId;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Granularity of the drain's "anything still in flight?" poll.
constexpr SimDuration kDrainStep = Millis(100);

/// Nearest-rank percentile of `v` (reorders it).
int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<long>(rank), v->end());
  return (*v)[rank];
}

/// Raw cumulative counters, read at the window's edges.
struct Counters {
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
  uint64_t completed = 0;
  uint64_t offered = 0;
  uint64_t aborted = 0;
  uint64_t dropped = 0;
  double lambda_cents = 0;
};

Counters Snapshot(core::Architecture* arch) {
  Counters c;
  c.events = arch->simulator()->events_executed();
  c.msgs = arch->network()->messages_sent();
  c.bytes = arch->network()->bytes_sent();
  for (const shim::PbftReplica* r : arch->pbft_replicas()) {
    c.shim_batches += r->committed_batches();
    c.shim_txns += r->committed_txns();
  }
  c.shim_view_changes = arch->TotalViewChanges();
  for (uint32_t s = 0; s < arch->shard_count(); ++s) {
    core::ShardPlane* p = arch->plane(s);
    c.spawns += p->spawner()->executors_spawned();
    c.cold_starts += p->cloud()->cold_starts();
    c.lambda_cents += p->cloud()->cost_meter()->lambda_cents();
    // Direct settles plus 2PC fragment decisions applied at this shard.
    c.verifier_applied +=
        p->verifier()->applied_txns() + p->verifier()->twopc_committed();
    c.verifier_aborted +=
        p->verifier()->aborted_txns() + p->verifier()->twopc_aborted();
    c.lock_waits += p->verifier()->lock_waits_queued();
    c.storage_writes += p->store()->writes();
  }
  for (uint32_t r = 0; r < arch->coordinator_replicas(); ++r) {
    c.xtxns += arch->coordinator(r)->txns_coordinated();
    c.vote_msgs += arch->coordinator(r)->vote_cert_msgs();
  }
  c.coord_view_changes = arch->CoordinatorViewChanges();
  c.completed = arch->TotalCompleted();
  c.offered = arch->TotalOffered();
  c.aborted = arch->TotalAborted();
  c.dropped = arch->TotalDropped();
  return c;
}

/// Every key the workload's load phase creates.
std::vector<std::string> Keyspace(const core::SystemConfig& config) {
  std::vector<std::string> keys;
  if (config.traffic.open_loop &&
      config.traffic.family == workload::TrafficFamily::kWorkflow) {
    const workload::WorkflowConfig& wf = config.traffic.workflow;
    for (uint32_t fn = 0; fn < wf.functions; ++fn) {
      for (uint32_t s = 0; s < wf.state_keys_per_function; ++s) {
        keys.push_back(workload::WorkflowGenerator::StateKey(fn, s));
      }
    }
  } else {
    keys.reserve(config.workload.record_count);
    for (uint64_t i = 0; i < config.workload.record_count; ++i) {
      keys.push_back(workload::YcsbGenerator::KeyFor(i));
    }
  }
  return keys;
}

class PassRunner {
 public:
  PassRunner(const Workload& w, bool traced) : w_(w), traced_(traced) {}
  PassRunner(const PassRunner&) = delete;
  PassRunner& operator=(const PassRunner&) = delete;

  PassResult Run(WallClock::time_point setup_origin);

 private:
  void OnDeliver(const sim::Envelope& env);
  void OnCommit(SimTime now);
  /// Advances the simulation to `deadline`: Architecture::RunUntil on
  /// the untraced pass; a hand-driven, per-step-timed loop (same event
  /// order as RunUntil) on the traced pass.
  void Advance(SimTime deadline);
  void SnapshotVersions();
  void FinishLedger();
  SimResult Measure(const Counters& c0, const Counters& c1);
  void RunChecks(PassResult* result, uint64_t window_offered,
                 uint64_t backlog_at_start, const Histogram& program_latency);

  const Workload& w_;
  const bool traced_;
  std::unique_ptr<core::Architecture> arch_;
  std::unique_ptr<faults::FaultController> faults_;

  // --- phase flags, flipped between Advance calls ---
  bool in_window_ = false;   ///< Counting commits, layers and spans.
  bool recording_ = false;   ///< Taking latency samples.

  // --- light observation (both passes) ---
  static constexpr SimTime kResolved = -1;
  /// Client txn id -> first send time, or kResolved once answered.
  std::unordered_map<TxnId, SimTime> first_sent_;
  std::vector<int64_t> samples_;
  uint64_t recorded_aborts_ = 0;
  uint64_t window_commits_ = 0;
  uint64_t window_aborts_ = 0;
  SimTime last_commit_ = 0;
  int64_t commit_gap_ = 0;

  // --- traced pass only ---
  Ledger ledger_;
  std::vector<std::string> keyspace_;
  std::vector<uint64_t> base_versions_;
  TraceResult trace_;
  int step_layer_ = -1;
  bool step_span_ = false;
  WallClock::time_point window_wall_origin_;
  std::vector<size_t> chains_before_;
};

void PassRunner::OnCommit(SimTime now) {
  if (!in_window_) return;
  ++window_commits_;
  commit_gap_ = std::max<int64_t>(commit_gap_, now - last_commit_);
  last_commit_ = now;
}

void PassRunner::OnDeliver(const sim::Envelope& env) {
  const auto* msg = static_cast<const shim::Message*>(env.message.get());
  if (msg == nullptr) return;
  const SimTime now = arch_->simulator()->now();
  uint64_t txn = 0;
  if (msg->kind == shim::MsgKind::kClientRequest && IsClient(env.from)) {
    const auto* req = static_cast<const shim::ClientRequestMsg*>(msg);
    txn = req->txn.id;
    // The first delivery's send stamp is the client's first send — for
    // an open-loop source, the arrival itself.
    auto [it, fresh] = first_sent_.try_emplace(txn, env.sent_at);
    if (!fresh && it->second != kResolved) {
      it->second = std::min(it->second, env.sent_at);
    }
    if (traced_) {
      auto [wit, wfresh] = ledger_.writes.try_emplace(txn);
      if (wfresh) {
        for (const workload::Operation& op : req->txn.ops) {
          if (op.type == workload::OpType::kWrite) wit->second.push_back(op.key);
        }
      }
    }
  } else if (msg->kind == shim::MsgKind::kResponse && IsClient(env.to)) {
    const auto* resp = static_cast<const shim::ResponseMsg*>(msg);
    txn = resp->txn_id;
    if (traced_) {
      ledger_.verdicts[txn] |=
          resp->aborted ? Ledger::kAbortAck : Ledger::kCommitAck;
    }
    // Only the first verdict counts, as at the client; a duplicate
    // response (or one racing a retransmission) finds kResolved.
    auto it = first_sent_.find(txn);
    if (it != first_sent_.end() && it->second != kResolved) {
      if (resp->aborted) {
        if (in_window_) ++window_aborts_;
        if (recording_) ++recorded_aborts_;
      } else {
        OnCommit(now);
        if (recording_) samples_.push_back(now - it->second);
      }
      it->second = kResolved;
    }
  }
  if (!traced_ || !in_window_) return;
  const int layer = LayerOf(env.to);
  LayerStats& stats = trace_.layers[layer];
  ++stats.deliveries;
  stats.net_ns += env.delivered_at - env.sent_at;
  stats.cpu_ns += now - env.delivered_at;
  step_layer_ = layer;
  Span span;
  span.layer = layer;
  span.kind = static_cast<int32_t>(msg->kind);
  span.txn = txn;
  span.sent = env.sent_at;
  span.delivered = env.delivered_at;
  span.handled = now;
  trace_.spans.push_back(span);
  step_span_ = true;
}

void PassRunner::Advance(SimTime deadline) {
  if (!traced_) {
    arch_->RunUntil(deadline);
    return;
  }
  sim::Simulator* sim = arch_->simulator();
  SimTime next;
  WallClock::time_point start = WallClock::now();
  while (sim->NextEventTime(&next) && next <= deadline) {
    step_layer_ = -1;
    step_span_ = false;
    sim->Step();
    const WallClock::time_point end = WallClock::now();
    if (in_window_) {
      const int64_t ns = (end - start).count();
      if (step_layer_ >= 0) {
        trace_.layers[step_layer_].wall_ns += ns;
      } else {
        trace_.unattributed_wall_ns += ns;
      }
      if (step_span_) {
        Span& span = trace_.spans.back();
        span.wall_start = (start - window_wall_origin_).count();
        span.wall_end = (end - window_wall_origin_).count();
      }
      trace_.peak_pending_events =
          std::max<uint64_t>(trace_.peak_pending_events, sim->pending_events());
    }
    start = end;
  }
  sim->FastForwardTo(deadline);
}

void PassRunner::SnapshotVersions() {
  keyspace_ = Keyspace(w_.config);
  base_versions_.reserve(keyspace_.size());
  const storage::ShardRouter& router = arch_->router();
  for (const std::string& key : keyspace_) {
    base_versions_.push_back(
        arch_->plane(router.ShardOf(key))->store()->VersionOf(key));
  }
}

void PassRunner::FinishLedger() {
  const storage::ShardRouter& router = arch_->router();
  for (size_t i = 0; i < keyspace_.size(); ++i) {
    const std::string& key = keyspace_[i];
    uint64_t now = arch_->plane(router.ShardOf(key))->store()->VersionOf(key);
    if (now != base_versions_[i]) ledger_.deltas[key] = now - base_versions_[i];
  }
}

SimResult PassRunner::Measure(const Counters& c0, const Counters& c1) {
  SimResult r;
  r.commits = window_commits_;
  r.aborts = window_aborts_;
  r.latency_samples = samples_.size();
  if (!samples_.empty()) {
    r.latency_min = *std::min_element(samples_.begin(), samples_.end());
  }
  r.latency_p50 = Percentile(&samples_, 50.0);
  r.latency_p99 = Percentile(&samples_, 99.0);
  r.latency_p999 = Percentile(&samples_, 99.9);
  const double window_s = ToSeconds(w_.window);
  r.goodput_tps = static_cast<double>(r.commits) / window_s;

  // Fig. 8 cost: Lambda charges accrued in the window plus VM time for
  // every shim, verifier and coordinator machine.
  const core::SystemConfig& cfg = arch_->config();
  int vm_cores = (static_cast<int>(cfg.shim.n) * cfg.shim_cores +
                  cfg.verifier_cores) *
                 static_cast<int>(arch_->shard_count());
  if (arch_->shard_count() > 1) {
    int coord_cores =
        cfg.coordinator_cores > 0 ? cfg.coordinator_cores : cfg.verifier_cores;
    vm_cores += coord_cores * static_cast<int>(arch_->coordinator_replicas());
  }
  serverless::CostMeter vm;
  vm.ChargeVmTime(vm_cores, w_.window);
  r.cents_per_ktxn =
      Ratio((c1.lambda_cents - c0.lambda_cents + vm.vm_cents()) * 1000.0,
            static_cast<double>(r.commits));

  r.commit_gap = commit_gap_;
  r.events = c1.events - c0.events;
  r.msgs = c1.msgs - c0.msgs;
  r.bytes = c1.bytes - c0.bytes;
  r.shim_batches = c1.shim_batches - c0.shim_batches;
  r.shim_txns = c1.shim_txns - c0.shim_txns;
  r.shim_view_changes = c1.shim_view_changes - c0.shim_view_changes;
  r.spawns = c1.spawns - c0.spawns;
  r.cold_starts = c1.cold_starts - c0.cold_starts;
  r.verifier_applied = c1.verifier_applied - c0.verifier_applied;
  r.verifier_aborted = c1.verifier_aborted - c0.verifier_aborted;
  r.storage_writes = c1.storage_writes - c0.storage_writes;
  r.xtxns = c1.xtxns - c0.xtxns;
  r.vote_msgs = c1.vote_msgs - c0.vote_msgs;
  r.lock_waits = c1.lock_waits - c0.lock_waits;
  r.coord_view_changes = c1.coord_view_changes - c0.coord_view_changes;
  return r;
}

PassResult PassRunner::Run(WallClock::time_point setup_origin) {
  PassResult result;
  arch_ = std::make_unique<core::Architecture>(w_.config);
  if (!w_.faults.empty()) {
    faults_ = std::make_unique<faults::FaultController>(arch_.get());
    auto schedule = faults::FaultSchedule::Parse(w_.faults);
    if (!schedule.ok() || !faults_->Install(*schedule).ok()) {
      result.failures.push_back("fault schedule of " + w_.name +
                                " does not install");
      return result;
    }
  }
  arch_->Start();
  result.setup_s =
      std::chrono::duration<double>(WallClock::now() - setup_origin).count();

  if (traced_) SnapshotVersions();
  arch_->network()->SetDeliveryObserver(
      [this](const sim::Envelope& env) { OnDeliver(env); });

  const SimTime window_start = w_.warmup;
  const SimTime window_end = w_.warmup + w_.window;
  Advance(window_start);

  const Counters c0 = Snapshot(arch_.get());
  const uint64_t backlog = arch_->CurrentInflight();
  const auto& sources = arch_->sources();
  for (const auto& source : sources) {
    chains_before_.push_back(source->chains().size());
  }
  arch_->ResetLatency();
  arch_->SetRecording(true);
  in_window_ = true;
  recording_ = true;
  last_commit_ = window_start;
  const WallClock::time_point wall0 = WallClock::now();
  window_wall_origin_ = wall0;
  Advance(window_end);
  result.window_wall_s =
      std::chrono::duration<double>(WallClock::now() - wall0).count();
  in_window_ = false;
  commit_gap_ = std::max<int64_t>(commit_gap_, window_end - last_commit_);
  const Counters c1 = Snapshot(arch_.get());

  if (arch_->open_loop()) {
    // Drain: no new arrivals; in-flight work (and the rest of every
    // started workflow chain) settles, its latency still sampled.
    for (const auto& source : sources) source->Pause();
    SimTime t = window_end;
    auto busy = [&sources]() {
      for (const auto& s : sources) {
        if (s->inflight() > 0) return true;
      }
      return false;
    };
    while (busy() && t < window_end + w_.drain_limit) {
      t += kDrainStep;
      Advance(t);
    }
  }
  arch_->SetRecording(false);
  recording_ = false;
  const Histogram program_latency = arch_->MergedLatency();
  const Counters c2 = Snapshot(arch_.get());

  result.sim = Measure(c0, c1);
  SimResult& r = result.sim;
  switch (w_.unit) {
    case OpUnit::kClientTxn:
      r.attempted = r.commits + r.aborts;
      r.failed = r.aborts;
      break;
    case OpUnit::kOfferedTxn:
      r.attempted = c1.offered - c0.offered;
      r.failed = (c2.aborted - c0.aborted) + (c2.dropped - c0.dropped) +
                 arch_->CurrentInflight();
      break;
    case OpUnit::kChain:
      for (size_t i = 0; i < sources.size(); ++i) {
        const auto& chains = sources[i]->chains();
        // Chains started in the window (the drain starts none).
        for (size_t k = chains_before_[i]; k < chains.size(); ++k) {
          ++r.attempted;
          if (!chains[k].completed) ++r.failed;
          for (const auto& attempts : chains[k].hop_attempts) {
            if (attempts.empty()) continue;
            ++r.hops;
            r.hop_attempts += attempts.size();
          }
        }
      }
      break;
  }
  RunChecks(&result, c1.offered - c0.offered, backlog, program_latency);
  if (traced_) result.trace = std::move(trace_);
  arch_->network()->SetDeliveryObserver(nullptr);
  return result;
}

void PassRunner::RunChecks(PassResult* result, uint64_t window_offered,
                           uint64_t backlog,
                           const Histogram& program_latency) {
  Failures* out = &result->failures;
  const SimResult& r = result->sim;
  const core::SystemConfig& cfg = arch_->config();

  if (r.commits < w_.min_commits) {
    out->push_back("window holds " + std::to_string(r.commits) +
                   " commits, fewer than " + std::to_string(w_.min_commits));
  }
  // Closed-loop clients also record aborted transactions' latency.
  const bool open = arch_->open_loop();
  const uint64_t seen = r.latency_samples + (open ? 0 : recorded_aborts_);
  // With aborts in the sample the two medians are over different sets.
  CheckAgainstProgram(seen, program_latency.count(), r.latency_p50,
                      recorded_aborts_ == 0 ? program_latency.p50()
                                            : r.latency_p50,
                      out);

  const sim::RegionTable& regions = arch_->network()->regions();
  int64_t floor = -1;
  for (uint32_t g = 1; g <= cfg.executor_regions && g < regions.size(); ++g) {
    int64_t rtt = regions.Rtt(sim::RegionTable::kHomeRegion, g);
    if (floor < 0 || rtt < floor) floor = rtt;
  }
  CheckCommitFloor(r.latency_min, r.latency_samples, floor, out);

  std::vector<const storage::AuditLog*> logs;
  for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
    logs.push_back(&arch_->plane(s)->verifier()->audit_log());
    logs.push_back(&arch_->plane(s)->verifier()->decision_log());
  }
  CheckAuditChains(logs, out);

  if (open) {
    std::vector<SourceTally> tallies;
    for (const auto& s : arch_->sources()) {
      tallies.push_back({s->offered(), s->completed(), s->aborted(),
                         s->dropped(), s->inflight()});
    }
    CheckConservation(tallies, out);
    CheckGoodputBound(r.commits, window_offered, backlog, out);
  }

  if (traced_) {
    FinishLedger();
    CheckLedger(ledger_, open, out);
    for (const auto& s : arch_->sources()) CheckChains(s->chains(), ledger_, out);
  }
}

}  // namespace

PassResult RunPass(const Workload& w, bool traced,
                   WallClock::time_point setup_origin) {
  PassRunner runner(w, traced);
  return runner.Run(setup_origin);
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "layer\tkind\ttxn\tsent_ns\tdelivered_ns\thandled_ns\t"
               "wall_start_ns\twall_end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%s\t%llu\t%lld\t%lld\t%lld\t%lld\t%lld\n",
                 LayerName(s.layer),
                 shim::MsgKindName(static_cast<shim::MsgKind>(s.kind)),
                 static_cast<unsigned long long>(s.txn),
                 static_cast<long long>(s.sent),
                 static_cast<long long>(s.delivered),
                 static_cast<long long>(s.handled),
                 static_cast<long long>(s.wall_start),
                 static_cast<long long>(s.wall_end));
  }
  return std::fclose(f) == 0;
}

}  // namespace sbft::bench
