#include "workloads.h"

namespace sbft::bench {

namespace {

// The paper's §IX single-plane deployment: PBFT shim (n=4) ordering
// batches of 100, three honest executors over three regions, 3000
// closed-loop clients, YCSB over 600k records. Per-transaction work on
// the paper's own path dominates (client request auth, storage reads,
// verifier match); consensus cost is spread over 100 transactions.
Workload YcsbPaper(uint64_t seed) {
  Workload w;
  w.name = "ycsb_paper";
  core::SystemConfig& c = w.config;
  c.shard_count = 1;
  c.shim.n = 4;
  c.shim.batch_size = 100;
  c.n_e = 3;
  c.f_e = 1;
  c.executor_regions = 3;
  c.num_clients = 3000;
  c.workload.record_count = 600000;
  c.crypto_mode = crypto::CryptoMode::kFast;
  // All 3000 clients start at t=0 and batch-100 consensus keeps them in
  // lock-step waves; with the default 0.2 ms jitter, whether a seed
  // splits off a sub-wave one round behind decides p99/p999. A WAN-scale
  // 5 ms per-message jitter decorrelates the clients within a few rounds.
  c.network.jitter_max = Millis(5);
  c.seed = seed;
  w.unit = OpUnit::kClientTxn;
  w.warmup = Seconds(0.5);
  w.window = Seconds(1.0);
  return w;
}

// Four planes with small batches, a third of the YCSB transactions
// cross-shard, a 3-member coordinator group, open-loop Poisson sources
// just below the knee. Node cores are cut so the knee sits at a rate one
// process simulates in a few wall seconds (see README, knee sweep).
Workload XshardOpen(uint64_t seed) {
  Workload w;
  w.name = "xshard_open";
  core::SystemConfig& c = w.config;
  c.shard_count = 4;
  c.shim.n = 4;
  c.shim.batch_size = 4;
  c.shim.checkpoint_interval = 8;
  c.n_e = 3;
  c.f_e = 1;
  c.workload.record_count = 600000;
  c.workload.cross_shard_percentage = 33.0;
  c.coordinator_replicas = 3;
  c.shim_cores = 1;
  c.verifier_cores = 1;
  c.coordinator_cores = 1;
  c.crypto_mode = crypto::CryptoMode::kFast;
  c.seed = seed;
  c.traffic.open_loop = true;
  c.traffic.sources = 4;
  c.traffic.offered_tps = 5500.0;
  c.traffic.retry_timeout = Millis(400);
  c.traffic.retry_inflight_cap = 1000;
  w.unit = OpUnit::kOfferedTxn;
  w.warmup = Seconds(0.5);
  w.window = Seconds(3.0);
  w.drain_limit = Seconds(5.0);
  return w;
}

// Beldi-style 3-hop workflow chains on four planes; every hop is
// cross-shard over the ~1.2k-key workflow state. One executor per batch
// returns a wrong result, and the coordinator group's leader crashes
// mid-window and recovers later. Slot popularity stays uniform and the
// rate below the abort onset, so hops collide on prepare locks without
// the no-backoff retry storm taking over.
Workload WorkflowFaults(uint64_t seed) {
  Workload w;
  w.name = "workflow_faults";
  core::SystemConfig& c = w.config;
  c.shard_count = 4;
  c.shim.n = 4;
  c.shim.batch_size = 4;
  c.shim.checkpoint_interval = 8;
  c.n_e = 3;
  c.f_e = 1;
  c.byzantine_executors = 1;
  c.byzantine_executor_behavior = serverless::ExecutorBehavior::kWrongResult;
  c.coordinator_replicas = 3;
  // About four times a hop's p50. A takeover leaves some launches the
  // crashed leader never fanned out (see README, "Known fault"); they
  // hold prepare locks until this timeout aborts them, and at the 1.5 s
  // default that stall flips p99/p999 between seeds.
  c.coordinator_vote_timeout = Millis(400);
  c.crypto_mode = crypto::CryptoMode::kFast;
  c.seed = seed;
  c.traffic.open_loop = true;
  c.traffic.sources = 4;
  c.traffic.offered_tps = 500.0;
  c.traffic.family = workload::TrafficFamily::kWorkflow;
  c.traffic.workflow.functions = 6;
  c.traffic.workflow.state_keys_per_function = 200;
  c.traffic.workflow.chain_hops = 3;
  c.traffic.workflow.zipf_theta = 0.0;
  c.traffic.retry_timeout = Millis(400);
  c.traffic.retry_inflight_cap = 100000;
  c.traffic.max_hop_attempts = 1000;
  w.unit = OpUnit::kChain;
  w.warmup = Seconds(0.5);
  w.window = Seconds(8.0);
  w.drain_limit = Seconds(6.0);
  w.faults =
      "at 3s crash coordinator leader\n"
      "at 5s recover coordinator 0\n";
  return w;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "ycsb_paper") {
    *out = YcsbPaper(seed);
  } else if (name == "xshard_open") {
    *out = XshardOpen(seed);
  } else if (name == "workflow_faults") {
    *out = WorkflowFaults(seed);
  } else {
    return false;
  }
  return true;
}

}  // namespace sbft::bench
