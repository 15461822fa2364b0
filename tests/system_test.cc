// End-to-end protocol tests (src/core/system.*): every protocol runs
// real workloads in the simulated distributed system; serializability is
// verified on the recorded histories and replica convergence on the
// final stores. NaiveLazy is the negative control.

#include <cstring>

#include <gtest/gtest.h>

#include "core/engine_backedge.h"
#include "core/engine_dag_t.h"
#include "core/engine_psl.h"
#include "core/system.h"

namespace lazyrep::core {
namespace {

// Backend for the SmallConfig-based tests, set by --runtime=threads in
// main(). Tests that build their own SystemConfig (scripted examples,
// the chaos grid, the Example 1.1 witnesses) always run under the sim.
runtime::RuntimeKind g_runtime = runtime::RuntimeKind::kSim;

// Skips tests whose assertions only make sense under the deterministic
// simulator (bit-identical reruns, virtual-time equalities, seed
// comparisons).
#define LAZYREP_SKIP_UNDER_THREADS()                                  \
  if (g_runtime == runtime::RuntimeKind::kThreads) {                  \
    GTEST_SKIP() << "requires the deterministic sim backend";         \
  }

// Small-but-contended configuration so tests stay fast.
SystemConfig SmallConfig(Protocol protocol, uint64_t seed) {
  SystemConfig config;
  config.protocol = protocol;
  config.runtime = g_runtime;
  config.seed = seed;
  config.workload.num_sites = 6;
  config.workload.sites_per_machine = 3;
  config.workload.num_items = 60;
  config.workload.threads_per_site = 2;
  config.workload.txns_per_thread = 25;
  config.workload.replication_prob = 0.3;
  config.workload.backedge_prob =
      (protocol == Protocol::kDagWt || protocol == Protocol::kDagT ||
       protocol == Protocol::kNaiveLazy || protocol == Protocol::kEager ||
       protocol == Protocol::kPsl)
          ? 0.0   // DAG placements for protocols that need/assume one.
          : 0.4;  // Cycles for BackEdge.
  config.max_sim_time = Seconds(600);  // Safety net.
  return config;
}

graph::Placement Example11Placement() {
  graph::Placement p;
  p.num_sites = 3;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1, 2}, {2}};
  return p;
}

graph::Placement Example41Placement() {
  graph::Placement p;
  p.num_sites = 2;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1}, {0}};
  return p;
}

class ProtocolSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, uint64_t>> {};

TEST_P(ProtocolSweep, WorkloadIsSerializableAndConverges) {
  auto [protocol, seed] = GetParam();
  SystemConfig config = SmallConfig(protocol, seed);
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  RunMetrics metrics = (*system)->Run();

  EXPECT_FALSE(metrics.timed_out);
  EXPECT_GT(metrics.committed, 0);
  // Every generated transaction was attempted exactly once (no retry).
  EXPECT_EQ(metrics.committed + metrics.aborted, 6 * 2 * 25);
  ASSERT_TRUE(metrics.checked);
  if (protocol != Protocol::kNaiveLazy) {
    EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  }
  // Every first read observed the last committed write at its site —
  // holds for ALL protocols (including NaiveLazy: its failure is
  // cross-site ordering, not local isolation).
  EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
  EXPECT_GT(metrics.reads_checked, 0u);
  // All protocols that propagate values must converge; PSL never
  // propagates (flagged converged by definition); NaiveLazy converges
  // because each item has a single master and channels are FIFO.
  EXPECT_TRUE(metrics.converged);
  EXPECT_GT(metrics.avg_site_throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolSweep,
    ::testing::Combine(::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                         Protocol::kBackEdge,
                                         Protocol::kPsl,
                                         Protocol::kNaiveLazy,
                                         Protocol::kEager),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      std::string name = ProtocolName(std::get<0>(info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(SystemTest, CreateRejectsBadConfigurations) {
  {
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.workload.num_sites = 0;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
  {
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.workload.sites_per_machine = 0;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
  {
    // Placement/workload site-count mismatch.
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.placement = Example11Placement();  // 3 sites, workload has 6.
    auto result = System::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // DAG protocol on a cyclic placement.
    SystemConfig config = SmallConfig(Protocol::kDagT, 1);
    config.workload.num_sites = 2;
    config.workload.num_items = 2;
    config.placement = Example41Placement();
    auto result = System::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  }
  {
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.workers_per_site = 0;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
  {
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.engine.lock_stripes = 0;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
  {
    // Parallel worker lanes would invalidate the sim's golden schedules.
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.runtime = runtime::RuntimeKind::kSim;
    config.workers_per_site = 2;
    auto result = System::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("thread runtime"),
              std::string::npos)
        << result.status().ToString();
  }
  {
    // Local detection traverses a frozen waits-for graph — single lane.
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.runtime = runtime::RuntimeKind::kThreads;
    config.workers_per_site = 2;
    config.engine.deadlock_policy = storage::DeadlockPolicy::kLocalDetection;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
  {
    // Wait-die owns the grant order; lazychk's shuffle would fight it.
    SystemConfig config = SmallConfig(Protocol::kDagWt, 1);
    config.runtime = runtime::RuntimeKind::kSim;
    config.engine.deadlock_policy = storage::DeadlockPolicy::kWaitDie;
    sim::SchedulePolicyConfig sched;
    sched.shuffle_grants = true;
    config.schedule = sched;
    EXPECT_FALSE(System::Create(std::move(config)).ok());
  }
}

TEST(SystemTest, MultiWorkerWaitDieRunIsSerializableAndConverges) {
  // End-to-end smoke for the intra-site parallelism configuration: two
  // worker lanes per machine with wait-die deadlock prevention. Every
  // guarantee the single-lane sweep asserts must survive real
  // concurrency (the chaos tier covers four lanes under faults).
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 5);
  config.runtime = runtime::RuntimeKind::kThreads;
  config.workers_per_site = 2;
  config.engine.deadlock_policy = storage::DeadlockPolicy::kWaitDie;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  RunMetrics metrics = (*system)->Run();
  EXPECT_FALSE(metrics.timed_out);
  EXPECT_GT(metrics.committed, 0);
  ASSERT_TRUE(metrics.checked);
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  // Wait-die victims (if any) land in their own counter, not timeouts.
  EXPECT_GE(metrics.lock_die_aborts, 0u);
}

TEST(SystemTest, DagTOnDeepCustomDagConverges) {
  // A 5-level linear cascade of replicas: 0 owns items replicated at 1,
  // 1's items at 2, etc. DAG(T) sends each hop directly; multi-parent
  // waiting does not arise, but epoch/dummy progress still drives the
  // deeper sites.
  graph::Placement p;
  p.num_sites = 5;
  p.num_items = 20;
  p.primary.resize(20);
  p.replicas.resize(20);
  for (ItemId i = 0; i < 20; ++i) {
    p.primary[i] = i / 4;  // 4 items per site.
    if (p.primary[i] + 1 < 5) {
      p.replicas[i] = {static_cast<SiteId>(p.primary[i] + 1)};
    }
  }
  SystemConfig config;
  config.protocol = Protocol::kDagT;
  config.placement = p;
  config.seed = 61;
  config.workload.num_sites = 5;
  config.workload.num_items = 20;
  config.workload.sites_per_machine = 5;
  config.workload.threads_per_site = 2;
  config.workload.txns_per_thread = 40;
  config.max_sim_time = Seconds(600);
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_FALSE(metrics.timed_out);
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
}

TEST(SystemTest, DeterministicUnderSeed) {
  LAZYREP_SKIP_UNDER_THREADS();
  auto run = [] {
    auto system = System::Create(SmallConfig(Protocol::kBackEdge, 42));
    return (*system)->Run();
  };
  RunMetrics a = run();
  RunMetrics b = run();
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.workload_elapsed, b.workload_elapsed);
  EXPECT_EQ(a.drain_elapsed, b.drain_elapsed);
  EXPECT_DOUBLE_EQ(a.response_ms.mean(), b.response_ms.mean());
}

TEST(SystemTest, SeedsChangeTheSchedule) {
  LAZYREP_SKIP_UNDER_THREADS();
  auto run = [](uint64_t seed) {
    auto system = System::Create(SmallConfig(Protocol::kBackEdge, seed));
    return (*system)->Run();
  };
  RunMetrics a = run(7);
  RunMetrics b = run(8);
  EXPECT_NE(a.workload_elapsed, b.workload_elapsed);
}

TEST(SystemTest, NaiveLazyViolatesSerializabilityOnExample11) {
  // Example 1.1 needs the s1->s3 channel to outrun s0->s3; jitter plus
  // many concurrent transactions makes the anomaly appear under
  // indiscriminate propagation. The checker must catch at least one
  // cycle across the seed set.
  int violations = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SystemConfig config;
    config.protocol = Protocol::kNaiveLazy;
    config.seed = seed;
    config.placement = Example11Placement();
    config.workload.num_sites = 3;
    config.workload.sites_per_machine = 3;
    config.workload.num_items = 2;
    config.workload.threads_per_site = 2;
    config.workload.txns_per_thread = 40;
    config.workload.ops_per_txn = 4;
    config.workload.read_txn_prob = 0.4;
    config.workload.read_op_prob = 0.5;
    config.costs.net_jitter = Millis(5);
    config.max_sim_time = Seconds(600);
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    RunMetrics metrics = (*system)->Run();
    if (!metrics.serializable) ++violations;
  }
  EXPECT_GT(violations, 0)
      << "indiscriminate lazy propagation should produce Example 1.1 "
         "anomalies under jitter";
}

TEST(SystemTest, Crr96CharacterizationHoldsForNaivePropagation) {
  // §1.2 / [CRR96]: indiscriminate lazy propagation is serializable iff
  // the UNDIRECTED copy graph is acyclic. Same workload/jitter as the
  // Example 1.1 violation test, but on an undirected-acyclic placement
  // (a replication chain): NaiveLazy must be serializable on every seed.
  graph::Placement chain;
  chain.num_sites = 3;
  chain.num_items = 2;
  chain.primary = {0, 1};
  chain.replicas = {{1}, {2}};  // 0->1, 1->2: an undirected path.
  ASSERT_TRUE(
      graph::CopyGraph::FromPlacement(chain).UndirectedAcyclic());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SystemConfig config;
    config.protocol = Protocol::kNaiveLazy;
    config.seed = seed;
    config.placement = chain;
    config.workload.num_sites = 3;
    config.workload.sites_per_machine = 3;
    config.workload.num_items = 2;
    config.workload.threads_per_site = 2;
    config.workload.txns_per_thread = 40;
    config.workload.ops_per_txn = 4;
    config.workload.read_txn_prob = 0.4;
    config.workload.read_op_prob = 0.5;
    config.costs.net_jitter = Millis(5);
    config.max_sim_time = Seconds(600);
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok());
    RunMetrics metrics = (*system)->Run();
    EXPECT_TRUE(metrics.serializable)
        << "seed " << seed << ": " << metrics.verdict;
    EXPECT_TRUE(metrics.converged);
  }
  // The companion NaiveLazyViolatesSerializabilityOnExample11 test shows
  // the same engine failing on an undirected-cyclic placement — together
  // they bracket the CRR96 boundary.
}

TEST(SystemTest, DagProtocolsStaySerializableWhereNaiveFails) {
  // Identical setting to the naive violation test; the DAG protocols'
  // ordering control must keep every run serializable.
  for (Protocol protocol : {Protocol::kDagWt, Protocol::kDagT}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SystemConfig config;
      config.protocol = protocol;
      config.seed = seed;
      config.placement = Example11Placement();
      config.workload.num_sites = 3;
      config.workload.sites_per_machine = 3;
      config.workload.num_items = 2;
      config.workload.threads_per_site = 2;
      config.workload.txns_per_thread = 40;
      config.workload.ops_per_txn = 4;
      config.workload.read_txn_prob = 0.4;
      config.workload.read_op_prob = 0.5;
      config.costs.net_jitter = Millis(5);
      config.max_sim_time = Seconds(600);
      auto system = System::Create(std::move(config));
      ASSERT_TRUE(system.ok());
      RunMetrics metrics = (*system)->Run();
      EXPECT_TRUE(metrics.serializable)
          << ProtocolName(protocol) << " seed " << seed << ": "
          << metrics.verdict;
      EXPECT_TRUE(metrics.converged);
    }
  }
}

TEST(SystemTest, BackEdgeHandlesExample41Cycle) {
  // Two sites with mutual replication (the copy graph is a 2-cycle) and
  // write-heavy transactions: the exact Example 4.1 shape. BackEdge must
  // stay serializable; deadlock victims are expected.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SystemConfig config;
    config.protocol = Protocol::kBackEdge;
    config.seed = seed;
    config.placement = Example41Placement();
    config.workload.num_sites = 2;
    config.workload.sites_per_machine = 2;
    config.workload.num_items = 2;
    config.workload.threads_per_site = 2;
    config.workload.txns_per_thread = 30;
    config.workload.ops_per_txn = 2;
    config.workload.read_txn_prob = 0.0;
    config.workload.read_op_prob = 0.5;
    config.max_sim_time = Seconds(600);
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok());
    RunMetrics metrics = (*system)->Run();
    EXPECT_FALSE(metrics.timed_out);
    EXPECT_TRUE(metrics.serializable) << metrics.verdict;
    EXPECT_TRUE(metrics.converged);
    EXPECT_GT(metrics.committed, 0);
  }
}

TEST(SystemTest, PslPerformsRemoteReadsAndNeverTouchesReplicas) {
  SystemConfig config = SmallConfig(Protocol::kPsl, 5);
  config.workload.replication_prob = 0.5;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  uint64_t remote_reads = 0;
  for (SiteId s = 0; s < sys.config().workload.num_sites; ++s) {
    remote_reads += dynamic_cast<PslEngine&>(sys.engine(s)).remote_reads();
  }
  EXPECT_GT(remote_reads, 0u);
  // Replica copies are never written under PSL.
  const graph::Placement& placement = sys.routing().placement();
  for (ItemId item = 0; item < placement.num_items; ++item) {
    for (SiteId s : placement.replicas[item]) {
      EXPECT_EQ(sys.database(s).store().Version(item), 0);
    }
  }
}

TEST(SystemTest, BackEdgeWithoutBackedgesBehavesLikeDagWt) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 9);
  config.workload.backedge_prob = 0.0;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable);
  for (SiteId s = 0; s < sys.config().workload.num_sites; ++s) {
    EXPECT_EQ(dynamic_cast<BackEdgeEngine&>(sys.engine(s)).backedge_txns(),
              0u);
  }
}

TEST(SystemTest, BackEdgeTransactionsOccurWithCyclicPlacement) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 11);
  config.workload.backedge_prob = 0.8;
  config.workload.replication_prob = 0.5;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  uint64_t backedge_txns = 0;
  for (SiteId s = 0; s < sys.config().workload.num_sites; ++s) {
    backedge_txns +=
        dynamic_cast<BackEdgeEngine&>(sys.engine(s)).backedge_txns();
  }
  EXPECT_GT(backedge_txns, 0u);
}

TEST(SystemTest, DagTUsesDummiesForProgress) {
  SystemConfig config = SmallConfig(Protocol::kDagT, 13);
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable);
  EXPECT_TRUE(metrics.converged);
  uint64_t dummies = 0;
  for (SiteId s = 0; s < sys.config().workload.num_sites; ++s) {
    dummies += dynamic_cast<DagTEngine&>(sys.engine(s)).dummies_sent();
  }
  EXPECT_GT(dummies, 0u);
}

TEST(SystemTest, RetryPolicyDrivesEveryTransactionToCommit) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 17);
  config.retry = RetryPolicy::kRetryUntilCommit;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_EQ(metrics.committed, 6 * 2 * 25);
  EXPECT_TRUE(metrics.serializable);
}

TEST(SystemTest, PropagationDelayIsMeasured) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 19);
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_GT(metrics.propagation_delay_ms.count(), 0);
  EXPECT_GT(metrics.propagation_delay_ms.mean(), 0.0);
  EXPECT_GE(metrics.drain_elapsed, metrics.workload_elapsed);
}

TEST(SystemTest, WalRecoveryReproducesEverySiteStore) {
  SystemConfig config = SmallConfig(Protocol::kDagWt, 23);
  config.enable_wal = true;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable);
  const graph::Placement& placement = sys.routing().placement();
  for (SiteId s = 0; s < placement.num_sites; ++s) {
    storage::ItemStore recovered;
    for (ItemId item : placement.ItemsAt(s)) recovered.AddItem(item, 0);
    ASSERT_NE(sys.database(s).wal(), nullptr);
    sys.database(s).wal()->Replay(&recovered);
    EXPECT_EQ(recovered.Snapshot(), sys.database(s).store().Snapshot())
        << "site " << s;
  }
}

TEST(SystemTest, MaxSimTimeFlagsRunsThatCannotFinish) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 29);
  config.max_sim_time = Millis(1);  // Absurdly small.
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_TRUE(metrics.timed_out);
}

TEST(SystemTest, ScriptedTransactionAndDrain) {
  SystemConfig config;
  config.protocol = Protocol::kDagWt;
  config.placement = Example11Placement();
  config.workload.num_sites = 3;
  config.workload.num_items = 2;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  workload::TxnSpec spec;
  spec.ops = {{true, 0}};  // Write item 0 at its primary site 0.
  EXPECT_TRUE(sys.RunOneTransaction(0, spec).ok());
  sys.DrainPropagation();
  // Replicas at sites 1 and 2 received the value.
  Value primary = sys.database(0).store().Get(0).value();
  EXPECT_NE(primary, 0);
  EXPECT_EQ(sys.database(1).store().Get(0).value(), primary);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), primary);
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

// ------------------------------------------------------- chaos grid
// Hostile combinations of knobs: jitter, slow networks, detection-mode
// deadlock handling, FIFO grants, retries, write-heavy mixes, tiny hot
// item sets. Every serializable protocol must stay serializable, value-
// consistent and convergent in every cell.

// gtest prints a parameter that has no printer as its raw bytes, and
// those bytes become part of each case's listed test name. The name
// pointer sits last, behind the numeric knobs, so that a name starts
// with the protocol and settings rather than the address of a string
// literal, which moves whenever anything in the test binary changes.
struct ChaosCase {
  Protocol protocol;
  int num_items;
  double backedge_prob;
  double replication_prob;
  double read_op_prob;
  double read_txn_prob;
  double jitter_ms;
  double latency_ms;
  bool detection;
  bool fifo_grant;
  bool retry;
  const char* name;
};

class ChaosGrid : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosGrid, InvariantsSurviveHostileSettings) {
  const ChaosCase& c = GetParam();
  for (uint64_t seed : {11u, 12u}) {
    SystemConfig config;
    config.protocol = c.protocol;
    config.seed = seed;
    config.workload.num_sites = 6;
    config.workload.sites_per_machine = 3;
    config.workload.num_items = c.num_items;
    config.workload.threads_per_site = 3;
    config.workload.txns_per_thread = 20;
    config.workload.backedge_prob = c.backedge_prob;
    config.workload.replication_prob = c.replication_prob;
    config.workload.read_op_prob = c.read_op_prob;
    config.workload.read_txn_prob = c.read_txn_prob;
    config.workload.network_latency = Millis(c.latency_ms);
    config.costs.net_jitter = Millis(c.jitter_ms);
    config.engine.deadlock_policy =
        c.detection ? storage::DeadlockPolicy::kLocalDetection
                    : storage::DeadlockPolicy::kTimeoutOnly;
    config.engine.grant_policy = c.fifo_grant
                                     ? storage::GrantPolicy::kFifo
                                     : storage::GrantPolicy::kImmediate;
    config.retry =
        c.retry ? RetryPolicy::kRetryUntilCommit : RetryPolicy::kNone;
    config.max_sim_time = Seconds(1200);
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    RunMetrics metrics = (*system)->Run();
    EXPECT_FALSE(metrics.timed_out) << c.name << " seed " << seed;
    EXPECT_TRUE(metrics.serializable)
        << c.name << " seed " << seed << ": " << metrics.verdict;
    EXPECT_TRUE(metrics.reads_consistent)
        << c.name << " seed " << seed << ": " << metrics.verdict;
    EXPECT_TRUE(metrics.converged) << c.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Hostile, ChaosGrid,
    ::testing::Values(
        ChaosCase{Protocol::kBackEdge, 12, 0.5, 0.6, 0.5, 0.2, 4.0, 0.15,
                  false, false, false, "BackEdgeJitterHot"},
        ChaosCase{Protocol::kBackEdge, 60, 0.3, 0.4, 0.7, 0.5, 0.0, 20.0,
                  false, false, false, "BackEdgeSlowNet"},
        ChaosCase{Protocol::kBackEdge, 30, 0.4, 0.5, 0.6, 0.3, 1.0, 1.0,
                  true, false, true, "BackEdgeDetectionRetry"},
        ChaosCase{Protocol::kBackEdge, 24, 0.6, 0.5, 0.2, 0.0, 0.0, 0.15,
                  false, true, false, "BackEdgeFifoWriteHeavy"},
        ChaosCase{Protocol::kDagWt, 12, 0.0, 0.8, 0.5, 0.2, 4.0, 0.15,
                  false, false, false, "DagWtJitterHot"},
        ChaosCase{Protocol::kDagWt, 30, 0.0, 0.5, 0.6, 0.3, 2.0, 2.0,
                  true, false, true, "DagWtDetection"},
        ChaosCase{Protocol::kDagT, 12, 0.0, 0.8, 0.5, 0.2, 4.0, 0.15,
                  false, false, false, "DagTJitterHot"},
        ChaosCase{Protocol::kDagT, 60, 0.0, 0.4, 0.7, 0.5, 0.0, 10.0,
                  false, false, false, "DagTSlowNet"},
        ChaosCase{Protocol::kPsl, 24, 0.5, 0.6, 0.3, 0.0, 3.0, 0.5,
                  false, false, false, "PslWriteHeavyJitter"},
        ChaosCase{Protocol::kPsl, 30, 0.2, 0.5, 0.7, 0.5, 0.0, 1.0,
                  true, false, true, "PslDetectionRetry"},
        ChaosCase{Protocol::kEager, 12, 0.3, 0.6, 0.5, 0.2, 4.0, 0.15,
                  false, false, false, "EagerJitterHot"},
        ChaosCase{Protocol::kEager, 60, 0.2, 0.4, 0.7, 0.5, 0.0, 0.15,
                  false, true, false, "EagerFifo"}),
    [](const auto& info) { return std::string(info.param.name); });

class StallRobustness : public ::testing::TestWithParam<Protocol> {};

TEST_P(StallRobustness, ProtocolsRideOutMachineStalls) {
  // Freeze machine 0's CPU for a full second mid-run: every site on it
  // (workers, appliers, message handling) stops dead. Timeouts fire,
  // DAG(T) queues back up behind missing dummies — and every invariant
  // must still hold once the stall clears.
  SystemConfig config = SmallConfig(GetParam(), 53);
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.InjectCpuStall(/*machine=*/0, /*at=*/Millis(50),
                     /*duration=*/Seconds(1));
  RunMetrics metrics = sys.Run();
  EXPECT_FALSE(metrics.timed_out);
  if (GetParam() != Protocol::kNaiveLazy) {
    EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  }
  EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  // The stall is visible: the run takes at least the stall's length.
  EXPECT_GT(metrics.workload_elapsed, Seconds(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, StallRobustness,
    ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                      Protocol::kBackEdge, Protocol::kPsl,
                      Protocol::kEager),
    [](const auto& info) {
      std::string name = ProtocolName(info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(SystemTest, PerSiteBreakdownSumsToTotals) {
  auto system = System::Create(SmallConfig(Protocol::kBackEdge, 43));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  ASSERT_EQ(metrics.per_site.size(), 6u);
  int64_t committed = 0, aborted = 0;
  for (const SiteMetrics& s : metrics.per_site) {
    committed += s.committed;
    aborted += s.aborted;
    EXPECT_GE(s.throughput, 0.0);
  }
  EXPECT_EQ(committed, metrics.committed);
  EXPECT_EQ(aborted, metrics.aborted);
}

TEST(SystemTest, WarmupExcludesEarlyTransactionsFromMetricsOnly) {
  LAZYREP_SKIP_UNDER_THREADS();  // Relies on identical schedules.
  SystemConfig with_warmup = SmallConfig(Protocol::kDagWt, 47);
  with_warmup.workload.backedge_prob = 0.0;
  with_warmup.warmup = Millis(200);
  auto warm = System::Create(with_warmup);
  ASSERT_TRUE(warm.ok());
  RunMetrics warm_metrics = (*warm)->Run();

  SystemConfig without = SmallConfig(Protocol::kDagWt, 47);
  without.workload.backedge_prob = 0.0;
  auto cold = System::Create(without);
  ASSERT_TRUE(cold.ok());
  RunMetrics cold_metrics = (*cold)->Run();

  // Same execution (identical seed/schedule), fewer measured txns.
  EXPECT_LT(warm_metrics.committed + warm_metrics.aborted,
            cold_metrics.committed + cold_metrics.aborted);
  EXPECT_GT(warm_metrics.committed, 0);
  EXPECT_EQ(warm_metrics.workload_elapsed, cold_metrics.workload_elapsed);
  EXPECT_TRUE(warm_metrics.serializable);
  EXPECT_TRUE(warm_metrics.converged);
}

TEST(SystemTest, ResponsePercentilesAreOrdered) {
  auto system = System::Create(SmallConfig(Protocol::kBackEdge, 37));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_GT(metrics.response_p50_ms, 0.0);
  EXPECT_LE(metrics.response_p50_ms, metrics.response_p95_ms);
  EXPECT_LE(metrics.response_p95_ms, metrics.response_p99_ms);
  EXPECT_LE(metrics.response_p99_ms, metrics.response_ms.max());
  EXPECT_GE(metrics.response_p50_ms, metrics.response_ms.min());
}

class BackedgeMethodSweep
    : public ::testing::TestWithParam<BackedgeMethod> {};

TEST_P(BackedgeMethodSweep, SerializableAndConvergedOnCyclicPlacements) {
  SystemConfig config = SmallConfig(Protocol::kBackEdge, 41);
  config.workload.backedge_prob = 0.6;
  config.workload.replication_prob = 0.5;
  config.engine.backedge_method = GetParam();
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  EXPECT_TRUE(sys.routing().gdag().IsDag());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BackedgeMethodSweep,
    ::testing::Values(BackedgeMethod::kSiteOrder, BackedgeMethod::kDfs,
                      BackedgeMethod::kGreedy,
                      BackedgeMethod::kWeightedGreedy),
    [](const auto& info) {
      switch (info.param) {
        case BackedgeMethod::kSiteOrder: return std::string("SiteOrder");
        case BackedgeMethod::kDfs: return std::string("Dfs");
        case BackedgeMethod::kGreedy: return std::string("Greedy");
        case BackedgeMethod::kWeightedGreedy:
          return std::string("WeightedGreedy");
      }
      return std::string("Unknown");
    });

TEST(SystemTest, WeightedBackedgesLighterThanUnweightedInAggregate) {
  // The §4.2 objective: the weighted greedy heuristic produces lower
  // total backedge traffic weight than the unweighted one. Both are
  // heuristics, so the comparison is in aggregate over placements, not
  // pointwise.
  double weighted_total = 0;
  double unweighted_total = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    workload::Params params;
    params.num_sites = 8;
    params.num_items = 120;
    params.backedge_prob = 0.7;
    params.replication_prob = 0.5;
    Rng rng(seed);
    graph::Placement placement = workload::GeneratePlacement(params, &rng);
    EngineOptions weighted;
    weighted.backedge_method = BackedgeMethod::kWeightedGreedy;
    EngineOptions unweighted;
    unweighted.backedge_method = BackedgeMethod::kGreedy;
    auto rw = Routing::Build(placement, Protocol::kBackEdge, weighted);
    auto ru = Routing::Build(placement, Protocol::kBackEdge, unweighted);
    ASSERT_TRUE(rw.ok());
    ASSERT_TRUE(ru.ok());
    weighted_total += (*rw)->BackedgeTrafficWeight();
    unweighted_total += (*ru)->BackedgeTrafficWeight();
  }
  EXPECT_LE(weighted_total, unweighted_total);
}

TEST(SystemTest, EagerAbortsMoreThanLazyOnTheSamePlacement) {
  // The intro's claim: eager write-all grows the effective transaction
  // (locks at every replica site, held through 2PC), so it deadlocks and
  // aborts more than a lazy protocol on the same placement/workload.
  // Same seed => identical placement and transaction streams.
  LAZYREP_SKIP_UNDER_THREADS();  // Cross-run comparison needs one schedule.
  int64_t eager_aborts = 0, lazy_aborts = 0;
  for (uint64_t seed : {31u, 32u, 33u}) {
    auto run = [seed](Protocol protocol) {
      SystemConfig config = SmallConfig(protocol, seed);
      config.workload.backedge_prob = 0.0;
      config.workload.replication_prob = 0.6;
      auto system = System::Create(std::move(config));
      RunMetrics metrics = (*system)->Run();
      EXPECT_TRUE(metrics.serializable) << metrics.verdict;
      return metrics;
    };
    eager_aborts += run(Protocol::kEager).aborted;
    lazy_aborts += run(Protocol::kDagWt).aborted;
  }
  EXPECT_GT(eager_aborts, lazy_aborts);
}

// ------------------------------------------------- real-threads sweep
// Always runs under ThreadRuntime regardless of --runtime: the three
// serializability-guaranteeing lazy protocols must stay serializable,
// value-consistent and convergent when machines are real OS threads and
// the interleaving is whatever the host scheduler produces.

class ThreadSweep : public ::testing::TestWithParam<Protocol> {};

TEST_P(ThreadSweep, SerializableAndConvergedUnderRealThreads) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SystemConfig config = SmallConfig(GetParam(), seed);
    config.runtime = runtime::RuntimeKind::kThreads;
    config.workload.txns_per_thread = 10;  // Wall-clock, keep it brisk.
    config.max_sim_time = 0;               // No wall cap; ctest times out.
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    RunMetrics metrics = (*system)->Run();
    EXPECT_EQ(metrics.committed + metrics.aborted, 6 * 2 * 10);
    EXPECT_TRUE(metrics.serializable) << metrics.verdict;
    EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
    EXPECT_TRUE(metrics.converged);
    EXPECT_FALSE(metrics.timed_out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LazySerializable, ThreadSweep,
    ::testing::Values(Protocol::kBackEdge, Protocol::kDagWt,
                      Protocol::kDagT),
    [](const auto& info) {
      std::string name = ProtocolName(info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

// Regression loop for multi-lane BackEdge under the paper's timeout
// deadlock policy: with several worker lanes a machine CPU has several
// units, and per-message send/receive charges used to finish out of
// order, reordering a channel (a secondary overtaken by the next one, or
// by a 2PC special) and leaving a non-serializable history behind. Runs
// the threads runtime whatever --runtime says.
TEST(ThreadRegression, MultiLaneBackEdgeTimeoutIsSerializable) {
  for (int workers : {2, 4}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " seed=" + std::to_string(seed));
      SystemConfig config = SmallConfig(Protocol::kBackEdge, seed);
      config.runtime = runtime::RuntimeKind::kThreads;
      config.workers_per_site = workers;
      config.engine.deadlock_policy = storage::DeadlockPolicy::kTimeoutOnly;
      config.workload.txns_per_thread = 10;  // Wall-clock, keep it brisk.
      config.max_sim_time = 0;               // No wall cap; ctest times out.
      auto system = System::Create(std::move(config));
      ASSERT_TRUE(system.ok()) << system.status().ToString();
      RunMetrics metrics = (*system)->Run();
      EXPECT_EQ(metrics.committed + metrics.aborted, 6 * 2 * 10);
      ASSERT_TRUE(metrics.checked);
      EXPECT_TRUE(metrics.serializable) << metrics.verdict;
      EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
      EXPECT_TRUE(metrics.converged);
      EXPECT_FALSE(metrics.timed_out);
    }
  }
}

}  // namespace
}  // namespace lazyrep::core

// Custom main so CI can run the whole suite against the threads backend:
//   system_test --runtime=threads
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runtime=threads") == 0) {
      lazyrep::core::g_runtime = lazyrep::runtime::RuntimeKind::kThreads;
    } else if (std::strcmp(argv[i], "--runtime=sim") == 0) {
      lazyrep::core::g_runtime = lazyrep::runtime::RuntimeKind::kSim;
    }
  }
  return RUN_ALL_TESTS();
}
