// lazyrep end-to-end benchmark program.
//
//   lazyrep_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// Drives `core::System` through its public API only and measures every
// layer from outside: wall time around `System::Create` and
// `System::Run`, getrusage around `Run`, and the public counters the
// system exposes afterwards (`MetricsCollector`, `Network::Snapshot`,
// `LockManager::stats`, `Database::wal`, `Simulator::events_processed`,
// the obs registry snapshot and the `TraceLog`).
//
// One process runs one workload. A run is a sequence of sub-runs, each a
// fresh System over a fixed amount of work (closed loop: 3 clients per
// site, no think time, every aborted attempt retried until it commits).
// Sub-run i uses the i-th seed derived from --seed, cycling through
// the workload's seed count until --seconds have passed. Each metric is
// the median over seeds of its per-seed median, so a run that ends
// mid-pass weighs every seed alike:
//
//  - Modeled metrics (throughput, response, propagation) come from the
//    runtime clock: virtual under the sim, the wall under threads, where
//    the cost model's CPU charges are timed waits. Under the sim they
//    depend on the seed alone, and every repeat of a seed must reproduce
//    them bit for bit (determinism gate). Most of their run-to-run spread
//    is the placement each seed draws, hence many seeds per run.
//  - Real metrics (`cpu_us_per_txn`, `setup_s`) are host time. The shared
//    host's speed drifts by tens of percent within seconds, so each
//    sub-run's CPU per transaction is scaled by a fixed reference kernel
//    timed right before it (`HostKernelCpuSeconds`); the unscaled value
//    and the kernel's time are per-layer metrics.
//
// With --trace=1 the same loop runs, then per-layer metrics are derived
// from its counters, from timed calls into the set-up layers, and from
// one traced sub-run (after an untraced twin, for the tracing overhead)
// that is kept out of every other metric.
//
// Every sub-run passes the correctness gate (serializable, reads and
// snapshots consistent, replicas converged, not timed out, every client
// transaction committed, trace not truncated) or the process exits 1.
// The last stdout line is the result object; the line before it is the
// run's provenance.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "core/history.h"
#include "core/routing.h"
#include "core/system.h"
#include "core/trace.h"
#include "harness/experiment.h"
#include "obs/registry.h"
#include "workload/suite.h"

namespace {

using namespace lazyrep;

// Extra `System::Create` calls beside each sub-run's own, so `setup_s` is
// a median over enough samples even when the workload loop runs only a few
// sub-runs, spread over the whole run rather than one moment of the host.
constexpr int kSetupRepsPerSubRun = 3;
// Repetitions of each set-up layer call timed under --trace=1.
constexpr int kLayerSetupReps = 9;
// CPU seconds of `HostKernelCpuSeconds` on the reference host (the
// 4-core host the benchmark was tuned on, when quiet).
constexpr double kKernelReferenceS = 0.009;

// ---------------------------------------------------------------- clocks

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_s = 0;
  int64_t ctx_switches = 0;
  double maxrss_mb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage usage;
  usage.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  usage.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  usage.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB.
  return usage;
}

/// A fixed CPU kernel independent of the code under test: it builds,
/// probes and frees a hash table and an ordered map and sorts a vector,
/// allocating and touching memory the way a sub-run's System does. Its
/// CPU time tracks the speed the shared host gives this process, which
/// drifts by tens of percent within seconds; `cpu_us_per_txn` is scaled
/// by it. Returns CPU seconds.
double HostKernelCpuSeconds() {
  const Usage before = ReadUsage();
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> hash;
  std::map<uint64_t, uint64_t> ordered;
  std::vector<double> values;
  uint64_t acc = 0;
  for (int i = 0; i < 15000; ++i) {
    const uint64_t key = next() % 25000;
    hash[key] += static_cast<uint64_t>(i);
    ordered[key ^ 0x5555] = static_cast<uint64_t>(i);
    values.push_back(static_cast<double>(key));
  }
  for (int i = 0; i < 30000; ++i) {
    auto it = hash.find(next() % 25000);
    if (it != hash.end()) acc += it->second;
    auto jt = ordered.lower_bound(next() % 25000);
    if (jt != ordered.end()) acc += jt->first;
  }
  std::sort(values.begin(), values.end());
  acc += static_cast<uint64_t>(values.front());
  __asm__ __volatile__("" : : "g"(acc) : "memory");  // Keep the work.
  return ReadUsage().cpu_s - before.cpu_s;
}

// ------------------------------------------------------------ statistics

/// Percentile `p` in [0, 100] of `values`, interpolated as the system's
/// own trackers do; NaN (not measured) when there are none.
double Percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return NAN;
  PercentileTracker tracker;
  for (double v : values) tracker.Add(v);
  return tracker.Percentile(p);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

double Ratio(double num, double den) { return den > 0 ? num / den : NAN; }

/// JSON number with every digit; a non-finite value (a metric that was not
/// measured, which fails the run) becomes null.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- workloads

/// One benchmark workload; BENCHMARK.json records why each was chosen.
struct Workload {
  const char* name;
  /// Transactions each client runs per sub-run.
  int txns_per_thread;
  /// Distinct seeds (placements and transaction streams) per run.
  int seeds;
  core::SystemConfig (*make)();
};

/// The shared closed-loop client model: 3 clients per site, no think
/// time, aborted attempts retried (as fresh transactions) until they
/// commit, so no client transaction fails.
core::SystemConfig ClosedLoop(core::SystemConfig config) {
  config.workload.threads_per_site = 3;
  config.retry = core::RetryPolicy::kRetryUntilCommit;
  return config;
}

const Workload kWorkloads[] = {
    // Table 1 defaults: 9 sites, 200 items, b = 0.2, 50 ms lock timeout.
    {"sim_backedge_table1", 100, 160,
     [] { return ClosedLoop(harness::PaperConfig(core::Protocol::kBackEdge)); }},
    {"sim_dagt_tree64", 20, 40,
     [] {
       core::SystemConfig config =
           ClosedLoop(harness::PaperConfig(core::Protocol::kDagT));
       config.workload.backedge_prob = 0;
       harness::ApplyTopology("tree:64,4", 3, &config.workload);
       config.workload.num_items = 6400;
       return config;
     }},
    // YCSB-B (95% reads) at zipf 0.8 over 200 items: MVCC snapshot reads
    // beside hot-key writes.
    {"sim_ycsbb_snapshot", 120, 200,
     [] {
       core::SystemConfig config =
           ClosedLoop(harness::PaperConfig(core::Protocol::kDagWt));
       config.workload.backedge_prob = 0;
       config.workload.num_items = 200;
       config.workload.workload = workload::WorkloadKind::kYcsbB;
       config.workload.zipf_theta = 0.8;
       config.consistency = storage::ConsistencyLevel::kSnapshot;
       return config;
     }},
    // Real threads (3 machines x 1 lane = 3 executor threads) with the
    // cost model's CPU charges as timed waits: wall-clock metrics follow
    // the model, CPU per transaction is this code's.
    {"threads_dagwt_wal", 20, 24,
     [] {
       core::SystemConfig config =
           ClosedLoop(harness::PaperConfig(core::Protocol::kDagWt));
       config.runtime = runtime::RuntimeKind::kThreads;
       config.workload.backedge_prob = 0;
       config.workload.num_items = 20000;
       config.enable_wal = true;
       // Drain is detected at 1 ms granularity, and a stuck run is cut
       // (and fails the gate) long before the process deadline.
       config.quiesce_poll = kMillisecond;
       config.max_sim_time = Seconds(60);
       return config;
     }},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The i-th sub-run seed of a run: a fixed function of the run seed.
uint64_t SubSeed(uint64_t run_seed, int i) {
  Rng rng(run_seed, static_cast<uint64_t>(i) + 1);
  return rng.Next64() | 1;
}

// -------------------------------------------------------- registry reads

double RegistrySum(const std::vector<obs::MetricSnapshot>& snapshot,
                   const std::string& name, bool* found = nullptr) {
  double sum = 0;
  bool any = false;
  for (const obs::MetricSnapshot& family : snapshot) {
    if (family.name != name) continue;
    for (const auto& cell : family.cells) {
      sum += cell.value;
      any = true;
    }
  }
  if (found != nullptr) *found = any;
  return sum;
}

double RegistryMax(const std::vector<obs::MetricSnapshot>& snapshot,
                   const std::string& name) {
  double max = NAN;
  for (const obs::MetricSnapshot& family : snapshot) {
    if (family.name != name) continue;
    for (const auto& cell : family.cells) {
      max = std::isnan(max) ? cell.value : std::max(max, cell.value);
    }
  }
  return max;
}

// --------------------------------------------------------------- sub-run

/// Everything measured on one sub-run. Modeled fields come from the
/// runtime clock (virtual under the sim); real fields from the host.
struct SubRun {
  uint64_t seed = 0;
  int seed_index = 0;  // Position of `seed` among the run's seeds.
  // Real.
  double setup_s = 0;
  double run_wall_s = 0;
  double cpu_s = 0;
  int64_t ctx_switches = 0;
  double check_s = NAN;
  double kernel_s = NAN;  // Host kernel CPU around the sub-run.
  // Counts.
  int64_t clients_txns = 0;  // Transactions the clients submitted.
  int64_t committed = 0;     // Primaries (2PL read-only included).
  int64_t aborted = 0;       // Aborted primary attempts (all retried).
  int64_t snapshot_reads = 0;
  int64_t reads = 0;  // Read-only commits on the workload's read path.
  // Runtime clock.
  double workload_s = 0;
  double drain_s = 0;
  double response_p50_ms = 0;
  double response_p99_ms = 0;
  size_t response_samples = 0;
  double read_p50_ms = NAN;
  double read_p99_ms = NAN;
  size_t read_samples = 0;
  Summary propagation_ms;
  Summary apply_delay_ms;
  // Layers.
  uint64_t sim_events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double inflight_peak = NAN;
  uint64_t lock_requests = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  Summary lock_wait_ms;
  bool wal = false;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  bool mvcc = false;
  std::vector<double> chain_lengths;
  int64_t gc_reclaimed = 0;
  double queue_peak = NAN;
  bool has_backedge = false;
  double backedge_txns = 0;
  bool has_epochs = false;
  double dummies = 0;
  double epoch_bumps = 0;
  uint64_t history_records = 0;

  /// All committed transactions: primaries plus snapshot reads.
  int64_t all_committed() const { return committed + snapshot_reads; }

  /// The values the sim must reproduce bit for bit from the seed.
  std::vector<double> ModeledFingerprint() const {
    return {static_cast<double>(committed),
            static_cast<double>(aborted),
            static_cast<double>(snapshot_reads),
            static_cast<double>(reads),
            workload_s,
            drain_s,
            response_p50_ms,
            response_p99_ms,
            read_p50_ms,
            read_p99_ms,
            propagation_ms.mean(),
            static_cast<double>(propagation_ms.count()),
            apply_delay_ms.mean(),
            static_cast<double>(sim_events),
            static_cast<double>(messages),
            static_cast<double>(bytes),
            static_cast<double>(lock_waits),
            static_cast<double>(lock_timeouts)};
  }
};

/// Collects the correctness verdicts; any violation fails the run.
struct Gate {
  std::vector<std::string> violations;
  void Require(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  bool ok() const { return violations.empty(); }
};

std::unique_ptr<core::System> CreateTimed(const core::SystemConfig& config,
                                          double* setup_s) {
  const double t0 = WallSeconds();
  Result<std::unique_ptr<core::System>> system =
      core::System::Create(config);
  *setup_s = WallSeconds() - t0;
  if (!system.ok()) {
    std::fprintf(stderr, "System::Create failed: %s\n",
                 system.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(system).value();
}

core::SystemConfig SubRunConfig(const Workload& workload, uint64_t seed) {
  core::SystemConfig config = workload.make();
  config.workload.txns_per_thread = workload.txns_per_thread;
  config.seed = seed;
  return config;
}

/// Times the history checkers again on `system`'s recorded history (the
/// same checks `Run` made) and returns the wall seconds they took.
double TimeHistoryCheck(const core::System& system, Gate* gate) {
  const double t0 = WallSeconds();
  bool ok = core::CheckSerializability(system.history()).serializable &&
            core::CheckReadConsistency(system.history()).consistent;
  if (system.config().consistency !=
      storage::ConsistencyLevel::kSerializable) {
    ok = core::CheckSnapshotConsistency(system.history()).consistent && ok;
  }
  const double elapsed = WallSeconds() - t0;
  gate->Require(ok, "history re-check disagrees with Run");
  return elapsed;
}

SubRun RunOnce(const Workload& workload, const std::vector<uint64_t>& seeds,
               int seed_index, bool time_check, Gate* gate,
               std::unique_ptr<core::System>* keep = nullptr,
               bool trace = false) {
  const uint64_t seed = seeds[static_cast<size_t>(seed_index)];
  core::SystemConfig config = SubRunConfig(workload, seed);
  if (trace) {
    config.enable_trace = true;
    config.trace_max_events = size_t{1} << 24;
  }
  SubRun r;
  r.seed = seed;
  r.seed_index = seed_index;
  std::unique_ptr<core::System> system = CreateTimed(config, &r.setup_s);

  const Usage u0 = ReadUsage();
  const double t0 = WallSeconds();
  core::RunMetrics m = system->Run();
  r.run_wall_s = WallSeconds() - t0;
  const Usage u1 = ReadUsage();
  r.cpu_s = u1.cpu_s - u0.cpu_s;
  r.ctx_switches = u1.ctx_switches - u0.ctx_switches;

  const std::string tag =
      std::string(workload.name) + " seed " + std::to_string(seed) + ": ";
  gate->Require(m.checked && m.serializable, tag + "not serializable: " +
                                                 m.verdict);
  gate->Require(m.reads_consistent, tag + "reads inconsistent: " +
                                        m.verdict);
  gate->Require(m.snapshots_consistent,
                tag + "snapshots inconsistent: " + m.verdict);
  gate->Require(m.converged, tag + "replicas did not converge");
  gate->Require(!m.timed_out, tag + "timed out before quiescence");
  if (trace) {
    gate->Require(system->trace() != nullptr && !system->trace()->truncated(),
                  tag + "trace truncated");
  }

  const core::SystemConfig& cfg = system->config();
  const bool snapshot =
      cfg.consistency != storage::ConsistencyLevel::kSerializable;
  r.clients_txns = static_cast<int64_t>(cfg.workload.num_sites) *
                   cfg.workload.threads_per_site *
                   cfg.workload.txns_per_thread;
  r.committed = m.committed;
  r.aborted = m.aborted;
  r.snapshot_reads = m.read_committed;
  gate->Require(r.all_committed() == r.clients_txns,
                tag + "client transactions did not all commit");
  r.workload_s = ToSeconds(m.workload_elapsed);
  r.drain_s = ToSeconds(m.drain_elapsed - m.workload_elapsed);

  core::MetricsCollector& metrics = system->metrics();
  PercentileTracker response = metrics.response_percentiles();
  r.response_p50_ms = response.Percentile(50);
  r.response_p99_ms = response.Percentile(99);
  r.response_samples = response.count();
  PercentileTracker reads = snapshot ? metrics.read_percentiles()
                                     : metrics.locked_read_percentiles();
  r.reads = snapshot ? metrics.total_read_committed()
                     : metrics.total_locked_read_committed();
  r.read_samples = reads.count();
  if (reads.count() > 0) {
    r.read_p50_ms = reads.Percentile(50);
    r.read_p99_ms = reads.Percentile(99);
  }
  r.propagation_ms = metrics.full_propagation_ms();
  r.apply_delay_ms = metrics.per_site_apply_ms();

  if (cfg.runtime == runtime::RuntimeKind::kSim) {
    r.sim_events = system->simulator().events_processed();
  }
  {
    core::ProtocolNetwork::Stats net = system->network().Snapshot();
    r.messages = net.total_messages;
    r.bytes = net.total_bytes;
  }
  const int num_sites = cfg.workload.num_sites;
  for (SiteId s = 0; s < num_sites; ++s) {
    storage::Database& db = system->database(s);
    const auto& stats = db.locks().stats();
    r.lock_requests += stats.requests.load();
    r.lock_waits += stats.waits.load();
    r.lock_timeouts += stats.timeouts.load();
    r.lock_wait_ms.Merge(stats.wait_time_ms);
    if (const storage::Wal* wal = db.wal()) {
      r.wal = true;
      r.wal_records += wal->size() + wal->truncated();
      r.wal_bytes += wal->size_bytes();
      r.wal_syncs += wal->sync_batches();
    }
    if (snapshot) {
      r.mvcc = true;
      for (const auto& [item, len] : db.store().ChainLengths()) {
        r.chain_lengths.push_back(static_cast<double>(len));
      }
      r.gc_reclaimed += db.gc_reclaimed();
    }
  }
  const std::vector<obs::MetricSnapshot> registry =
      system->obs_registry().Snapshot();
  r.inflight_peak =
      RegistryMax(registry, "lazyrep_net_inflight_messages_peak");
  r.queue_peak = RegistryMax(registry, "lazyrep_engine_queue_peak");
  r.backedge_txns = RegistrySum(registry, "lazyrep_engine_backedge_txns_total",
                                &r.has_backedge);
  r.dummies = RegistrySum(registry, "lazyrep_engine_dummies_sent_total",
                          &r.has_epochs);
  r.epoch_bumps = RegistrySum(registry, "lazyrep_engine_epoch_bumps_total");
  r.history_records = system->history().records().size();
  if (time_check) r.check_s = TimeHistoryCheck(*system, gate);
  if (keep != nullptr) *keep = std::move(system);
  return r;
}

// ----------------------------------------------------------------- trace

/// Per-hop propagation stages derived from a traced sub-run.
struct TraceStats {
  std::vector<double> flight_ms;  // msg post -> msg deliver.
  std::vector<double> apply_ms;   // deliver -> secondary commit.
  int64_t paths = 0;              // Transactions whose path was summed.
  bool invariant_checked = false;
};

/// Reconstructs, for every propagated transaction, the path to its last
/// replica from trace events (origin commit -> post -> deliver -> commit
/// -> post -> ...) and derives the hop stages. Under the sim the stages
/// of each path must sum exactly to that transaction's propagation delay,
/// and the delays must reproduce the collector's propagation summary.
TraceStats AnalyzeTrace(core::System& system, Gate* gate) {
  using Kind = core::TraceEvent::Kind;
  TraceStats stats;
  const std::vector<core::TraceEvent> events = system.trace()->events();
  // Per transaction: its events in trace order (time-ordered per site).
  std::map<GlobalTxnId, std::vector<const core::TraceEvent*>> by_txn;
  for (const core::TraceEvent& e : events) {
    if (e.txn.origin_site < 0) continue;
    if (e.kind == Kind::kTxnCommit || e.kind == Kind::kMsgPost ||
        e.kind == Kind::kMsgDeliver) {
      by_txn[e.txn].push_back(&e);
    }
  }
  // Sites that installed writes for each origin (the replicas the
  // propagation metric waits for).
  std::map<GlobalTxnId, std::vector<SiteId>> applied_at;
  for (const core::HistoryRecorder::Record& rec : system.history().records()) {
    if (rec.site != rec.origin.origin_site && !rec.writes.empty()) {
      applied_at[rec.origin].push_back(rec.site);
    }
  }

  auto latest = [](const std::vector<const core::TraceEvent*>& list,
                   auto&& pred, SimTime not_after) {
    const core::TraceEvent* best = nullptr;
    for (const core::TraceEvent* e : list) {
      if (e->time <= not_after && pred(*e) &&
          (best == nullptr || e->time >= best->time)) {
        best = e;
      }
    }
    return best;
  };
  auto commit_at = [&](const std::vector<const core::TraceEvent*>& list,
                       SiteId site, SimTime not_after) {
    return latest(list,
                  [site](const core::TraceEvent& e) {
                    return e.kind == Kind::kTxnCommit && e.site == site;
                  },
                  not_after);
  };
  // The message hop that delivered `txn` to `site` before `by`.
  struct Hop {
    const core::TraceEvent* post = nullptr;
    const core::TraceEvent* deliver = nullptr;
  };
  auto hop_into = [&](const std::vector<const core::TraceEvent*>& list,
                      SiteId site, SimTime by) {
    Hop hop;
    hop.deliver = latest(list,
                         [site](const core::TraceEvent& e) {
                           return e.kind == Kind::kMsgDeliver &&
                                  e.site == site;
                         },
                         by);
    if (hop.deliver == nullptr) return hop;
    const core::TraceEvent* d = hop.deliver;
    hop.post = latest(list,
                      [d](const core::TraceEvent& e) {
                        return e.kind == Kind::kMsgPost &&
                               e.site == d->peer && e.peer == d->site &&
                               e.detail == d->detail;
                      },
                      d->time);
    return hop;
  };

  const bool exact = system.config().runtime == runtime::RuntimeKind::kSim;
  Summary delays_ms;
  int64_t broken = 0;
  for (const auto& [txn, list] : by_txn) {
    auto sites = applied_at.find(txn);
    if (sites == applied_at.end()) continue;
    const core::TraceEvent* origin_commit =
        commit_at(list, txn.origin_site, std::numeric_limits<SimTime>::max());
    if (origin_commit == nullptr) continue;  // Aborted attempt.
    const core::TraceEvent* last = nullptr;
    for (SiteId s : sites->second) {
      const core::TraceEvent* c =
          commit_at(list, s, std::numeric_limits<SimTime>::max());
      if (c == nullptr) {
        ++broken;
        continue;
      }
      Hop hop = hop_into(list, s, c->time);
      if (hop.post != nullptr) {
        stats.flight_ms.push_back(ToMillis(hop.deliver->time - hop.post->time));
        stats.apply_ms.push_back(ToMillis(c->time - hop.deliver->time));
      }
      if (last == nullptr || c->time > last->time) last = c;
    }
    if (last == nullptr) continue;
    // Walk back from the last replica to the origin, summing stages.
    Duration stages = 0;
    const core::TraceEvent* cur = last;
    bool ok = false;
    for (int guard = 0; guard < 4 * system.config().workload.num_sites;
         ++guard) {
      Hop hop = hop_into(list, cur->site, cur->time);
      if (hop.post == nullptr) break;
      stages += cur->time - hop.deliver->time;            // Apply.
      stages += hop.deliver->time - hop.post->time;       // Flight.
      const core::TraceEvent* sender_commit =
          hop.post->site == txn.origin_site
              ? origin_commit
              : commit_at(list, hop.post->site, hop.post->time);
      if (sender_commit == nullptr) break;
      stages += hop.post->time - sender_commit->time;     // Commit -> post.
      if (sender_commit == origin_commit) {
        ok = true;
        break;
      }
      cur = sender_commit;
    }
    // A complete path telescopes to the delay; what ties the trace to the
    // metric is the comparison with the collector below.
    const Duration delay = last->time - origin_commit->time;
    if (!ok || stages != delay) {
      ++broken;
      continue;
    }
    ++stats.paths;
    delays_ms.Add(ToMillis(delay));
  }
  if (exact) {
    stats.invariant_checked = true;
    const Summary metric = system.metrics().full_propagation_ms();
    gate->Require(broken == 0, "trace: " + std::to_string(broken) +
                                   " propagation paths could not be "
                                   "reconstructed");
    auto describe = [](const Summary& s) {
      return "n=" + std::to_string(s.count()) + " min=" + Number(s.min()) +
             " max=" + Number(s.max()) + " mean=" + Number(s.mean());
    };
    gate->Require(delays_ms.count() == metric.count() &&
                      delays_ms.min() == metric.min() &&
                      delays_ms.max() == metric.max() &&
                      std::abs(delays_ms.mean() - metric.mean()) <=
                          1e-9 * std::max(1.0, metric.mean()),
                  "trace: hop stages do not sum to the propagation delay "
                  "(trace " + describe(delays_ms) + " vs metric " +
                      describe(metric) + ")");
  }
  return stats;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  std::string unit;
  double value;  // Layers a workload lacks report 0; NaN fails the run.
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetricsTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %20s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

/// Parses `--key=value` flags; false on anything else.
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
      continue;
    }
    if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0' || value.empty()) return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lazyrep_perfbench --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const core::SystemConfig base = SubRunConfig(*workload, args.seed);
  const bool sim = base.runtime == runtime::RuntimeKind::kSim;
  const bool snapshot =
      base.consistency != storage::ConsistencyLevel::kSerializable;
  // Executor threads the runtime runs the workload on.
  const int executors =
      sim ? 1
          : (base.workload.num_sites + base.workload.sites_per_machine - 1) /
                base.workload.sites_per_machine * base.workers_per_site;
  Gate gate;

  std::vector<uint64_t> seeds;
  for (int i = 0; i < workload->seeds; ++i) {
    seeds.push_back(SubSeed(args.seed, i));
  }
  const int num_seeds = workload->seeds;

  // --- Warm-up: one sub-run that fills the allocator's arenas and the
  // caches, gated for correctness but kept out of every metric.
  RunOnce(*workload, seeds, 0, /*time_check=*/false, &gate);

  // --- Workload loop: one pass over the seeds, then repeats until the
  // measuring time is used up. The sim repeats at least one seed, so the
  // determinism gate always runs.
  std::vector<SubRun> runs;
  std::vector<double> setup_samples;
  std::vector<double> kernels;
  const double loop_start = WallSeconds();
  const size_t min_runs = static_cast<size_t>(num_seeds) + (sim ? 1 : 0);
  while (runs.size() < min_runs ||
         WallSeconds() - loop_start < args.seconds) {
    const int i = static_cast<int>(runs.size());
    for (int k = 0; k < kSetupRepsPerSubRun; ++k) {
      double setup_s = 0;
      CreateTimed(SubRunConfig(*workload, seeds[i % num_seeds]), &setup_s);
      setup_samples.push_back(setup_s);
    }
    // The host's speed around the sub-run scales its CPU times: the mean
    // of the kernel timed right before it and the one timed right before
    // the next sub-run (or after the loop).
    kernels.push_back(HostKernelCpuSeconds());
    runs.push_back(RunOnce(*workload, seeds, i % num_seeds,
                           /*time_check=*/args.trace == 1, &gate));
    setup_samples.push_back(runs.back().setup_s);
    if (sim && i >= num_seeds) {
      gate.Require(runs.back().ModeledFingerprint() ==
                       runs[static_cast<size_t>(i % num_seeds)]
                           .ModeledFingerprint(),
                   std::string(workload->name) + " seed " +
                       std::to_string(runs.back().seed) +
                       ": same-seed sim runs differ in modeled metrics");
    }
  }
  const double loop_s = WallSeconds() - loop_start;
  kernels.push_back(HostKernelCpuSeconds());
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i].kernel_s = (kernels[i] + kernels[i + 1]) / 2;
  }
  const Usage usage = ReadUsage();
  auto raw_cpu_us_per_txn = [](const SubRun& r) {
    return 1e6 * Ratio(r.cpu_s, static_cast<double>(r.all_committed()));
  };
  // Scaled to the reference host, where the kernel takes kKernelReferenceS.
  auto cpu_us_per_txn = [&](const SubRun& r) {
    return raw_cpu_us_per_txn(r) * kKernelReferenceS / r.kernel_s;
  };

  // Modeled metrics and counts: the first pass (distinct seeds) under the
  // sim, where repeats are identical; every sub-run under the threads
  // runtime, whose clock is the wall.
  const std::vector<SubRun> modeled(
      runs.begin(), sim ? runs.begin() + num_seeds : runs.end());
  // Median over seeds of each seed's median.
  auto median_of = [num_seeds](const std::vector<SubRun>& set, auto&& fn) {
    std::vector<std::vector<double>> by_seed(static_cast<size_t>(num_seeds));
    for (const SubRun& r : set) {
      by_seed[static_cast<size_t>(r.seed_index)].push_back(fn(r));
    }
    std::vector<double> medians;
    for (const std::vector<double>& values : by_seed) {
      if (!values.empty()) medians.push_back(Median(values));
    }
    return Median(medians);
  };
  auto sum_of = [](const std::vector<SubRun>& set, auto&& fn) {
    double total = 0;
    for (const SubRun& r : set) total += static_cast<double>(fn(r));
    return total;
  };

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  for (const SubRun& r : runs) {
    attempted += r.clients_txns;
    failed += r.clients_txns - r.all_committed();
    committed += r.all_committed();
    aborted += r.aborted;
  }

  std::vector<Metric> out;
  if (args.trace == 0) {
    out = {
        {"setup_s", "s", Median(setup_samples)},
        {"commit_tps", "txn/s",
         median_of(modeled,
                   [](const SubRun& r) {
                     return Ratio(static_cast<double>(r.committed),
                                  r.workload_s);
                   })},
        {"replicated_tps", "txn/s",
         median_of(modeled,
                   [](const SubRun& r) {
                     return Ratio(static_cast<double>(r.committed),
                                  r.workload_s + r.drain_s);
                   })},
        {"response_p50_ms", "ms",
         median_of(modeled, [](const SubRun& r) { return r.response_p50_ms; })},
        {"response_p99_ms", "ms",
         median_of(modeled, [](const SubRun& r) { return r.response_p99_ms; })},
        {"attempts_per_commit", "attempts/txn",
         median_of(modeled,
                   [](const SubRun& r) {
                     return Ratio(static_cast<double>(r.committed + r.aborted),
                                  static_cast<double>(r.committed));
                   })},
        {"propagation_ms", "ms",
         median_of(modeled,
                   [](const SubRun& r) { return r.propagation_ms.mean(); })},
        {"read_tps", "txn/s",
         median_of(modeled,
                   [](const SubRun& r) {
                     return Ratio(static_cast<double>(r.reads), r.workload_s);
                   })},
        {"read_p50_ms", "ms",
         median_of(modeled, [](const SubRun& r) { return r.read_p50_ms; })},
        {"read_p99_ms", "ms",
         median_of(modeled, [](const SubRun& r) { return r.read_p99_ms; })},
        {"cpu_us_per_txn", "us", median_of(runs, cpu_us_per_txn)},
        {"peak_rss_mb", "MB", usage.maxrss_mb},
    };
  } else {
    // Per-layer metrics. Counts are per committed transaction, over the
    // modeled set (exact under the sim); host costs over every sub-run.
    const double txns =
        sum_of(modeled, [](const SubRun& r) { return r.all_committed(); });
    auto per_txn = [&](auto&& fn) { return sum_of(modeled, fn) / txns; };
    const SubRun& first = runs.front();

    // Set-up layers, timed by calling them directly.
    std::vector<double> placement_s, routing_s, generator_s;
    for (int i = 0; i < kLayerSetupReps; ++i) {
      core::SystemConfig config =
          SubRunConfig(*workload, seeds[i % num_seeds]);
      Rng rng(config.seed);
      double t0 = WallSeconds();
      Result<graph::Placement> placement =
          workload::MakeWorkloadPlacement(config.workload, &rng);
      placement_s.push_back(WallSeconds() - t0);
      gate.Require(placement.ok(), "placement generation failed");
      if (!placement.ok()) break;
      t0 = WallSeconds();
      auto routing =
          core::Routing::Build(*placement, config.protocol, config.engine);
      routing_s.push_back(WallSeconds() - t0);
      gate.Require(routing.ok(), "routing build failed");
      t0 = WallSeconds();
      auto generator = workload::MakeWorkload(config.workload, *placement);
      generator_s.push_back(WallSeconds() - t0);
      gate.Require(generator.ok(), "workload generator build failed");
    }

    // The traced sub-run: first seed again, tracing on, right after an
    // untraced twin of the same work for the overhead comparison.
    const SubRun twin = RunOnce(*workload, seeds, 0, /*time_check=*/false,
                                &gate);
    std::unique_ptr<core::System> traced_system;
    const SubRun traced = RunOnce(*workload, seeds, 0, /*time_check=*/false,
                                  &gate, &traced_system, /*trace=*/true);
    TraceStats trace = AnalyzeTrace(*traced_system, &gate);
    traced_system.reset();

    std::vector<double> chains;
    for (const SubRun& r : modeled) {
      chains.insert(chains.end(), r.chain_lengths.begin(),
                    r.chain_lengths.end());
    }
    Summary lock_wait_ms;
    Summary apply_delay_ms;
    for (const SubRun& r : modeled) {
      lock_wait_ms.Merge(r.lock_wait_ms);
      apply_delay_ms.Merge(r.apply_delay_ms);
    }
    const double runtime_s =
        sum_of(modeled, [](const SubRun& r) { return r.workload_s; });
    const double primaries =
        sum_of(modeled, [](const SubRun& r) { return r.committed; });
    const double attempts = sum_of(
        modeled, [](const SubRun& r) { return r.committed + r.aborted; });
    const double cpu_all = sum_of(runs, [](const SubRun& r) { return r.cpu_s; });

    out = {
        {"sim.events_per_txn", "count",
         sim ? per_txn([](const SubRun& r) { return r.sim_events; }) : 0.0},
        {"sim.events_per_cpu_s", "1/s",
         sim ? Ratio(sum_of(runs, [](const SubRun& r) { return r.sim_events; }),
                     cpu_all)
             : 0.0},
        {"runtime.cpu_us_per_txn_raw", "us",
         median_of(runs, raw_cpu_us_per_txn)},
        {"host.kernel_ms", "ms",
         1e3 * median_of(runs, [](const SubRun& r) { return r.kernel_s; })},
        {"runtime.ctx_switches_per_txn", "count",
         sum_of(runs, [](const SubRun& r) { return r.ctx_switches; }) /
             sum_of(runs, [](const SubRun& r) { return r.all_committed(); })},
        {"runtime.cpu_util", "ratio",
         Ratio(cpu_all, sum_of(runs, [](const SubRun& r) {
                          return r.run_wall_s;
                        }) * executors)},
        {"net.msgs_per_txn", "count",
         per_txn([](const SubRun& r) { return r.messages; })},
        {"net.bytes_per_txn", "B",
         per_txn([](const SubRun& r) { return r.bytes; })},
        {"net.inflight_peak", "count",
         median_of(modeled, [](const SubRun& r) { return r.inflight_peak; })},
        {"storage.lock.requests_per_txn", "count",
         per_txn([](const SubRun& r) { return r.lock_requests; })},
        {"storage.lock.waits_per_txn", "count",
         per_txn([](const SubRun& r) { return r.lock_waits; })},
        {"storage.lock.wait_ms_mean", "ms",
         lock_wait_ms.count() > 0 ? lock_wait_ms.mean() : 0.0},
        {"storage.lock.timeouts_per_txn", "count",
         per_txn([](const SubRun& r) { return r.lock_timeouts; })},
        {"storage.wal.records_per_txn", "count",
         first.wal ? per_txn([](const SubRun& r) { return r.wal_records; })
                   : 0.0},
        {"storage.wal.bytes_per_txn", "B",
         first.wal ? per_txn([](const SubRun& r) { return r.wal_bytes; })
                   : 0.0},
        {"storage.wal.syncs_per_txn", "count",
         first.wal ? per_txn([](const SubRun& r) { return r.wal_syncs; })
                   : 0.0},
        {"storage.mvcc.chain_len_p99", "count",
         first.mvcc ? Percentile(chains, 99) : 0.0},
        {"storage.mvcc.gc_reclaimed_per_txn", "count",
         first.mvcc ? per_txn([](const SubRun& r) { return r.gc_reclaimed; })
                    : 0.0},
        {"core.txn.abort_pct", "%",
         100.0 * Ratio(attempts - primaries, attempts)},
        {"core.engine.apply_delay_ms", "ms",
         apply_delay_ms.count() > 0 ? apply_delay_ms.mean() : 0.0},
        {"core.engine.queue_peak", "count",
         median_of(modeled, [](const SubRun& r) { return r.queue_peak; })},
        {"core.engine.backedge_txn_pct", "%",
         first.has_backedge
             ? 100.0 * Ratio(sum_of(modeled,
                                    [](const SubRun& r) {
                                      return r.backedge_txns;
                                    }),
                             attempts)
             : 0.0},
        {"core.engine.dummies_per_txn", "count",
         first.has_epochs ? per_txn([](const SubRun& r) { return r.dummies; })
                          : 0.0},
        {"core.engine.epoch_bumps_per_s", "1/s",
         first.has_epochs
             ? Ratio(sum_of(modeled,
                            [](const SubRun& r) { return r.epoch_bumps; }),
                     runtime_s)
             : 0.0},
        {"core.history.check_s", "s",
         median_of(runs, [](const SubRun& r) { return r.check_s; })},
        {"core.history.records_per_txn", "count",
         per_txn([](const SubRun& r) { return r.history_records; })},
        {"graph.placement_s", "s", Median(placement_s)},
        {"core.routing_s", "s", Median(routing_s)},
        {"workload.generator_s", "s", Median(generator_s)},
        {"trace.hop_flight_ms_p50", "ms", Percentile(trace.flight_ms, 50)},
        {"trace.hop_flight_ms_p99", "ms", Percentile(trace.flight_ms, 99)},
        {"trace.hop_apply_ms_p50", "ms", Percentile(trace.apply_ms, 50)},
        {"trace.hop_apply_ms_p99", "ms", Percentile(trace.apply_ms, 99)},
        {"trace.overhead_pct", "%",
         100.0 * (Ratio(raw_cpu_us_per_txn(traced), raw_cpu_us_per_txn(twin)) -
                  1.0)},
    };
    std::printf("traced sub-run: %zu flight hops, %zu apply hops, %lld "
                "paths%s\n",
                trace.flight_ms.size(), trace.apply_ms.size(),
                static_cast<long long>(trace.paths),
                trace.invariant_checked ? ", stage sums checked exactly"
                                        : "");
  }

  // Human-readable report, then provenance, then the result line.
  std::printf("workload %s (%s): %zu sub-runs over %.2f s, %d seeds\n",
              workload->name, sim ? "sim" : "threads", runs.size(), loop_s,
              num_seeds);
  std::printf("transactions: attempted %lld committed %lld failed %lld, "
              "aborted attempts %lld (abort %.4f%% of primary attempts)\n",
              static_cast<long long>(attempted),
              static_cast<long long>(committed),
              static_cast<long long>(failed),
              static_cast<long long>(aborted),
              100.0 * Ratio(static_cast<double>(aborted),
                            static_cast<double>(committed + aborted)));
  std::printf("samples per sub-run: %zu responses, %zu reads (%s path)\n",
              runs.front().response_samples, runs.front().read_samples,
              snapshot ? "snapshot" : "2PL");
  for (const Metric& m : out) {
    gate.Require(std::isfinite(m.value), "metric " + m.name + " not measured");
  }
  PrintMetricsTable(out);
  for (const std::string& v : gate.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }

  std::printf(
      "provenance {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"runtime\":%s,\"cost_model\":%s,\"nproc\":%u,"
      "\"build_type\":%s,\"executors\":%d,\"sub_runs\":%zu,"
      "\"seeds_per_run\":%d}\n",
      Quote(workload->name).c_str(),
      static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace,
      Quote(sim ? "sim" : "threads").c_str(),
      Quote(base.costs.model_cpu ? "paper" : "none").c_str(),
      std::thread::hardware_concurrency(),
      Quote(LAZYREP_PERFBENCH_BUILD_TYPE).c_str(), executors, runs.size(),
      num_seeds);
  std::string json = "{\"correct\": " +
                     std::string(gate.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(out[i].name) + ": {\"value\": " + Number(out[i].value) +
            ", \"unit\": " + Quote(out[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return gate.ok() ? 0 : 1;
}
