// grid_ingest: a seeded multi-site grid runs in virtual time to a fixed
// horizon on the benchmark's thread: DAG jobs arrive, Sphinx places them on
// sites with background load, the steering optimizer moves slow tasks, and
// the Job Monitoring Service journals every farm transition as it happens
// (the BOSS half of job bookkeeping).
//
// Every durable store writes through a file WAL: the jobmon DB, the
// estimate DB, each site's task history and the steering journal. The
// jobmon log is sync-shipped to a standby Clarens host over loopback TCP,
// so an update is acked only once the standby has applied it. The standby
// keeps its log in memory: on a disk shared with other tenants its per-batch
// fsync made the acked-update tail a measure of the neighbours. This is the
// write path (common/wal, ha, the jobmon collector and DB) beside the
// control plane (sim, exec, sphinx, steering); monitor_poll runs none of it.
//
// One round is one whole simulated grid, from empty stores to the horizon.
// The run repeats identical rounds (same seed, same inputs) until the time
// is up; each round is verified when it ends. The MonALISA samplers re-arm
// forever, so a round runs to a fixed horizon rather than until the event
// queue drains.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "estimators/history.h"
#include "estimators/recorder.h"
#include "estimators/runtime_estimator.h"
#include "exec/execution_service.h"
#include "ha/replication.h"
#include "ha/rpc_binding.h"
#include "jobmon/db_manager.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "rpc/xmlrpc.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sim/load.h"
#include "sphinx/scheduler.h"
#include "steering/journal.h"
#include "steering/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gae::rpc::Array;
using gae::rpc::Value;

// -- Inputs (identical in every round of a run) ----------------------------------

struct NodeInput {
  double speed = 1.0;
  double initial_load = 0.0;
  std::vector<gae::sim::StepLoad::Step> steps;
};

struct SiteInput {
  std::string name;
  std::vector<NodeInput> nodes;
};

struct JobInput {
  double arrival_s = 0.0;
  gae::sphinx::JobDescription desc;
};

struct HistorySeed {
  std::size_t site = 0;
  std::map<std::string, std::string> attributes;
  double runtime = 0.0;
};

struct GridInputs {
  std::vector<SiteInput> sites;
  std::vector<JobInput> jobs;
  std::vector<HistorySeed> history;
  std::size_t tasks = 0;
  double max_speed = 0.0;
  double horizon_s = 0.0;
};

GridInputs make_inputs(std::uint64_t seed, bool tiny) {
  Rng rng(seed);
  GridInputs in;
  const int sites = 4;
  const int nodes = tiny ? 2 : 8;
  const int jobs = tiny ? 12 : 200;
  const double arrivals_s = 8 * 3600.0;
  in.horizon_s = 30 * 3600.0;

  // Two busy sites (heavy, shifting background load) and two quiet ones, so
  // placement and steering both have decisions to make. Node speeds and the
  // application mix are fixed; the seed draws the load steps, the jobs and
  // their arrivals, so every seed poses a grid of the same make-up.
  for (int s = 0; s < sites; ++s) {
    SiteInput site;
    site.name = "site-" + std::to_string(s);
    const bool busy = s < 2;
    for (int n = 0; n < nodes; ++n) {
      NodeInput node;
      node.speed = 0.8 + 0.8 * static_cast<double>((n + s) % nodes) / (nodes - 1);
      in.max_speed = std::max(in.max_speed, node.speed);
      auto load = [&] { return busy ? 0.3 + 0.4 * rng.uniform() : 0.2 * rng.uniform(); };
      node.initial_load = load();
      for (double t = 1800.0; t < in.horizon_s; t += 1800.0) {
        node.steps.push_back({gae::from_seconds(t), load()});
      }
      site.nodes.push_back(std::move(node));
    }
    in.sites.push_back(std::move(site));
  }

  std::vector<double> app_base;  // reference-CPU seconds, 250 s to 900 s
  for (int a = 0; a < 10; ++a) app_base.push_back(250.0 * std::pow(3.6, a / 9.0));
  static const char* kQueues[] = {"short", "standard", "long"};
  auto attributes = [&](int app, int login) {
    return std::map<std::string, std::string>{{"executable", "app" + std::to_string(app)},
                                              {"login", "login" + std::to_string(login)},
                                              {"queue", kQueues[app % 3]},
                                              {"nodes", "1"}};
  };

  double t = 0.0;
  for (int j = 0; j < jobs; ++j) {
    t += arrivals_s / jobs * (0.5 + rng.uniform());
    JobInput job;
    job.arrival_s = t;
    job.desc.id = "job-" + std::to_string(j);
    const int login = static_cast<int>(rng.uniform_int(0, 11));
    job.desc.owner = "login" + std::to_string(login);
    const int levels = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<std::string> previous;
    int index = 0;
    for (int level = 0; level < levels; ++level) {
      const int width = static_cast<int>(rng.uniform_int(1, 3));
      std::vector<std::string> current;
      for (int w = 0; w < width; ++w) {
        gae::sphinx::DagTask task;
        const int app = (j * 7 + index) % 10;  // an even application mix
        task.spec.id = job.desc.id + ".t" + std::to_string(index++);
        task.spec.job_id = job.desc.id;
        task.spec.owner = job.desc.owner;
        task.spec.executable = "app" + std::to_string(app);
        task.spec.work_seconds = app_base[static_cast<std::size_t>(app)] * rng.lognormal(0.0, 0.3);
        task.spec.checkpointable = rng.bernoulli(0.5);
        task.spec.attributes = attributes(app, login);
        if (!previous.empty()) {
          task.depends_on.push_back(
              previous[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(previous.size()) - 1))]);
          if (previous.size() > 1 && rng.bernoulli(0.5)) {
            const std::string& extra = previous[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(previous.size()) - 1))];
            if (extra != task.depends_on.front()) task.depends_on.push_back(extra);
          }
        }
        current.push_back(task.spec.id);
        job.desc.tasks.push_back(std::move(task));
        ++in.tasks;
      }
      previous = std::move(current);
    }
    in.jobs.push_back(std::move(job));
  }

  // A few completed runs of every application at every site, so the
  // runtime estimators have history from the first placement on.
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    for (int a = 0; a < 10; ++a) {
      for (int k = 0; k < 4; ++k) {
        in.history.push_back({s, attributes(a, static_cast<int>(rng.uniform_int(0, 11))),
                              app_base[static_cast<std::size_t>(a)] * rng.lognormal(0.0, 0.3)});
      }
    }
  }
  return in;
}

// -- Storage and shipping decorators ------------------------------------------------

/// Counters a decorator keeps; atomics because the standby's decorator runs
/// on the standby host's RPC worker threads.
struct StoreStats {
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> append_ns{0};
  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> sync_ns{0};
};

/// WalStorage decorator: times and counts appends and syncs.
/// With `latencies` set it also keeps every successful append's duration —
/// the acked-update latency at the jobmon store's storage boundary.
class TimedStorage final : public gae::WalStorage {
 public:
  TimedStorage(gae::WalStorage* inner, const char* span_name, StoreStats* stats,
               std::vector<double>* latencies = nullptr)
      : inner_(inner), span_name_(span_name), stats_(stats), latencies_(latencies) {}

  gae::Status append(const std::string& bytes) override {
    ScopedSpan span(span_name_);
    const std::int64_t t0 = now_ns();
    const gae::Status s = inner_->append(bytes);
    const std::int64_t dt = now_ns() - t0;
    stats_->append_ns.fetch_add(static_cast<std::uint64_t>(dt), std::memory_order_relaxed);
    if (s.is_ok()) {
      stats_->appends.fetch_add(1, std::memory_order_relaxed);
      stats_->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
      if (latencies_) latencies_->push_back(static_cast<double>(dt) / 1e3);
    } else {
      stats_->failures.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  gae::Result<std::string> read_all() const override { return inner_->read_all(); }
  gae::Status replace(const std::string& bytes) override { return inner_->replace(bytes); }
  gae::Status sync() override {
    ScopedSpan span("wal.sync");
    const std::int64_t t0 = now_ns();
    const gae::Status s = inner_->sync();
    stats_->sync_ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                              std::memory_order_relaxed);
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  bool writable() const override { return inner_->writable(); }
  void make_writable() override { inner_->make_writable(); }

 private:
  gae::WalStorage* inner_;
  const char* span_name_;
  StoreStats* stats_;
  std::vector<double>* latencies_;
};

struct ShipStats {
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  std::uint64_t ns = 0;
  std::uint64_t snapshots = 0;
};

/// ShipperTransport decorator: times each shipped batch.
class TimedShipper final : public gae::ha::ShipperTransport {
 public:
  TimedShipper(gae::ha::ShipperTransport* inner, ShipStats* stats)
      : inner_(inner), stats_(stats) {}

  gae::Result<gae::ha::ReplicaAck> append(const gae::ha::AppendBatch& batch) override {
    ScopedSpan span("ha.ship");
    const std::int64_t t0 = now_ns();
    auto ack = inner_->append(batch);
    stats_->ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++stats_->batches;
    stats_->records += batch.records;
    return ack;
  }
  gae::Result<gae::ha::ReplicaAck> snapshot(const gae::ha::SnapshotInstall& snap) override {
    ++stats_->snapshots;
    return inner_->snapshot(snap);
  }
  gae::Result<gae::ha::ReplicaAck> status(const std::string& stream) override {
    return inner_->status(stream);
  }
  gae::Result<gae::ha::SnapshotInstall> fetch(const std::string& stream) override {
    return inner_->fetch(stream);
  }

 private:
  gae::ha::ShipperTransport* inner_;
  ShipStats* stats_;
};

/// Keeps the steering journal's lines as the service appended them, the
/// live state its recovered log must reproduce.
class RecordingJournal final : public gae::steering::JournalSink {
 public:
  explicit RecordingJournal(gae::steering::JournalSink* inner) : inner_(inner) {}
  gae::Status append(const std::string& line) override {
    const gae::Status s = inner_->append(line);
    if (s.is_ok()) lines_.push_back(line);
    return s;
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  gae::steering::JournalSink* inner_;
  std::vector<std::string> lines_;
};

// -- The standby (lives for the whole run) --------------------------------------------

struct Standby {
  explicit Standby(bool trace)
      : timed(&log, "wal.standby", &stats),
        replica("jobmon", trace ? static_cast<gae::WalStorage*>(&timed) : &log) {}

  gae::MemoryWalStorage log;
  StoreStats stats;
  TimedStorage timed;
  gae::ha::StandbyReplica replica;
  gae::ha::StandbySet set;
};

// -- Checks (pure: the self-check feeds them wrong outputs) ------------------------------

std::string recovered_jobmon_state(gae::WalStorage& storage) {
  gae::Wal wal(&storage);
  gae::jobmon::DBManager db(nullptr, &wal);
  const gae::Status s = db.recover();
  return s.is_ok() ? db.export_state() : "recover failed: " + s.to_string();
}

std::string recovered_jobmon_state(const std::string& path) {
  gae::FileWalStorage storage(path);
  return recovered_jobmon_state(storage);
}

std::string recovered_estimates_state(const std::string& path) {
  gae::FileWalStorage storage(path);
  gae::Wal wal(&storage);
  gae::estimators::EstimateDatabase db(&wal);
  const gae::Status s = db.recover();
  return s.is_ok() ? db.export_state() : "recover failed: " + s.to_string();
}

std::string recovered_history_state(const std::string& path) {
  gae::FileWalStorage storage(path);
  gae::Wal wal(&storage);
  gae::estimators::TaskHistoryStore store;
  store.attach_wal(&wal);
  const gae::Status s = store.recover();
  return s.is_ok() ? store.export_state() : "recover failed: " + s.to_string();
}

std::vector<std::string> recovered_journal(const std::string& path) {
  gae::FileWalStorage storage(path);
  gae::Wal wal(&storage);
  auto lines = gae::steering::journal_lines_from_wal(wal);
  return lines.is_ok() ? lines.value() : std::vector<std::string>{"recover failed"};
}

/// A completed task used exactly its work, and no run can beat the work on
/// the fastest node of the grid.
bool task_outcome_ok(double work, double cpu, double first_submit_s, double completion_s,
                     double max_speed) {
  return std::fabs(cpu - work) <= 1e-6 * std::max(1.0, work) &&
         completion_s - first_submit_s >= work / max_speed - 1e-6;
}

/// Writes `bytes` minus the frame at `drop` (counted from 0) to `path`.
void write_without_frame(const std::string& bytes, std::size_t drop, const std::string& path) {
  const gae::WalReadResult decoded = gae::Wal::decode(bytes);
  std::string out;
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    if (i != drop) {
      out += gae::Wal::encode_frame(decoded.records[i].type, decoded.records[i].payload);
    }
  }
  gae::FileWalStorage storage(path);
  (void)storage.replace(out);
}

// -- One round ------------------------------------------------------------------------

struct RunTotals {
  // Per round: acked jobmon updates per second of run_until, and each acked
  // update's latency.
  std::vector<double> round_throughput;
  std::vector<std::vector<double>> round_latencies_us;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  double run_s = 0.0;         // wall time inside Simulation::run_until
  double store_s = 0.0;       // of which inside the four store decorators
  std::uint64_t events = 0;
  std::uint64_t moves = 0;
  double submit_us_total = 0.0;
  std::uint64_t submits = 0;
  double record_us_total = 0.0;
  std::uint64_t records = 0;
  double turnaround_s = -1.0;
  std::uint64_t acked_first_round = 0;
  StoreStats local;      // jobmon primary's local append (traced)
  ShipStats ship;
  // Layer probes from the last round (traced).
  double info_us = 0.0;
  double list_us = 0.0;
  double runtime_us = 0.0;
  double matches = 0.0;
  std::string frame_example;  // one shipped jobmon frame, for the codec probe
};

struct Paths {
  std::string jobmon;
  std::string estimates;
  std::string journal;
  std::vector<std::string> history;
  std::string scratch;
};

/// Builds a fresh world, runs it to the horizon, verifies it.
void run_round(const GridInputs& in, const Paths& paths, Standby& standby,
               gae::ha::ShipperTransport& transport, bool trace, bool last_probe,
               RunTotals& totals, Checks& checks, Report* self_check) {
  for (const auto& p : {paths.jobmon, paths.estimates, paths.journal}) {
    std::filesystem::remove(p);
  }
  for (const auto& p : paths.history) std::filesystem::remove(p);

  gae::sim::Simulation sim;
  gae::sim::Grid grid;
  for (const auto& site_in : in.sites) {
    auto& site = grid.add_site(site_in.name);
    for (std::size_t n = 0; n < site_in.nodes.size(); ++n) {
      const NodeInput& node = site_in.nodes[n];
      site.add_node(site_in.name + "-n" + std::to_string(n), node.speed,
                    std::make_shared<gae::sim::StepLoad>(node.initial_load, node.steps));
    }
  }
  grid.set_default_link({100e6, gae::from_millis(20)});

  // Durable stores. The jobmon chain: Wal -> timed (acked-update latency)
  // -> replicated (local append + sync ship) -> [timed] -> file.
  StoreStats jobmon_outer, est_stats, hist_stats, journal_stats;
  gae::FileWalStorage jobmon_file(paths.jobmon);
  TimedStorage jobmon_local(&jobmon_file, "wal.append", &totals.local);
  gae::ha::ShipperOptions sopts;
  sopts.mode = gae::ha::ReplicationMode::kSync;
  sopts.leader_host = "127.0.0.1";
  gae::ha::LogShipper shipper("jobmon", sopts);
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  gae::ha::ReplicatedWalStorage replicated(
      trace ? static_cast<gae::WalStorage*>(&jobmon_local) : &jobmon_file, &shipper);
  std::vector<double> latencies_us;
  TimedStorage jobmon_store(&replicated, "jobmon.store", &jobmon_outer, &latencies_us);
  // A fresh round starts from an empty log on both sides: the empty
  // snapshot install resets the standby's sequence to 0.
  checks.expect(jobmon_store.replace("").is_ok(), "could not reset the jobmon log pair");
  gae::Wal jobmon_wal(&jobmon_store);

  gae::FileWalStorage est_file(paths.estimates);
  TimedStorage est_store(&est_file, "estimate_db.append", &est_stats);
  gae::Wal est_wal(trace ? static_cast<gae::WalStorage*>(&est_store) : &est_file);
  std::vector<std::unique_ptr<gae::FileWalStorage>> hist_files;
  std::vector<std::unique_ptr<TimedStorage>> hist_stores;
  std::vector<std::unique_ptr<gae::Wal>> hist_wals;
  for (const auto& p : paths.history) {
    hist_files.push_back(std::make_unique<gae::FileWalStorage>(p));
    hist_stores.push_back(
        std::make_unique<TimedStorage>(hist_files.back().get(), "history.append", &hist_stats));
    hist_wals.push_back(std::make_unique<gae::Wal>(
        trace ? static_cast<gae::WalStorage*>(hist_stores.back().get())
              : hist_files.back().get()));
  }
  gae::FileWalStorage journal_file(paths.journal);
  TimedStorage journal_store(&journal_file, "journal.append", &journal_stats);
  gae::Wal journal_wal(trace ? static_cast<gae::WalStorage*>(&journal_store) : &journal_file);

  std::map<std::string, std::unique_ptr<gae::exec::ExecutionService>> execs;
  for (const auto& site_in : in.sites) {
    execs[site_in.name] = std::make_unique<gae::exec::ExecutionService>(sim, grid, site_in.name);
  }
  // The benchmark's own record of each task's first submission and
  // completion, read off the execution services' event feeds.
  std::map<std::string, double> first_submit, completion;
  std::vector<std::pair<gae::exec::ExecutionService*, int>> subscriptions;
  for (auto& [name, exec] : execs) {
    subscriptions.emplace_back(exec.get(), exec->subscribe([&](const gae::exec::TaskEvent& ev) {
      if (ev.new_state == gae::exec::TaskState::kQueued) {
        first_submit.try_emplace(ev.task_id, gae::to_seconds(ev.time));
      } else if (ev.new_state == gae::exec::TaskState::kCompleted) {
        completion[ev.task_id] = gae::to_seconds(ev.time);
      }
    }));
  }

  gae::monalisa::Repository monitoring;
  auto estimate_db = std::make_shared<gae::estimators::EstimateDatabase>(&est_wal);
  std::vector<std::shared_ptr<gae::estimators::RuntimeEstimator>> estimators;
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    auto history = std::make_shared<gae::estimators::TaskHistoryStore>();
    history->attach_wal(hist_wals[s].get());
    estimators.push_back(std::make_shared<gae::estimators::RuntimeEstimator>(history));
  }
  for (const HistorySeed& seed : in.history) {
    ScopedSpan span("estimators.record");
    const std::int64_t t0 = now_ns();
    estimators[seed.site]->record(seed.attributes, seed.runtime, 0, true);
    totals.record_us_total += static_cast<double>(now_ns() - t0) / 1e3;
    ++totals.records;
  }
  std::vector<std::unique_ptr<gae::estimators::SiteRuntimeRecorder>> recorders;
  std::vector<std::unique_ptr<gae::monalisa::PeriodicSampler>> samplers;
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    const std::string& name = in.sites[s].name;
    recorders.push_back(
        std::make_unique<gae::estimators::SiteRuntimeRecorder>(*execs[name], estimators[s]));
    samplers.push_back(std::make_unique<gae::monalisa::PeriodicSampler>(
        sim, gae::from_seconds(300), [&grid, &monitoring, &sim, name] {
          const gae::sim::Site& site = grid.site(name);
          double load = 0.0;
          for (std::size_t n = 0; n < site.node_count(); ++n) {
            load += site.node(n).background_load(sim.now());
          }
          monitoring.publish(name, "cpu_load", sim.now(),
                             load / static_cast<double>(site.node_count()));
        }));
  }
  gae::sphinx::SphinxScheduler scheduler(sim, grid, &monitoring, estimate_db);
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    scheduler.add_site(in.sites[s].name, {execs[in.sites[s].name].get(), estimators[s]});
  }
  gae::jobmon::JobMonitoringService jms(sim.clock(), &monitoring, estimate_db, &jobmon_wal);
  for (auto& [name, exec] : execs) jms.attach_site(name, exec.get());

  gae::steering::WalJournalSink journal_sink(&journal_wal);
  RecordingJournal journal(&journal_sink);
  gae::steering::SteeringService::Deps deps;
  deps.sim = &sim;
  deps.scheduler = &scheduler;
  deps.jobmon = &jms;
  deps.journal = &journal;
  deps.monitoring = &monitoring;
  for (auto& [name, exec] : execs) deps.services[name] = exec.get();
  gae::steering::SteeringOptions steer;
  steer.optimizer_interval_seconds = 120;
  steer.min_observation_seconds = 300;
  gae::steering::SteeringService steering(deps, steer);

  std::uint64_t submit_failures = 0;
  for (const JobInput& job : in.jobs) {
    sim.schedule_at(gae::from_seconds(job.arrival_s), [&, desc = &job.desc] {
      ScopedSpan span("sphinx.submit");
      const std::int64_t t0 = now_ns();
      if (!scheduler.submit(*desc).is_ok()) ++submit_failures;
      totals.submit_us_total += static_cast<double>(now_ns() - t0) / 1e3;
      ++totals.submits;
    });
  }

  // -- The timed part: the grid runs to the horizon.
  std::int64_t run_ns = 0;
  {
    ScopedSpan span("sim.run_until");
    const std::int64_t t0 = now_ns();
    sim.run_until(gae::from_seconds(in.horizon_s));
    run_ns = now_ns() - t0;
  }
  const std::uint64_t store_ns = jobmon_outer.append_ns.load() + est_stats.append_ns.load() +
                                 hist_stats.append_ns.load() + journal_stats.append_ns.load();
  totals.run_s += static_cast<double>(run_ns) / 1e9;
  totals.store_s += static_cast<double>(store_ns) / 1e9;
  totals.events += sim.events_fired();
  totals.moves += steering.stats().auto_moves;
  const std::uint64_t acked = jobmon_outer.appends.load();
  totals.acked += acked;
  totals.round_throughput.push_back(static_cast<double>(acked) / (static_cast<double>(run_ns) / 1e9));
  totals.round_latencies_us.push_back(std::move(latencies_us));
  totals.failed += jobmon_outer.failures.load();
  ++totals.rounds;

  // -- Verification.
  checks.expect(submit_failures == 0, "sphinx refused a job submission");
  checks.expect(jobmon_outer.failures.load() == 0 && est_stats.failures.load() == 0,
                "a WAL append failed");
  std::size_t tasks_seen = 0;
  double turnaround = 0.0;
  for (const JobInput& job : in.jobs) {
    auto status = scheduler.job_status(job.desc.id);
    checks.expect(status.is_ok() && status.value().state == gae::sphinx::JobState::kCompleted,
                  "job did not complete by the horizon: " + job.desc.id);
    for (const auto& task : job.desc.tasks) {
      const auto s = first_submit.find(task.spec.id);
      const auto c = completion.find(task.spec.id);
      if (!checks.expect(s != first_submit.end() && c != completion.end(),
                         "task never completed: " + task.spec.id)) {
        continue;
      }
      ++tasks_seen;
      turnaround += c->second - s->second;
      // The completed instance lives where the scheduler last placed it.
      auto site = scheduler.task_site(task.spec.id);
      auto info = site.is_ok() ? execs[site.value()]->query(task.spec.id)
                               : gae::Result<gae::exec::TaskInfo>(site.status());
      checks.expect(info.is_ok() && info.value().state == gae::exec::TaskState::kCompleted &&
                        task_outcome_ok(task.spec.work_seconds, info.value().cpu_seconds_used,
                                        s->second, c->second, in.max_speed),
                    "task accounting or timing impossible: " + task.spec.id);
    }
  }
  checks.expect(tasks_seen == in.tasks, "not every task completed");
  const double mean_turnaround = tasks_seen ? turnaround / static_cast<double>(tasks_seen) : 0.0;
  if (totals.turnaround_s < 0) {
    totals.turnaround_s = mean_turnaround;
    totals.acked_first_round = acked;
  } else {
    // Same seed, same inputs: every round must replay identically.
    checks.expect(mean_turnaround == totals.turnaround_s && acked == totals.acked_first_round,
                  "rounds of one seed diverged");
  }

  const std::string live = jms.db().export_state();
  checks.expect(recovered_jobmon_state(paths.jobmon) == live,
                "jobmon log does not recover to the live store");
  gae::MemoryWalStorage mirror;
  (void)mirror.replace(standby.log.bytes());
  checks.expect(recovered_jobmon_state(mirror) == live,
                "standby jobmon log does not recover to the primary's state");
  checks.expect(standby.replica.status().next_seq == acked,
                "standby applied " + std::to_string(standby.replica.status().next_seq) +
                    " records for " + std::to_string(acked) + " acked updates");
  checks.expect(recovered_estimates_state(paths.estimates) == estimate_db->export_state(),
                "estimate log does not recover to the live store");
  for (std::size_t s = 0; s < in.sites.size(); ++s) {
    checks.expect(recovered_history_state(paths.history[s]) ==
                      estimators[s]->history().export_state(),
                  "task history log does not recover at " + in.sites[s].name);
  }
  checks.expect(recovered_journal(paths.journal) == journal.lines(),
                "steering journal does not recover to the lines appended");

  if (last_probe) {
    // Direct calls into the layers the grid exercised, on its own state.
    std::vector<std::string> ids;
    for (const JobInput& job : in.jobs) {
      for (const auto& task : job.desc.tasks) ids.push_back(task.spec.id);
    }
    const std::size_t reps = std::min<std::size_t>(ids.size(), 200);
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) {
      ScopedSpan span("jobmon.info");
      (void)jms.info(ids[i * ids.size() / reps]);
    }
    totals.info_us = static_cast<double>(now_ns() - t0) / static_cast<double>(reps) / 1e3;
    t0 = now_ns();
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span("jobmon.list");
      (void)jms.list_all();
    }
    totals.list_us = static_cast<double>(now_ns() - t0) / 5 / 1e3;
    std::int64_t matches = 0;
    t0 = now_ns();
    std::size_t estimates = 0;
    for (const JobInput& job : in.jobs) {
      for (const auto& task : job.desc.tasks) {
        if (estimates == reps) break;
        ScopedSpan span("estimators.runtime");
        auto est = estimators[estimates % estimators.size()]->estimate(task.spec.attributes);
        if (est.is_ok()) matches += static_cast<std::int64_t>(est.value().samples);
        ++estimates;
      }
    }
    totals.runtime_us =
        static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::size_t>(estimates, 1)) / 1e3;
    totals.matches = static_cast<double>(matches) / static_cast<double>(std::max<std::size_t>(estimates, 1));
    auto log = jobmon_file.read_all();
    if (log.is_ok()) {
      const gae::WalReadResult decoded = gae::Wal::decode(log.value());
      if (!decoded.records.empty()) {
        totals.frame_example = gae::Wal::encode_frame(decoded.records.back().type,
                                                      decoded.records.back().payload);
      }
    }
  }

  if (self_check) {
    // Every check above must reject a deliberately wrong output.
    auto primary = jobmon_file.read_all();
    auto mirror = standby.log.read_all();
    if (primary.is_ok() && mirror.is_ok()) {
      const std::size_t frames = gae::Wal::decode(primary.value()).records.size();
      write_without_frame(primary.value(), frames - 1, paths.scratch);
      self_check->rejections.push_back(
          {"jobmon log missing its last record", recovered_jobmon_state(paths.scratch) != live});
      // The newest frame: a middle frame whose task was updated again later
      // would not change the recovered state.
      write_without_frame(mirror.value(), frames - 1, paths.scratch);
      self_check->rejections.push_back(
          {"standby log missing the newest frame", recovered_jobmon_state(paths.scratch) != live});
      self_check->rejections.push_back(
          {"standby applied one record fewer than acked",
           standby.replica.status().next_seq - 1 != acked});
    }
    auto est_log = est_file.read_all();
    if (est_log.is_ok()) {
      write_without_frame(est_log.value(), 0, paths.scratch);
      self_check->rejections.push_back(
          {"estimate log missing its first record",
           recovered_estimates_state(paths.scratch) != estimate_db->export_state()});
      // The whole log plus one later put of a task's estimate, 1 % off.
      const std::string& id = in.jobs.front().desc.tasks.front().spec.id;
      const auto estimate = estimate_db->get(id);
      if (estimate.is_ok()) {
        write_without_frame(est_log.value(), static_cast<std::size_t>(-1), paths.scratch);
        {
          gae::FileWalStorage storage(paths.scratch);
          gae::Wal wal(&storage);
          gae::estimators::EstimateDatabase perturbed(&wal);
          if (perturbed.recover().is_ok()) perturbed.put(id, estimate.value() * 1.01);
        }
        self_check->rejections.push_back(
            {"estimate log with one estimate perturbed by 1 %",
             recovered_estimates_state(paths.scratch) != estimate_db->export_state()});
      }
    }
    std::vector<std::string> short_journal = journal.lines();
    if (!short_journal.empty()) short_journal.pop_back();
    self_check->rejections.push_back(
        {"journal missing its last line", recovered_journal(paths.journal) != short_journal});
    const auto& task = in.jobs.front().desc.tasks.front().spec;
    const double s = first_submit[task.id];
    self_check->rejections.push_back(
        {"completed task short of its work by 1 %",
         !task_outcome_ok(task.work_seconds, task.work_seconds * 0.99, s, completion[task.id],
                          in.max_speed)});
    self_check->rejections.push_back(
        {"task finishing faster than the fastest node allows",
         !task_outcome_ok(task.work_seconds, task.work_seconds, s,
                          s + 0.9 * task.work_seconds / in.max_speed, in.max_speed)});
  }

  for (auto& [exec, token] : subscriptions) exec->unsubscribe(token);
}

}  // namespace

Report run_grid_ingest(const Options& options) {
  Report report;
  Checks checks;
  const bool tiny = options.self_check;
  const GridInputs inputs = make_inputs(options.seed, tiny);

  WorkDir dir(options.workdir, "grid_ingest");
  Paths paths;
  paths.jobmon = dir.file("jobmon.wal");
  paths.estimates = dir.file("estimates.wal");
  paths.journal = dir.file("steering-journal.wal");
  paths.scratch = dir.file("scratch.wal");
  for (const auto& site : inputs.sites) paths.history.push_back(dir.file("history-" + site.name + ".wal"));

  // The standby Clarens host and the shipping client persist across rounds.
  Standby standby(options.trace);
  standby.set.add(&standby.replica);
  gae::WallClock wall;
  gae::telemetry::MetricsRegistry host_metrics;
  gae::clarens::HostOptions hopts;
  hopts.require_auth = true;
  if (options.trace) hopts.metrics = &host_metrics;
  gae::clarens::ClarensHost host("jobmon-standby", wall, hopts);
  gae::ha::register_ha_methods(host, standby.set);
  auto port = host.serve(0);
  if (!port.is_ok()) {
    std::fprintf(stderr, "serve failed: %s\n", port.status().to_string().c_str());
    report.correct = false;
    return report;
  }
  auto made = make_session_clients(host, 1, {"ha."}, options.trace);
  if (!made.is_ok()) {
    std::fprintf(stderr, "session set-up failed: %s\n", made.status().to_string().c_str());
    report.correct = false;
    return report;
  }
  auto clients = std::move(made).value();
  gae::ha::RpcShipperTransport rpc_transport(clients[0]->client.get());
  ShipStats warm_ship;
  RunTotals totals;
  TimedShipper transport(&rpc_transport, &totals.ship);

  // Warm-up: one round of the small grid (the connection, the files and
  // every code path), verified like the rest but not timed. A full-size
  // round would double set-up time and carry the disk's fsync noise into it.
  {
    RunTotals warm;
    TimedShipper warm_transport(&rpc_transport, &warm_ship);
    const bool was_tracing = SpanLog::enabled();
    SpanLog::enable(false);
    run_round(make_inputs(options.seed, true), paths, standby, warm_transport, false, false,
              warm, checks, nullptr);
    SpanLog::enable(was_tracing);
  }
  const HandlerTotals handler_before = handler_totals(host_metrics, "ha.");
  const ClientCounters counters_before = client_counters(clients);
  const double setup_s = seconds_since_process_start();

  const std::int64_t start = now_ns();
  const double budget_ns = options.seconds * 1e9;
  do {
    const bool last = static_cast<double>(now_ns() - start) >= budget_ns * 0.9;
    run_round(inputs, paths, standby, transport, options.trace, options.trace && last, totals,
              checks, nullptr);
    if (options.trace && last) break;
  } while (static_cast<double>(now_ns() - start) < budget_ns);
  if (options.trace && totals.frame_example.empty()) {
    // The loop ended before a probe round ran; probe one more round.
    run_round(inputs, paths, standby, transport, true, true, totals, checks, nullptr);
  }
  if (options.self_check) {
    run_round(inputs, paths, standby, transport, false, false, totals, checks, &report);
  }

  report.attempted = totals.acked + totals.failed;
  report.failed = totals.failed;
  const double rounds = static_cast<double>(std::max<std::uint64_t>(totals.rounds, 1));
  // Medians over rounds, so one round slowed by another tenant of the
  // machine does not move the run's figures.
  const WindowSummary summary = summarize_rounds(totals.round_throughput, totals.round_latencies_us);
  report.end_to_end = {
      {"throughput_ops_s", summary.throughput, "1/s"},
      {"latency_p50_us", summary.p50_us, "us"},
      {"latency_p99_us", summary.p99_us, "us"},
      {"turnaround_sim_s", totals.turnaround_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::fprintf(stderr,
               "grid_ingest: %llu rounds, %llu tasks and %.0f acked updates per round, "
               "%.1f steering moves per round\n",
               static_cast<unsigned long long>(totals.rounds),
               static_cast<unsigned long long>(inputs.tasks),
               static_cast<double>(totals.acked) / rounds,
               static_cast<double>(totals.moves) / rounds);

  if (options.trace) {
    HandlerTotals handler = handler_totals(host_metrics, "ha.");
    handler.sum_us -= handler_before.sum_us;
    handler.count -= handler_before.count;
    const ClientCounters counters = counters_delta(client_counters(clients), counters_before);
    const std::uint64_t calls = totals.ship.batches + totals.ship.snapshots;
    const std::string token = clients[0]->client->session_token();

    // Codec: an ha.append call carrying a real jobmon frame, and its ack.
    const Array params = {Value("jobmon"), Value(std::int64_t{1}), Value(std::int64_t{0}),
                          Value(std::int64_t{1}), Value(gae::ha::hex_encode(totals.frame_example)),
                          Value(static_cast<std::int64_t>(gae::crc32(totals.frame_example))),
                          Value("127.0.0.1"), Value(std::int64_t{0})};
    const Value ack = Value(gae::rpc::Struct{{"epoch", Value(std::int64_t{1})},
                                             {"next_seq", Value(std::int64_t{1})}});
    std::int64_t t0 = now_ns();
    for (int i = 0; i < 200; ++i) {
      ScopedSpan span("rpc.codec");
      const std::string call = gae::rpc::xmlrpc::encode_call("ha.append", params);
      auto decoded_call = gae::rpc::xmlrpc::decode_call(call);
      const std::string resp = gae::rpc::xmlrpc::encode_response(ack);
      auto decoded_resp = gae::rpc::xmlrpc::decode_response(resp);
      checks.expect(decoded_call.is_ok() && decoded_resp.is_ok(), "codec round trip failed");
    }
    const double codec_us = static_cast<double>(now_ns() - t0) / 200 / 1e3;

    // Dispatch: ha.status through the host minus the replica's own status().
    t0 = now_ns();
    for (int i = 0; i < 200; ++i) {
      ScopedSpan span("clarens.call");
      (void)host.call("ha.status", {Value("jobmon")}, token);
    }
    const double host_us = static_cast<double>(now_ns() - t0) / 200 / 1e3;
    t0 = now_ns();
    for (int i = 0; i < 200; ++i) (void)standby.replica.status();
    const double direct_us = static_cast<double>(now_ns() - t0) / 200 / 1e3;

    const std::vector<Span> spans = SpanLog::collect();
    // The ship is one ha.append RPC: the client-side call time is the ship.
    const double ship_us =
        totals.ship.batches ? static_cast<double>(totals.ship.ns) / totals.ship.batches / 1e3 : 0.0;
    add_rpc_layer_metrics(report, ship_us, handler, counters, calls, codec_us);
    report.per_layer.push_back({"clarens.dispatch_us", host_us - direct_us, "us"});
    report.per_layer.push_back({"jobmon.info_us", totals.info_us, "us"});
    report.per_layer.push_back({"jobmon.list_us", totals.list_us, "us"});
    report.per_layer.push_back({"jobmon.updates", static_cast<double>(totals.acked) / rounds, "count"});
    report.per_layer.push_back({"estimators.runtime_us", totals.runtime_us, "us"});
    report.per_layer.push_back({"estimators.matches_per_estimate", totals.matches, "count"});
    report.per_layer.push_back(
        {"estimators.record_us",
         totals.records ? totals.record_us_total / static_cast<double>(totals.records) : 0.0, "us"});
    const double appends = static_cast<double>(std::max<std::uint64_t>(totals.local.appends.load(), 1));
    report.per_layer.push_back(
        {"wal.append_us", static_cast<double>(totals.local.append_ns.load()) / appends / 1e3, "us"});
    report.per_layer.push_back(
        {"wal.bytes_per_update", static_cast<double>(totals.local.bytes.load()) / appends, "B"});
    const double syncs = static_cast<double>(std::max<std::uint64_t>(standby.stats.syncs.load(), 1));
    report.per_layer.push_back(
        {"wal.standby_sync_us", static_cast<double>(standby.stats.sync_ns.load()) / syncs / 1e3, "us"});
    report.per_layer.push_back({"ha.ship_us", ship_us, "us"});
    report.per_layer.push_back(
        {"ha.records_per_batch",
         totals.ship.batches ? static_cast<double>(totals.ship.records) / totals.ship.batches : 0.0,
         "count"});
    report.per_layer.push_back({"sim.self_s", (totals.run_s - totals.store_s) / rounds, "s"});
    report.per_layer.push_back({"sim.events", static_cast<double>(totals.events) / rounds, "count"});
    report.per_layer.push_back(
        {"sphinx.submit_us", totals.submits ? totals.submit_us_total / static_cast<double>(totals.submits) : 0.0,
         "us"});
    report.per_layer.push_back({"steering.moves", static_cast<double>(totals.moves) / rounds, "count"});
    report.per_layer.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  }

  host.stop();
  report.correct = checks.ok();
  for (const auto& m : checks.messages()) std::fprintf(stderr, "check failed: %s\n", m.c_str());
  return report;
}

}  // namespace perfbench
