// Macro-integration: a simulated operations day on a multi-site grid.
//
// Diurnal background load, random node failures, DAG jobs arriving all day,
// demand-driven replication, and the steering service running both its
// Optimizer and Backup & Recovery — everything on at once. Asserts global
// invariants (all work reaches a terminal state, accounting holds, steering
// acts when it should) rather than exact timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "estimators/recorder.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "replica/replication.h"
#include "sim/load.h"
#include "sphinx/scheduler.h"
#include "steering/service.h"
#include "workload/task_generator.h"

namespace gae {
namespace {

constexpr double kDay = 86400.0;

TEST(GridDay, FullEnsembleSurvivesADay) {
  sim::Simulation sim;
  sim::Grid grid;
  Rng rng(20260704);

  // Three sites: tier-0 with the master dataset, a big day/night-loaded
  // centre, and a small flaky site.
  grid.add_site("tier0").add_node("t0-n0", 1.0, nullptr);
  grid.site("tier0").add_node("t0-n1", 1.0, nullptr);
  grid.site("tier0").store_file("master.root", 4'000'000'000);
  auto& big = grid.add_site("bigsite");
  for (int n = 0; n < 3; ++n) {
    big.add_node("big-n" + std::to_string(n), 1.2,
                 sim::make_diurnal_load(0.1, 0.85, from_seconds(kDay),
                                        from_seconds(1800), from_seconds(2 * kDay),
                                        0.25 * n));
  }
  grid.add_site("flaky").add_node("fl-n0", 0.9, nullptr);
  grid.set_default_link({60e6, from_millis(40)});

  // Execution services: the flaky site suffers random node failures but
  // checkpointable tasks restart from periodic checkpoints.
  std::map<std::string, std::unique_ptr<exec::ExecutionService>> execs;
  for (const auto& site : grid.site_names()) {
    exec::ExecOptions opts;
    if (site == "flaky") {
      opts.mean_time_between_failures = 4000;
      opts.failure_seed = 11;
      opts.checkpoint_interval_seconds = 300;
    }
    execs[site] = std::make_unique<exec::ExecutionService>(sim, grid, site, opts);
  }

  // Estimators learn online from completions at each site.
  monalisa::Repository monitoring;
  auto estimate_db = std::make_shared<estimators::EstimateDatabase>();
  std::map<std::string, std::shared_ptr<estimators::RuntimeEstimator>> ests;
  std::vector<std::unique_ptr<estimators::SiteRuntimeRecorder>> recorders;
  sphinx::SphinxScheduler scheduler(sim, grid, &monitoring, estimate_db);
  jobmon::JobMonitoringService jms(sim.clock(), &monitoring, estimate_db);
  for (const auto& site : grid.site_names()) {
    ests[site] = std::make_shared<estimators::RuntimeEstimator>(
        std::make_shared<estimators::TaskHistoryStore>());
    recorders.push_back(
        std::make_unique<estimators::SiteRuntimeRecorder>(*execs[site], ests[site]));
    scheduler.add_site(site, {execs[site].get(), ests[site]});
    jms.attach_site(site, execs[site].get());
  }

  // MonALISA farm agents publish load; replication watches staging traffic.
  std::vector<std::unique_ptr<monalisa::PeriodicSampler>> samplers;
  for (const auto& site : grid.site_names()) {
    samplers.push_back(std::make_unique<monalisa::PeriodicSampler>(
        sim, from_seconds(300), [&, site] {
          const sim::Site& s = grid.site(site);
          double load = 0;
          for (std::size_t n = 0; n < s.node_count(); ++n) {
            load += s.node(n).background_load(sim.now());
          }
          monitoring.publish(site, "cpu_load", sim.now(),
                             load / static_cast<double>(s.node_count()));
        }));
  }
  replica::ReplicaCatalog catalog(grid);
  catalog.scan(0);
  replica::ReplicationManager replication(sim, grid, catalog, {2, 2});
  for (const auto& site : grid.site_names()) replication.watch(*execs[site]);

  steering::SteeringService::Deps deps;
  deps.sim = &sim;
  deps.scheduler = &scheduler;
  deps.jobmon = &jms;
  for (const auto& site : grid.site_names()) deps.services[site] = execs[site].get();
  steering::SteeringOptions sopts;
  sopts.optimizer_interval_seconds = 120;
  sopts.min_observation_seconds = 300;
  sopts.slow_rate_threshold = 0.35;
  steering::SteeringService steering(deps, sopts);

  // The day's workload: a DAG job every ~40 virtual minutes, tasks capped to
  // an hour of CPU, half of them reading the master dataset.
  auto population = workload::ApplicationPopulation::make(rng, {});
  std::vector<std::string> job_ids;
  int arrivals = 0;
  for (double t = 0; t < kDay * 0.8; t += 2400) {
    const std::string job_id = "day-job-" + std::to_string(arrivals++);
    job_ids.push_back(job_id);
    sim.schedule_at(from_seconds(t), [&, job_id] {
      workload::DagGenOptions dopts;
      dopts.levels = 2 + static_cast<int>(rng.uniform_int(0, 1));
      dopts.max_width = 3;
      dopts.task_options.owner_prefix = "shift-crew";
      dopts.task_options.input_file_rate = 0.0;
      auto job = workload::make_dag_job(population, rng, dopts, job_id);
      for (auto& task : job.tasks) {
        task.spec.work_seconds = std::min(task.spec.work_seconds, 3600.0);
        task.spec.checkpointable = true;
        if (rng.bernoulli(0.5)) task.spec.input_files = {"master.root"};
      }
      ASSERT_TRUE(scheduler.submit(job).is_ok());
    });
  }

  sim.run_until(from_seconds(2 * kDay));
  // Drain stragglers until every job has completed or been cancelled (a
  // failed job may still be recovered by steering). The samplers re-arm
  // forever, so the event queue never empties by itself; a later fixed
  // horizon bounds the drain.
  const auto all_done = [&] {
    for (const auto& job_id : job_ids) {
      auto status = scheduler.job_status(job_id);
      if (status.is_ok() && (status.value().state == sphinx::JobState::kRunning ||
                             status.value().state == sphinx::JobState::kFailed)) {
        return false;
      }
    }
    return true;
  };
  const SimTime horizon = from_seconds(4 * kDay);
  while (!all_done() && sim.now() < horizon) {
    sim.run_until(std::min(horizon, sim.now() + from_seconds(600)));
  }

  // --- Invariants.
  std::size_t total_tasks = 0, completed = 0;
  for (const auto& job_id : job_ids) {
    auto status = scheduler.job_status(job_id);
    ASSERT_TRUE(status.is_ok()) << job_id;
    total_tasks += status.value().tasks_total;
    completed += status.value().tasks_completed;
    EXPECT_EQ(status.value().state, sphinx::JobState::kCompleted) << job_id;
  }
  EXPECT_EQ(completed, total_tasks);
  EXPECT_GT(total_tasks, 50u);  // the day actually contained work

  // Monitoring saw the full story.
  EXPECT_GT(jms.last_event_seq(), 4 * total_tasks - 1);  // >= 4 transitions/task
  EXPECT_GT(monitoring.event_count(), 0u);

  // The hot dataset was replicated off tier0 at least once.
  EXPECT_GE(replication.stats().replicas_created, 1u);

  // Every completed task's accounting is exact.
  for (const auto& [site, svc] : execs) {
    for (const auto& info : svc->list_tasks()) {
      if (info.state == exec::TaskState::kCompleted) {
        EXPECT_NEAR(info.cpu_seconds_used, info.spec.work_seconds, 1e-6);
      }
    }
  }
}

TEST(DagGenerator, ProducesValidSchedulableDags) {
  Rng rng(5);
  auto population = workload::ApplicationPopulation::make(rng, {});

  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("s").add_node("n0", 1.5, nullptr);
  grid.site("s").add_node("n1", 1.5, nullptr);
  exec::ExecutionService exec(sim, grid, "s");
  auto est = std::make_shared<estimators::RuntimeEstimator>(
      std::make_shared<estimators::TaskHistoryStore>());
  sphinx::SphinxScheduler scheduler(sim, grid, nullptr,
                                    std::make_shared<estimators::EstimateDatabase>());
  scheduler.add_site("s", {&exec, est});

  for (int i = 0; i < 10; ++i) {
    workload::DagGenOptions dopts;
    dopts.levels = 1 + static_cast<int>(rng.uniform_int(0, 3));
    dopts.max_width = 4;
    dopts.task_options.input_file_rate = 0.0;
    auto job = workload::make_dag_job(population, rng, dopts,
                                      "dag-" + std::to_string(i));
    for (auto& t : job.tasks) t.spec.work_seconds = std::min(t.spec.work_seconds, 100.0);
    ASSERT_FALSE(job.tasks.empty());
    // make_plan validates acyclicity and dependency references.
    auto plan = scheduler.make_plan(job);
    ASSERT_TRUE(plan.is_ok()) << plan.status();
    ASSERT_TRUE(scheduler.submit(job).is_ok());
  }
  sim.run(10'000'000);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scheduler.job_status("dag-" + std::to_string(i)).value().state,
              sphinx::JobState::kCompleted);
  }
}

TEST(DagGenerator, RootLevelHasNoDependencies) {
  Rng rng(6);
  auto population = workload::ApplicationPopulation::make(rng, {});
  workload::DagGenOptions dopts;
  dopts.levels = 4;
  auto job = workload::make_dag_job(population, rng, dopts, "j");
  bool saw_root = false, saw_dependent = false;
  for (const auto& t : job.tasks) {
    if (t.depends_on.empty()) {
      saw_root = true;
    } else {
      saw_dependent = true;
      EXPECT_EQ(t.spec.job_id, "j");
    }
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_dependent);
}

}  // namespace
}  // namespace gae
