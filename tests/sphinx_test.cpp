#include "sphinx/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "estimators/recorder.h"
#include "sim/load.h"

namespace gae::sphinx {
namespace {

exec::TaskSpec spec(const std::string& id, double work, int priority = 0) {
  exec::TaskSpec s;
  s.id = id;
  s.work_seconds = work;
  s.priority = priority;
  s.attributes = {{"executable", "primes"}, {"login", "alice"}, {"queue", "q"},
                  {"nodes", "1"}};
  return s;
}

JobDescription one_task_job(const std::string& job_id, const std::string& task_id,
                            double work) {
  JobDescription job;
  job.id = job_id;
  job.owner = "alice";
  job.tasks.push_back({spec(task_id, work), {}});
  return job;
}

class SphinxTest : public ::testing::Test {
 protected:
  SphinxTest() {
    grid_.add_site("site-a").add_node("a0", 1.0, nullptr);
    grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
    grid_.set_default_link({100e6, 0});
    exec_a_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    exec_b_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-b");
    db_ = std::make_shared<estimators::EstimateDatabase>();

    // Seed both sites' estimators with identical history: 100 s for primes.
    for (auto* est : {&est_a_, &est_b_}) {
      *est = std::make_shared<estimators::RuntimeEstimator>(
          std::make_shared<estimators::TaskHistoryStore>());
      for (int i = 0; i < 5; ++i) {
        (*est)->record(spec("h", 1).attributes, 100.0, 0);
      }
    }

    scheduler_ = std::make_unique<SphinxScheduler>(sim_, grid_, &monitoring_, db_);
    scheduler_->add_site("site-a", {exec_a_.get(), est_a_});
    scheduler_->add_site("site-b", {exec_b_.get(), est_b_});
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  monalisa::Repository monitoring_;
  std::unique_ptr<exec::ExecutionService> exec_a_, exec_b_;
  std::shared_ptr<estimators::RuntimeEstimator> est_a_, est_b_;
  std::shared_ptr<estimators::EstimateDatabase> db_;
  std::unique_ptr<SphinxScheduler> scheduler_;
};

TEST_F(SphinxTest, MakePlanValidation) {
  JobDescription empty;
  empty.id = "j";
  EXPECT_EQ(scheduler_->make_plan(empty).status().code(), StatusCode::kInvalidArgument);

  JobDescription no_id;
  no_id.tasks.push_back({spec("t", 1), {}});
  EXPECT_EQ(scheduler_->make_plan(no_id).status().code(), StatusCode::kInvalidArgument);

  JobDescription dup;
  dup.id = "j";
  dup.tasks.push_back({spec("t", 1), {}});
  dup.tasks.push_back({spec("t", 1), {}});
  EXPECT_EQ(scheduler_->make_plan(dup).status().code(), StatusCode::kInvalidArgument);

  JobDescription bad_dep;
  bad_dep.id = "j";
  bad_dep.tasks.push_back({spec("t", 1), {"ghost"}});
  EXPECT_EQ(scheduler_->make_plan(bad_dep).status().code(), StatusCode::kInvalidArgument);

  JobDescription cycle;
  cycle.id = "j";
  cycle.tasks.push_back({spec("x", 1), {"y"}});
  cycle.tasks.push_back({spec("y", 1), {"x"}});
  EXPECT_EQ(scheduler_->make_plan(cycle).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SphinxTest, PlanAssignsEveryTaskASite) {
  JobDescription job;
  job.id = "j";
  job.owner = "alice";
  job.tasks.push_back({spec("t1", 10), {}});
  job.tasks.push_back({spec("t2", 10), {"t1"}});
  auto plan = scheduler_->make_plan(job);
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  ASSERT_EQ(plan.value().placements.size(), 2u);
  for (const auto& p : plan.value().placements) {
    EXPECT_TRUE(p.site == "site-a" || p.site == "site-b");
    EXPECT_NEAR(p.score.est_runtime_seconds, 100.0, 1e-6);
  }
}

TEST_F(SphinxTest, LoadedSiteAvoided) {
  // MonALISA reports heavy load at site-a.
  monitoring_.publish("site-a", "cpu_load", sim_.now(), 0.9);
  monitoring_.publish("site-b", "cpu_load", sim_.now(), 0.0);
  auto ranked = scheduler_->rank_sites(spec("t", 10));
  ASSERT_TRUE(ranked.is_ok());
  EXPECT_EQ(ranked.value().front().site, "site-b");
  // Effective runtime at the loaded site ~ 100 / 0.1 = 1000 s.
  EXPECT_NEAR(ranked.value().back().total_seconds, 1000.0, 1.0);
}

TEST_F(SphinxTest, BusySiteQueuePenalised) {
  ASSERT_TRUE(exec_a_->submit(spec("blocker", 400)).is_ok());
  db_->put("blocker", 400.0);
  auto ranked = scheduler_->rank_sites(spec("t", 10));
  ASSERT_TRUE(ranked.is_ok());
  EXPECT_EQ(ranked.value().front().site, "site-b");
  EXPECT_NEAR(ranked.value().back().est_queue_seconds, 400.0, 1e-6);
}

TEST_F(SphinxTest, InputLocalityWins) {
  grid_.site("site-b").store_file("big.root", 50'000'000'000);  // 500 s to move
  auto s = spec("t", 10);
  s.input_files = {"big.root"};
  auto ranked = scheduler_->rank_sites(s);
  ASSERT_TRUE(ranked.is_ok());
  EXPECT_EQ(ranked.value().front().site, "site-b");
  EXPECT_DOUBLE_EQ(ranked.value().front().est_transfer_seconds, 0.0);
  EXPECT_NEAR(ranked.value().back().est_transfer_seconds, 500.0, 1e-6);
}

TEST_F(SphinxTest, MissingInputDisqualifiesViaHugeCost) {
  auto s = spec("t", 10);
  s.input_files = {"nowhere.root"};
  auto ranked = scheduler_->rank_sites(s);
  ASSERT_TRUE(ranked.is_ok());
  EXPECT_GE(ranked.value().front().est_transfer_seconds, 1e9);
}

TEST_F(SphinxTest, DownSiteExcluded) {
  exec_a_->fail_service();
  auto ranked = scheduler_->rank_sites(spec("t", 10));
  ASSERT_TRUE(ranked.is_ok());
  ASSERT_EQ(ranked.value().size(), 1u);
  EXPECT_EQ(ranked.value()[0].site, "site-b");
  EXPECT_EQ(scheduler_->score_site(spec("t", 10), "site-a").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(scheduler_->score_site(spec("t", 10), "nope").status().code(),
            StatusCode::kNotFound);

  exec_b_->fail_service();
  EXPECT_EQ(scheduler_->rank_sites(spec("t", 10)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SphinxTest, SubmitRunsTaskAndRecordsEstimate) {
  auto plan = scheduler_->submit(one_task_job("j1", "t1", 50));
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  EXPECT_TRUE(db_->has("t1"));
  EXPECT_NEAR(db_->get("t1").value(), 100.0, 1e-6);
  ASSERT_TRUE(scheduler_->task_site("t1").is_ok());

  sim_.run();
  auto status = scheduler_->job_status("j1");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().state, JobState::kCompleted);
  EXPECT_EQ(scheduler_->submit(one_task_job("j1", "t9", 1)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SphinxTest, DagDependenciesRespected) {
  JobDescription job;
  job.id = "dag";
  job.owner = "alice";
  job.tasks.push_back({spec("parent", 10), {}});
  job.tasks.push_back({spec("child1", 10), {"parent"}});
  job.tasks.push_back({spec("child2", 10), {"parent"}});
  job.tasks.push_back({spec("grandchild", 10), {"child1", "child2"}});
  ASSERT_TRUE(scheduler_->submit(job).is_ok());
  sim_.run();

  auto end_of = [&](const std::string& id) {
    auto site = scheduler_->task_site(id).value();
    auto* service = site == "site-a" ? exec_a_.get() : exec_b_.get();
    return service->query(id).value();
  };
  const auto parent = end_of("parent");
  const auto child1 = end_of("child1");
  const auto child2 = end_of("child2");
  const auto grandchild = end_of("grandchild");
  EXPECT_EQ(grandchild.state, exec::TaskState::kCompleted);
  EXPECT_GE(child1.submit_time, parent.completion_time);
  EXPECT_GE(child2.submit_time, parent.completion_time);
  EXPECT_GE(grandchild.submit_time, child1.completion_time);
  EXPECT_GE(grandchild.submit_time, child2.completion_time);
  EXPECT_EQ(scheduler_->job_status("dag").value().state, JobState::kCompleted);
}

TEST_F(SphinxTest, PlanSubscribersNotified) {
  int plans_seen = 0;
  const int token = scheduler_->subscribe_plans(
      [&](const JobDescription& job, const ConcreteJobPlan& plan) {
        ++plans_seen;
        EXPECT_EQ(job.id, plan.job_id);
      });
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", "t1", 10)).is_ok());
  EXPECT_EQ(plans_seen, 1);
  scheduler_->unsubscribe_plans(token);
  ASSERT_TRUE(scheduler_->submit(one_task_job("j2", "t2", 10)).is_ok());
  EXPECT_EQ(plans_seen, 1);
}

TEST_F(SphinxTest, ReallocateMovesToOtherSite) {
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", "t1", 500)).is_ok());
  const std::string original = scheduler_->task_site("t1").value();
  sim_.run_until(from_seconds(10));

  auto placement = scheduler_->reallocate("t1", {original}, 0.0);
  ASSERT_TRUE(placement.is_ok()) << placement.status();
  EXPECT_NE(placement.value().site, original);
  EXPECT_EQ(scheduler_->task_site("t1").value(), placement.value().site);
  EXPECT_EQ(scheduler_->reallocate("ghost", {}, 0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SphinxTest, PlaceAtSpecificSite) {
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", "t1", 500)).is_ok());
  const std::string original = scheduler_->task_site("t1").value();
  const std::string other = original == "site-a" ? "site-b" : "site-a";
  auto placement = scheduler_->place("t1", other, 42.0);
  ASSERT_TRUE(placement.is_ok()) << placement.status();
  EXPECT_EQ(placement.value().site, other);
  EXPECT_EQ(scheduler_->task_site("t1").value(), other);
  EXPECT_EQ(scheduler_->place("t1", "nope", 0).status().code(), StatusCode::kNotFound);
}

TEST_F(SphinxTest, JobStatusTracksFailure) {
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", "t1", 500)).is_ok());
  const std::string site = scheduler_->task_site("t1").value();
  auto* service = site == "site-a" ? exec_a_.get() : exec_b_.get();
  sim_.run_until(from_seconds(5));
  ASSERT_TRUE(service->inject_task_failure("t1", "boom").is_ok());
  EXPECT_EQ(scheduler_->job_status("j1").value().state, JobState::kFailed);
  EXPECT_EQ(scheduler_->job_status("nope").status().code(), StatusCode::kNotFound);

  // Reallocation (the Backup & Recovery path) clears the failure.
  auto placement = scheduler_->reallocate("t1", {site}, 0.0);
  ASSERT_TRUE(placement.is_ok());
  EXPECT_EQ(scheduler_->job_status("j1").value().state, JobState::kRunning);
  sim_.run();
  EXPECT_EQ(scheduler_->job_status("j1").value().state, JobState::kCompleted);
}

TEST_F(SphinxTest, CancelJobKillsTasksAndStopsDependents) {
  JobDescription job;
  job.id = "dag";
  job.owner = "alice";
  job.tasks.push_back({spec("parent", 100), {}});
  job.tasks.push_back({spec("child", 100), {"parent"}});
  ASSERT_TRUE(scheduler_->submit(job).is_ok());
  sim_.run_until(from_seconds(10));

  ASSERT_TRUE(scheduler_->cancel_job("dag").is_ok());
  EXPECT_EQ(scheduler_->cancel_job("dag").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler_->cancel_job("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler_->job_status("dag").value().state, JobState::kCancelled);

  sim_.run();
  // Parent was killed; the child must never have been submitted anywhere.
  const std::string parent_site = scheduler_->task_site("parent").value();
  auto* service = parent_site == "site-a" ? exec_a_.get() : exec_b_.get();
  EXPECT_EQ(service->query("parent").value().state, exec::TaskState::kKilled);
  EXPECT_FALSE(exec_a_->query("child").is_ok());
  EXPECT_FALSE(exec_b_->query("child").is_ok());
}

TEST_F(SphinxTest, PlanSpreadsTasksAcrossSites) {
  JobDescription job;
  job.id = "spread";
  job.owner = "alice";
  for (int i = 0; i < 4; ++i) job.tasks.push_back({spec("t" + std::to_string(i), 100), {}});
  auto plan = scheduler_->make_plan(job);
  ASSERT_TRUE(plan.is_ok());
  std::set<std::string> sites;
  for (const auto& p : plan.value().placements) sites.insert(p.site);
  // The plan accounts for its own backlog, so identical tasks spread.
  EXPECT_EQ(sites.size(), 2u);
}

TEST_F(SphinxTest, AutoRetryMovesFailedTaskAway) {
  SchedulerOptions opts;
  opts.task_retry_limit = 2;
  SphinxScheduler retrying(sim_, grid_, &monitoring_, db_, opts);
  retrying.add_site("site-a", {exec_a_.get(), est_a_});
  retrying.add_site("site-b", {exec_b_.get(), est_b_});

  ASSERT_TRUE(retrying.submit(one_task_job("j1", "t1", 100)).is_ok());
  const std::string first = retrying.task_site("t1").value();
  sim_.run_until(from_seconds(10));
  auto* svc = first == "site-a" ? exec_a_.get() : exec_b_.get();
  ASSERT_TRUE(svc->inject_task_failure("t1", "boom").is_ok());

  // Automatically resubmitted at the other site; the job recovers.
  EXPECT_NE(retrying.task_site("t1").value(), first);
  sim_.run();
  EXPECT_EQ(retrying.job_status("j1").value().state, JobState::kCompleted);
}

TEST_F(SphinxTest, RetryLimitExhausts) {
  SchedulerOptions opts;
  opts.task_retry_limit = 1;
  SphinxScheduler retrying(sim_, grid_, &monitoring_, db_, opts);
  retrying.add_site("site-a", {exec_a_.get(), est_a_});
  retrying.add_site("site-b", {exec_b_.get(), est_b_});

  ASSERT_TRUE(retrying.submit(one_task_job("j1", "t1", 100)).is_ok());
  sim_.run_until(from_seconds(5));
  auto fail_wherever = [&] {
    const std::string site = retrying.task_site("t1").value();
    auto* svc = site == "site-a" ? exec_a_.get() : exec_b_.get();
    svc->inject_task_failure("t1", "boom");
  };
  fail_wherever();                   // retry #1 fires
  sim_.run_until(from_seconds(10));
  fail_wherever();                   // no retries left
  sim_.run();
  EXPECT_EQ(retrying.job_status("j1").value().state, JobState::kFailed);
}

TEST_F(SphinxTest, FallbackRuntimeWhenNoHistory) {
  SchedulerOptions opts;
  opts.fallback_runtime_seconds = 777.0;
  SphinxScheduler fresh(sim_, grid_, &monitoring_, db_, opts);
  auto empty_est = std::make_shared<estimators::RuntimeEstimator>(
      std::make_shared<estimators::TaskHistoryStore>());
  fresh.add_site("site-a", {exec_a_.get(), empty_est});
  auto ranked = fresh.rank_sites(spec("t", 10));
  ASSERT_TRUE(ranked.is_ok());
  EXPECT_DOUBLE_EQ(ranked.value()[0].est_runtime_seconds, 777.0);
}

// The backlog as computed before the copy-free visitor: a full list_tasks()
// copy of the site's table.
double backlog_from_list(const exec::ExecutionService& exec,
                         const estimators::EstimateDatabase& db, int priority,
                         std::size_t nodes, double fallback) {
  double backlog = 0.0;
  for (const exec::TaskInfo& t : exec.list_tasks()) {
    if (exec::is_terminal(t.state) || t.state == exec::TaskState::kSuspended) continue;
    const bool occupies_node =
        t.state == exec::TaskState::kRunning || t.state == exec::TaskState::kStaging;
    if (!occupies_node && t.spec.priority < priority) continue;
    backlog += std::max(0.0, db.get(t.spec.id).value_or(fallback) - t.cpu_seconds_used);
  }
  return backlog / static_cast<double>(std::max<std::size_t>(1, nodes));
}

TEST(SphinxBacklog, PlansOnDeepBacklogMatchListTasksComputation) {
  sim::Simulation sim;
  sim::Grid grid;
  const std::vector<std::pair<std::string, std::vector<double>>> layout = {
      {"site-a", {1.0, 0.5}}, {"site-b", {1.0, 1.0, 0.75}}, {"site-c", {2.0}}};
  const std::vector<std::string> executables = {"primes", "sort", "fft"};
  std::vector<std::unique_ptr<exec::ExecutionService>> execs;
  auto db = std::make_shared<estimators::EstimateDatabase>();
  SphinxScheduler scheduler(sim, grid, nullptr, db);
  Rng rng(20050614);
  for (const auto& [name, speeds] : layout) {
    auto& site = grid.add_site(name);
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      site.add_node(name + "-n" + std::to_string(i), speeds[i], nullptr);
    }
    execs.push_back(std::make_unique<exec::ExecutionService>(sim, grid, name));
    auto est = std::make_shared<estimators::RuntimeEstimator>(
        std::make_shared<estimators::TaskHistoryStore>());
    for (const auto& executable : executables) {
      auto attributes = spec("h", 1).attributes;
      attributes["executable"] = executable;
      for (int i = 0; i < 4; ++i) est->record(attributes, rng.uniform(50.0, 900.0), 0);
    }
    scheduler.add_site(name, {execs.back().get(), est});
  }
  grid.set_default_link({100e6, 0});
  const SchedulerOptions defaults;

  double deepest_queue = 0.0;
  std::set<std::string> used_sites;
  for (int j = 0; j < 40; ++j) {
    JobDescription job;
    job.id = "job-" + std::to_string(j);
    job.owner = "alice";
    const auto tasks = rng.uniform_int(1, 4);
    for (std::int64_t t = 0; t < tasks; ++t) {
      auto task = spec(job.id + "-t" + std::to_string(t), rng.uniform(100.0, 2000.0),
                       static_cast<int>(rng.uniform_int(0, 2)));
      task.attributes["executable"] = rng.pick(executables);
      job.tasks.push_back({task, {}});
    }

    // Reference plan: make_plan's selection loop over scores whose queue
    // term comes from list_tasks().
    std::vector<SitePlacement> expected;
    std::map<std::string, double> planned_backlog;
    for (const auto& t : job.tasks) {
      std::vector<SiteScore> ranked;
      for (std::size_t i = 0; i < layout.size(); ++i) {
        const std::string& name = layout[i].first;
        SiteScore score;
        score.site = name;
        score.est_runtime_seconds =
            scheduler.score_site(t.spec, name).value().est_runtime_seconds;
        score.est_queue_seconds =
            backlog_from_list(*execs[i], *db, t.spec.priority, layout[i].second.size(),
                              defaults.fallback_runtime_seconds);
        score.est_transfer_seconds = 0.0;
        score.total_seconds =
            score.est_runtime_seconds + score.est_queue_seconds + score.est_transfer_seconds;
        ranked.push_back(score);
      }
      std::sort(ranked.begin(), ranked.end(), [](const SiteScore& a, const SiteScore& b) {
        if (a.total_seconds != b.total_seconds) return a.total_seconds < b.total_seconds;
        return a.site < b.site;
      });
      const SiteScore* best = nullptr;
      double best_total = 0;
      for (const SiteScore& score : ranked) {
        const double total = score.total_seconds + planned_backlog[score.site];
        if (!best || total < best_total) {
          best = &score;
          best_total = total;
        }
      }
      SitePlacement placement{t.spec.id, best->site, *best};
      placement.score.est_queue_seconds += planned_backlog[best->site];
      placement.score.total_seconds = best_total;
      const auto nodes = grid.site(best->site).node_count();
      planned_backlog[best->site] += best->est_runtime_seconds / static_cast<double>(nodes);
      expected.push_back(placement);
    }

    auto plan = scheduler.submit(job);
    ASSERT_TRUE(plan.is_ok()) << plan.status();
    const auto& placements = plan.value().placements;
    ASSERT_EQ(placements.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(expected[i].task_id);
      EXPECT_EQ(placements[i].task_id, expected[i].task_id);
      EXPECT_EQ(placements[i].site, expected[i].site);
      EXPECT_EQ(placements[i].score.site, expected[i].score.site);
      EXPECT_EQ(placements[i].score.est_runtime_seconds, expected[i].score.est_runtime_seconds);
      EXPECT_EQ(placements[i].score.est_queue_seconds, expected[i].score.est_queue_seconds);
      EXPECT_EQ(placements[i].score.est_transfer_seconds,
                expected[i].score.est_transfer_seconds);
      EXPECT_EQ(placements[i].score.total_seconds, expected[i].score.total_seconds);
      deepest_queue = std::max(deepest_queue, expected[i].score.est_queue_seconds);
      used_sites.insert(expected[i].site);
    }
    sim.run_until(sim.now() + from_seconds(rng.uniform(0.0, 60.0)));
  }
  // The comparison ran against a backlog hours deep, at every site.
  EXPECT_GT(deepest_queue, 3600.0);
  EXPECT_EQ(used_sites.size(), layout.size());
}

}  // namespace
}  // namespace gae::sphinx
