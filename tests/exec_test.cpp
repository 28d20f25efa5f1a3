#include "exec/execution_service.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/load.h"

namespace gae::exec {
namespace {

TaskSpec make_spec(const std::string& id, double work, int priority = 0) {
  TaskSpec spec;
  spec.id = id;
  spec.job_id = "job-1";
  spec.owner = "alice";
  spec.executable = "primes";
  spec.work_seconds = work;
  spec.priority = priority;
  return spec;
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    grid_.add_site("site-a").add_node("a0", 1.0, nullptr);
    grid_.set_default_link({100e6, 0});
  }

  sim::Simulation sim_;
  sim::Grid grid_;
};

TEST_F(ExecTest, RunsToCompletionOnFreeNode) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run();
  auto info = exec.query("t1");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().state, TaskState::kCompleted);
  EXPECT_DOUBLE_EQ(info.value().progress, 1.0);
  EXPECT_DOUBLE_EQ(info.value().cpu_seconds_used, 100.0);
  // On a free speed-1 node, wall time == work.
  EXPECT_EQ(info.value().completion_time - info.value().start_time, from_seconds(100.0));
}

TEST_F(ExecTest, SubmitValidation) {
  ExecutionService exec(sim_, grid_, "site-a");
  EXPECT_EQ(exec.submit(make_spec("", 10)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(exec.submit(make_spec("t", 0)).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(exec.submit(make_spec("t", 10)).is_ok());
  EXPECT_EQ(exec.submit(make_spec("t", 10)).code(), StatusCode::kAlreadyExists);
}

TEST_F(ExecTest, ResubmitAfterTerminalAllowed) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t", 10)).is_ok());
  ASSERT_TRUE(exec.kill("t").is_ok());
  EXPECT_TRUE(exec.submit(make_spec("t", 10)).is_ok());
}

TEST_F(ExecTest, ConstantLoadSlowsProgress) {
  sim::Grid grid;
  grid.add_site("loaded").add_node("n0", 1.0, std::make_shared<sim::ConstantLoad>(0.5));
  ExecutionService exec(sim_, grid, "loaded");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kCompleted);
  // 100 CPU-seconds at 50% effective rate takes 200 wall seconds.
  EXPECT_EQ(info.completion_time - info.start_time, from_seconds(200.0));
}

TEST_F(ExecTest, StepLoadIntegratesExactly) {
  sim::Grid grid;
  auto profile = std::make_shared<sim::StepLoad>(
      0.0, std::vector<sim::StepLoad::Step>{{from_seconds(50), 0.5}});
  grid.add_site("s").add_node("n0", 1.0, profile);
  ExecutionService exec(sim_, grid, "s");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run();
  // 50 s at rate 1.0 (50 done) + 50 remaining at rate 0.5 (100 s) = 150 s.
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.completion_time, from_seconds(150.0));
}

TEST_F(ExecTest, MidRunQueryShowsPartialCpu) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run_until(from_seconds(40));
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kRunning);
  EXPECT_NEAR(info.cpu_seconds_used, 40.0, 1e-6);
  EXPECT_NEAR(info.progress, 0.4, 1e-6);
}

TEST_F(ExecTest, QueueTimeExcludedFromCpuAccounting) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("first", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("second", 50.0)).is_ok());
  sim_.run_until(from_seconds(120));  // second has been running 20 s
  auto info = exec.query("second").value();
  EXPECT_EQ(info.state, TaskState::kRunning);
  // Condor-style wall-clock: 20 accrued, not 120.
  EXPECT_NEAR(info.cpu_seconds_used, 20.0, 1e-6);
  EXPECT_EQ(info.start_time, from_seconds(100));
  EXPECT_EQ(info.submit_time, 0);
}

TEST_F(ExecTest, PriorityOrdersQueue) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("running", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("low", 10.0, 0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("high", 10.0, 5)).is_ok());
  auto queued = exec.queued_tasks();
  ASSERT_EQ(queued.size(), 2u);
  EXPECT_EQ(queued[0].spec.id, "high");
  EXPECT_EQ(queued[0].queue_position, 0);
  EXPECT_EQ(queued[1].spec.id, "low");

  sim_.run();
  // high must have started (and finished) before low.
  EXPECT_LT(exec.query("high").value().start_time, exec.query("low").value().start_time);
}

TEST_F(ExecTest, FifoWithinPriority) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("running", 50.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("q1", 10.0, 1)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("q2", 10.0, 1)).is_ok());
  auto queued = exec.queued_tasks();
  ASSERT_EQ(queued.size(), 2u);
  EXPECT_EQ(queued[0].spec.id, "q1");
  EXPECT_EQ(queued[1].spec.id, "q2");
}

TEST_F(ExecTest, SetPriorityRequeues) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("running", 50.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("a", 10.0, 1)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("b", 10.0, 1)).is_ok());
  ASSERT_TRUE(exec.set_priority("b", 9).is_ok());
  EXPECT_EQ(exec.queued_tasks()[0].spec.id, "b");
  EXPECT_EQ(exec.query("b").value().spec.priority, 9);
}

TEST_F(ExecTest, SuspendResumePreservesCpu) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run_until(from_seconds(30));
  ASSERT_TRUE(exec.suspend("t1").is_ok());
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kSuspended);
  EXPECT_NEAR(info.cpu_seconds_used, 30.0, 1e-6);
  EXPECT_EQ(exec.free_nodes(), 1u);  // node released

  sim_.run_until(from_seconds(100));  // suspension accrues nothing
  EXPECT_NEAR(exec.query("t1").value().cpu_seconds_used, 30.0, 1e-6);

  ASSERT_TRUE(exec.resume("t1").is_ok());
  sim_.run();
  info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kCompleted);
  // Resumed at t=100 with 70 s remaining -> completes at 170.
  EXPECT_EQ(info.completion_time, from_seconds(170.0));
}

TEST_F(ExecTest, SuspendQueuedTaskLeavesQueue) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("running", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("waiting", 10.0)).is_ok());
  ASSERT_TRUE(exec.suspend("waiting").is_ok());
  EXPECT_TRUE(exec.queued_tasks().empty());
  ASSERT_TRUE(exec.resume("waiting").is_ok());
  EXPECT_EQ(exec.queued_tasks().size(), 1u);
}

TEST_F(ExecTest, ResumeRequiresSuspended) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 10.0)).is_ok());
  EXPECT_EQ(exec.resume("t1").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(exec.resume("nope").code(), StatusCode::kNotFound);
}

TEST_F(ExecTest, KillReleasesNodeAndIsTerminal) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t2", 10.0)).is_ok());
  sim_.run_until(from_seconds(10));
  ASSERT_TRUE(exec.kill("t1", "user said so").is_ok());
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kKilled);
  EXPECT_EQ(info.detail, "user said so");
  EXPECT_EQ(exec.kill("t1").code(), StatusCode::kFailedPrecondition);

  sim_.run();
  // t2 started right after the kill: 10 + 10 = 20.
  EXPECT_EQ(exec.query("t2").value().completion_time, from_seconds(20.0));
}

TEST_F(ExecTest, CheckpointReflectsProgress) {
  auto spec = make_spec("t1", 100.0);
  spec.checkpointable = true;
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run_until(from_seconds(25));
  auto cp = exec.checkpoint("t1");
  ASSERT_TRUE(cp.is_ok());
  EXPECT_NEAR(cp.value(), 25.0, 1e-6);
}

TEST_F(ExecTest, CheckpointRequiresCheckpointable) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  EXPECT_EQ(exec.checkpoint("t1").status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecTest, InitialCpuSecondsShortensRun) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0), /*initial=*/60.0).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().completion_time, from_seconds(40.0));
}

TEST_F(ExecTest, StagingDelaysComputeAndCountsBytes) {
  grid_.add_site("remote").store_file("data.root", 500'000'000);  // 5 s at 100 MB/s
  auto spec = make_spec("t1", 100.0);
  spec.input_files = {"data.root"};
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());

  sim_.run_until(from_seconds(2));
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kStaging);
  EXPECT_NEAR(exec.query("t1").value().cpu_seconds_used, 0.0, 1e-9);

  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kCompleted);
  EXPECT_EQ(info.completion_time, from_seconds(105.0));
  EXPECT_EQ(info.input_bytes_transferred, 500'000'000u);
}

TEST_F(ExecTest, LocalInputNeedsNoStaging) {
  grid_.site("site-a").store_file("data.root", 500'000'000);
  auto spec = make_spec("t1", 10.0);
  spec.input_files = {"data.root"};
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.completion_time, from_seconds(10.0));
  EXPECT_EQ(info.input_bytes_transferred, 0u);
}

TEST_F(ExecTest, MissingInputFailsTask) {
  auto spec = make_spec("t1", 10.0);
  spec.input_files = {"nowhere.root"};
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kFailed);
  EXPECT_NE(info.detail.find("missing input"), std::string::npos);
}

TEST_F(ExecTest, OutputRegisteredOnCompletion) {
  auto spec = make_spec("t1", 10.0);
  spec.output_bytes = 42'000'000;
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().output_bytes_written, 42'000'000u);
  EXPECT_TRUE(grid_.site("site-a").has_file("t1.out"));
  EXPECT_EQ(exec.local_output_files("t1"), std::vector<std::string>{"t1.out"});
}

TEST_F(ExecTest, PartialOutputOnFailure) {
  auto spec = make_spec("t1", 100.0);
  spec.output_bytes = 100'000;
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run_until(from_seconds(50));
  ASSERT_TRUE(exec.inject_task_failure("t1", "disk error").is_ok());
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kFailed);
  EXPECT_NEAR(static_cast<double>(info.output_bytes_written), 50'000.0, 1000.0);
  EXPECT_FALSE(exec.local_output_files("t1").empty());
}

TEST_F(ExecTest, ServiceFailureKillsEverythingAndBlocksQueries) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t2", 10.0)).is_ok());
  sim_.run_until(from_seconds(5));

  std::vector<std::string> failed;
  exec.subscribe([&](const TaskEvent& ev) {
    if (ev.new_state == TaskState::kFailed) failed.push_back(ev.task_id);
  });
  exec.fail_service("power cut");
  EXPECT_FALSE(exec.is_up());
  EXPECT_EQ(failed.size(), 2u);
  EXPECT_EQ(exec.query("t1").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec.submit(make_spec("t3", 1)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec.free_nodes(), 0u);

  exec.recover_service();
  EXPECT_TRUE(exec.is_up());
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kFailed);
  EXPECT_TRUE(exec.submit(make_spec("t3", 1)).is_ok());
}

TEST_F(ExecTest, RandomFailuresEventuallyKill) {
  ExecOptions opts;
  opts.mean_time_between_failures = 50.0;
  opts.failure_seed = 3;
  ExecutionService exec(sim_, grid_, "site-a", opts);
  // A very long task will almost surely hit a failure with MTBF 50 s.
  ASSERT_TRUE(exec.submit(make_spec("t1", 1e6)).is_ok());
  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.state, TaskState::kFailed);
  EXPECT_EQ(info.detail, "node failure");
  EXPECT_GT(info.cpu_seconds_used, 0.0);
  EXPECT_LT(info.cpu_seconds_used, 1e6);
}

TEST_F(ExecTest, EventsEmittedInLifecycleOrder) {
  ExecutionService exec(sim_, grid_, "site-a");
  std::vector<TaskState> states;
  const int token = exec.subscribe([&](const TaskEvent& ev) {
    if (ev.task_id == "t1") states.push_back(ev.new_state);
  });
  ASSERT_TRUE(exec.submit(make_spec("t1", 10.0)).is_ok());
  sim_.run();
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states[0], TaskState::kQueued);
  EXPECT_EQ(states[1], TaskState::kStaging);
  EXPECT_EQ(states[2], TaskState::kRunning);
  EXPECT_EQ(states[3], TaskState::kCompleted);

  exec.unsubscribe(token);
  states.clear();
  ASSERT_TRUE(exec.submit(make_spec("t2", 1.0)).is_ok());
  sim_.run();
  EXPECT_TRUE(states.empty());
}

TEST_F(ExecTest, FastestFreeNodePreferred) {
  sim::Grid grid;
  auto& site = grid.add_site("s");
  site.add_node("slow", 1.0, nullptr);
  site.add_node("fast", 2.0, nullptr);
  ExecutionService exec(sim_, grid, "s");
  ASSERT_TRUE(exec.submit(make_spec("t1", 100.0)).is_ok());
  sim_.run();
  auto info = exec.query("t1").value();
  EXPECT_EQ(info.node, "fast");
  EXPECT_EQ(info.completion_time, from_seconds(50.0));  // 2x speed
}

TEST_F(ExecTest, FlockingMovesQueuedTaskToFreePeer) {
  grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
  ExecutionService exec_a(sim_, grid_, "site-a");
  ExecutionService exec_b(sim_, grid_, "site-b");
  exec_a.flock_with(&exec_b);

  ASSERT_TRUE(exec_a.submit(make_spec("busy", 100.0)).is_ok());
  ASSERT_TRUE(exec_a.submit(make_spec("flocker", 10.0)).is_ok());
  sim_.run();

  // flocker moved to site-b and completed there without waiting for busy.
  EXPECT_FALSE(exec_a.query("flocker").is_ok());
  auto info = exec_b.query("flocker");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().state, TaskState::kCompleted);
  EXPECT_EQ(info.value().completion_time, from_seconds(10.0));
}

TEST_F(ExecTest, FlockingCarriesCheckpointProgress) {
  grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
  ExecutionService exec_a(sim_, grid_, "site-a");
  ExecutionService exec_b(sim_, grid_, "site-b");
  exec_a.flock_with(&exec_b);

  ASSERT_TRUE(exec_a.submit(make_spec("busy", 1000.0)).is_ok());
  auto spec = make_spec("ckpt", 100.0);
  spec.checkpointable = true;
  // Simulate prior progress carried into the submission.
  ASSERT_TRUE(exec_a.submit(spec, 40.0).is_ok());
  sim_.run_until(from_seconds(70));
  auto info = exec_b.query("ckpt");
  ASSERT_TRUE(info.is_ok());
  // 60 remaining when flocked at t=0 -> completed at 60.
  EXPECT_EQ(info.value().state, TaskState::kCompleted);
  EXPECT_EQ(info.value().completion_time, from_seconds(60.0));
}

TEST_F(ExecTest, NoFlockWhenPeerBusy) {
  grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
  ExecutionService exec_a(sim_, grid_, "site-a");
  ExecutionService exec_b(sim_, grid_, "site-b");
  exec_a.flock_with(&exec_b);
  ASSERT_TRUE(exec_b.submit(make_spec("busy-b", 100.0)).is_ok());
  ASSERT_TRUE(exec_a.submit(make_spec("busy-a", 100.0)).is_ok());
  ASSERT_TRUE(exec_a.submit(make_spec("waiter", 10.0)).is_ok());
  sim_.run_until(from_seconds(1));
  // Peer busy: waiter stays queued at a.
  EXPECT_TRUE(exec_a.query("waiter").is_ok());
  EXPECT_EQ(exec_a.query("waiter").value().state, TaskState::kQueued);
}

TEST_F(ExecTest, ListTasksIncludesTerminal) {
  ExecutionService exec(sim_, grid_, "site-a");
  ASSERT_TRUE(exec.submit(make_spec("t1", 1.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t2", 1.0)).is_ok());
  sim_.run();
  EXPECT_EQ(exec.list_tasks().size(), 2u);
}

TEST_F(ExecTest, VisitorYieldsQueryViewInIdOrderAndNothingWhileDown) {
  sim::Grid grid;
  auto& site = grid.add_site("s");
  site.add_node("n0", 1.0, nullptr);
  site.add_node("n1", 0.5, nullptr);
  ExecutionService exec(sim_, grid, "s");
  // Submitted out of id order, across priorities: two run, the rest wait,
  // one is killed, one suspended, one completes.
  ASSERT_TRUE(exec.submit(make_spec("t5", 500.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t1", 2.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t4", 300.0, 1)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t2", 100.0, 2)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t3", 100.0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t0", 100.0, 2)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t6", 100.0)).is_ok());
  sim_.run_until(from_seconds(7.25));
  ASSERT_TRUE(exec.kill("t3").is_ok());
  ASSERT_TRUE(exec.suspend("t6").is_ok());
  sim_.run_until(from_seconds(13.5));

  std::vector<std::string> ids;
  exec.for_each_task([&](const TaskInfo& info, double cpu) {
    ids.push_back(info.spec.id);
    const TaskInfo q = exec.query(info.spec.id).value();
    EXPECT_EQ(info.state, q.state) << info.spec.id;
    EXPECT_EQ(cpu, q.cpu_seconds_used) << info.spec.id;
  });
  EXPECT_EQ(ids, (std::vector<std::string>{"t0", "t1", "t2", "t3", "t4", "t5", "t6"}));

  // list_tasks() is query() of every task, queue position included.
  const std::vector<TaskInfo> listed = exec.list_tasks();
  ASSERT_EQ(listed.size(), ids.size());
  std::set<TaskState> states;
  int waiting = 0;
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const TaskInfo q = exec.query(ids[i]).value();
    EXPECT_EQ(listed[i].spec.id, ids[i]);
    EXPECT_EQ(listed[i].state, q.state);
    EXPECT_EQ(listed[i].cpu_seconds_used, q.cpu_seconds_used);
    EXPECT_EQ(listed[i].progress, q.progress);
    EXPECT_EQ(listed[i].queue_position, q.queue_position);
    EXPECT_EQ(listed[i].node, q.node);
    EXPECT_EQ(listed[i].start_time, q.start_time);
    EXPECT_EQ(listed[i].completion_time, q.completion_time);
    states.insert(q.state);
    if (q.queue_position >= 0) ++waiting;
  }
  EXPECT_EQ(states, (std::set<TaskState>{TaskState::kQueued, TaskState::kRunning,
                                         TaskState::kSuspended, TaskState::kCompleted,
                                         TaskState::kKilled}));
  EXPECT_EQ(waiting, 2);

  exec.fail_service();
  int visited = 0;
  exec.for_each_task([&](const TaskInfo&, double) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_TRUE(exec.list_tasks().empty());
  EXPECT_TRUE(exec.queue_positions().empty());
}

}  // namespace
}  // namespace gae::exec
