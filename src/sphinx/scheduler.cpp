#include "sphinx/scheduler.h"

#include <algorithm>

#include "common/log.h"

namespace gae::sphinx {

SphinxScheduler::SphinxScheduler(sim::Simulation& sim, sim::Grid& grid,
                                 monalisa::Repository* monitoring,
                                 std::shared_ptr<estimators::EstimateDatabase> estimate_db,
                                 SchedulerOptions options)
    : sim_(sim),
      grid_(grid),
      monitoring_(monitoring),
      estimate_db_(std::move(estimate_db)),
      options_(options) {
  if (!estimate_db_) estimate_db_ = std::make_shared<estimators::EstimateDatabase>();
}

SphinxScheduler::~SphinxScheduler() {
  for (const auto& [site, token] : subscriptions_) {
    auto it = sites_.find(site);
    if (it != sites_.end() && it->second.exec) it->second.exec->unsubscribe(token);
  }
}

void SphinxScheduler::add_site(const std::string& name, SiteBinding binding) {
  sites_[name] = binding;
  if (binding.exec) {
    const int token =
        binding.exec->subscribe([this](const exec::TaskEvent& ev) { on_task_event(ev); });
    subscriptions_.emplace_back(name, token);
  }
}

std::vector<std::string> SphinxScheduler::site_names() const {
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, _] : sites_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

double SphinxScheduler::site_backlog_seconds(const SiteBinding& binding,
                                             int priority) const {
  if (!binding.exec) return 0.0;
  double backlog = 0.0;
  binding.exec->for_each_task([&](const exec::TaskInfo& t, double cpu_seconds) {
    if (exec::is_terminal(t.state) || t.state == exec::TaskState::kSuspended) return;
    // A newly submitted task queues behind running work, higher priorities,
    // and equal priorities already in the queue (FIFO).
    const bool occupies_node =
        t.state == exec::TaskState::kRunning || t.state == exec::TaskState::kStaging;
    if (!occupies_node && t.spec.priority < priority) return;
    const double estimated =
        estimate_db_->get(t.spec.id).value_or(options_.fallback_runtime_seconds);
    backlog += std::max(0.0, estimated - cpu_seconds);
  });
  const auto nodes = grid_.site(binding.exec->site()).node_count();
  return backlog / static_cast<double>(std::max<std::size_t>(1, nodes));
}

Result<SiteScore> SphinxScheduler::score_site(const exec::TaskSpec& spec,
                                              const std::string& name) const {
  auto it = sites_.find(name);
  if (it == sites_.end()) return not_found_error("unknown site: " + name);
  const SiteBinding& binding = it->second;
  if (!binding.exec || !binding.exec->is_up()) {
    return unavailable_error("site " + name + " is down");
  }

  SiteScore score;
  score.site = name;

  // (a)-(c) ask the site's runtime estimator.
  score.est_runtime_seconds = options_.fallback_runtime_seconds;
  if (binding.estimator) {
    auto est = binding.estimator->estimate(spec.attributes);
    if (est.is_ok()) score.est_runtime_seconds = est.value().seconds;
  }

  // (d) current load at the site, from the MonALISA repository.
  double load = 0.0;
  if (monitoring_ && !options_.load_metric.empty()) {
    auto avg = monitoring_->windowed_average(name, options_.load_metric, sim_.now(),
                                             from_seconds(options_.load_window_seconds));
    if (avg.is_ok()) load = std::clamp(avg.value(), 0.0, 1.0);
  }
  const double effective_runtime =
      score.est_runtime_seconds / std::max(options_.min_effective_speed, 1.0 - load);

  // Queue backlog ahead of this task.
  score.est_queue_seconds = site_backlog_seconds(binding, spec.priority);

  // Input staging cost.
  score.est_transfer_seconds = 0.0;
  const sim::Site& site = grid_.site(name);
  for (const auto& file : spec.input_files) {
    if (site.has_file(file)) continue;
    auto src = grid_.closest_replica(file, name, name);
    if (!src.is_ok()) {
      score.est_transfer_seconds = 1e9;  // effectively disqualifies the site
      break;
    }
    const auto bytes = grid_.site(src.value()).file_size(file).value();
    score.est_transfer_seconds += to_seconds(grid_.transfer_time(src.value(), name, bytes));
  }

  // (e) rank by total expected completion time.
  score.total_seconds =
      effective_runtime + score.est_queue_seconds + score.est_transfer_seconds;
  return score;
}

Result<std::vector<SiteScore>> SphinxScheduler::rank_sites(
    const exec::TaskSpec& spec, const std::set<std::string>& exclude) const {
  std::vector<SiteScore> scores;
  for (const auto& [name, binding] : sites_) {
    if (exclude.count(name)) continue;
    auto score = score_site(spec, name);
    if (score.is_ok()) scores.push_back(std::move(score).value());
  }
  if (scores.empty()) {
    return failed_precondition_error("no execution site available for scheduling");
  }
  std::sort(scores.begin(), scores.end(), [](const SiteScore& a, const SiteScore& b) {
    if (a.total_seconds != b.total_seconds) return a.total_seconds < b.total_seconds;
    return a.site < b.site;
  });
  return scores;
}

Result<ConcreteJobPlan> SphinxScheduler::make_plan(const JobDescription& job) const {
  if (job.id.empty()) return invalid_argument_error("job id must not be empty");
  if (job.tasks.empty()) return invalid_argument_error("job has no tasks: " + job.id);

  // Validate the DAG: known dependencies, no cycles.
  std::map<std::string, const DagTask*> by_id;
  for (const auto& t : job.tasks) {
    if (!by_id.emplace(t.spec.id, &t).second) {
      return invalid_argument_error("duplicate task id in job: " + t.spec.id);
    }
  }
  std::set<std::string> resolved;
  bool progress = true;
  while (progress && resolved.size() < by_id.size()) {
    progress = false;
    for (const auto& [id, task] : by_id) {
      if (resolved.count(id)) continue;
      bool ready = true;
      for (const auto& dep : task->depends_on) {
        if (!by_id.count(dep)) {
          return invalid_argument_error("task " + id + " depends on unknown task " + dep);
        }
        if (!resolved.count(dep)) ready = false;
      }
      if (ready) {
        resolved.insert(id);
        progress = true;
      }
    }
  }
  if (resolved.size() < by_id.size()) {
    return invalid_argument_error("job " + job.id + " has a dependency cycle");
  }

  ConcreteJobPlan plan;
  plan.job_id = job.id;
  plan.owner = job.owner;
  plan.created_at = sim_.now();
  // Earlier placements in this plan add backlog the live queues cannot show
  // yet; account for them so one plan spreads its own tasks across sites.
  std::map<std::string, double> planned_backlog;
  for (const auto& t : job.tasks) {
    auto ranked = rank_sites(t.spec);
    if (!ranked.is_ok()) return ranked.status();
    const SiteScore* best = nullptr;
    double best_total = 0;
    for (const SiteScore& score : ranked.value()) {
      const double total = score.total_seconds + planned_backlog[score.site];
      if (!best || total < best_total) {
        best = &score;
        best_total = total;
      }
    }
    SitePlacement placement;
    placement.task_id = t.spec.id;
    placement.site = best->site;
    placement.score = *best;
    placement.score.est_queue_seconds += planned_backlog[best->site];
    placement.score.total_seconds = best_total;
    const auto nodes = grid_.site(best->site).node_count();
    planned_backlog[best->site] +=
        best->est_runtime_seconds / static_cast<double>(std::max<std::size_t>(1, nodes));
    plan.placements.push_back(std::move(placement));
  }
  return plan;
}

Result<ConcreteJobPlan> SphinxScheduler::submit(const JobDescription& job) {
  if (jobs_.count(job.id)) return already_exists_error("job already submitted: " + job.id);
  auto planr = make_plan(job);
  if (!planr.is_ok()) return planr.status();
  ConcreteJobPlan plan = std::move(planr).value();

  JobRun run;
  run.desc = job;
  run.plan = plan;
  for (const auto& t : job.tasks) {
    TaskRun tr;
    tr.spec = t.spec;
    tr.spec.job_id = job.id;
    if (tr.spec.owner.empty()) tr.spec.owner = job.owner;
    tr.depends_on = t.depends_on;
    for (const auto& p : plan.placements) {
      if (p.task_id == t.spec.id) {
        tr.site = p.site;
        estimate_db_->put(t.spec.id, p.score.est_runtime_seconds);
        break;
      }
    }
    task_to_job_[t.spec.id] = job.id;
    run.tasks.emplace(t.spec.id, std::move(tr));
  }
  auto [it, _] = jobs_.emplace(job.id, std::move(run));

  // The steering service's Subscriber receives the concrete plan (§4.2.1).
  for (const auto& [__, cb] : plan_subs_) cb(it->second.desc, it->second.plan);

  submit_ready_tasks(it->second);
  return plan;
}

// ---------------------------------------------------------------------------
// Steering hooks
// ---------------------------------------------------------------------------

Result<std::string> SphinxScheduler::task_site(const std::string& task_id) const {
  auto it = task_site_.find(task_id);
  if (it == task_site_.end()) return not_found_error("unknown task: " + task_id);
  return it->second;
}

Result<SitePlacement> SphinxScheduler::reallocate(const std::string& task_id,
                                                  const std::set<std::string>& exclude,
                                                  double initial_cpu_seconds) {
  auto job_it = task_to_job_.find(task_id);
  if (job_it == task_to_job_.end()) return not_found_error("unknown task: " + task_id);
  JobRun& job = jobs_.at(job_it->second);
  TaskRun& task = job.tasks.at(task_id);

  auto ranked = rank_sites(task.spec, exclude);
  if (!ranked.is_ok()) return ranked.status();
  const SiteScore& best = ranked.value().front();

  const Status s = submit_to_site(task.spec, best.site, initial_cpu_seconds);
  if (!s.is_ok()) return s;

  task.site = best.site;
  task.submitted = true;
  task.failed = false;
  task.completed = false;
  estimate_db_->put(task_id, best.est_runtime_seconds);

  SitePlacement placement;
  placement.task_id = task_id;
  placement.site = best.site;
  placement.score = best;
  GAE_LOG(Info) << "sphinx reallocated " << task_id << " to " << best.site;
  return placement;
}

Result<SitePlacement> SphinxScheduler::place(const std::string& task_id,
                                             const std::string& site,
                                             double initial_cpu_seconds) {
  auto job_it = task_to_job_.find(task_id);
  if (job_it == task_to_job_.end()) return not_found_error("unknown task: " + task_id);
  JobRun& job = jobs_.at(job_it->second);
  TaskRun& task = job.tasks.at(task_id);

  auto score = score_site(task.spec, site);
  if (!score.is_ok()) return score.status();

  const Status s = submit_to_site(task.spec, site, initial_cpu_seconds);
  if (!s.is_ok()) return s;

  task.site = site;
  task.submitted = true;
  task.failed = false;
  task.completed = false;
  estimate_db_->put(task_id, score.value().est_runtime_seconds);

  SitePlacement placement;
  placement.task_id = task_id;
  placement.site = site;
  placement.score = std::move(score).value();
  GAE_LOG(Info) << "sphinx placed " << task_id << " at " << site << " (manual)";
  return placement;
}

Status SphinxScheduler::cancel_job(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return not_found_error("unknown job: " + job_id);
  JobRun& job = it->second;
  if (job.cancelled) return failed_precondition_error("job already cancelled: " + job_id);
  job.cancelled = true;
  for (auto& [task_id, task] : job.tasks) {
    if (!task.submitted || task.completed || task.failed) continue;
    auto site_it = sites_.find(task.site);
    if (site_it == sites_.end() || !site_it->second.exec) continue;
    site_it->second.exec->kill(task_id, "job cancelled");
  }
  GAE_LOG(Info) << "sphinx cancelled job " << job_id;
  return Status::ok();
}

Result<JobStatus> SphinxScheduler::job_status(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return not_found_error("unknown job: " + job_id);
  JobStatus st;
  st.tasks_total = it->second.tasks.size();
  for (const auto& [_, t] : it->second.tasks) {
    if (t.completed) ++st.tasks_completed;
    if (t.failed) ++st.tasks_failed;
  }
  if (it->second.cancelled) {
    st.state = JobState::kCancelled;
  } else if (st.tasks_completed == st.tasks_total) {
    st.state = JobState::kCompleted;
  } else if (st.tasks_failed > 0) {
    st.state = JobState::kFailed;
  } else {
    st.state = JobState::kRunning;
  }
  return st;
}

int SphinxScheduler::subscribe_plans(PlanCallback cb) {
  const int token = next_token_++;
  plan_subs_[token] = std::move(cb);
  return token;
}

void SphinxScheduler::unsubscribe_plans(int token) { plan_subs_.erase(token); }

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void SphinxScheduler::submit_ready_tasks(JobRun& job) {
  if (job.cancelled) return;
  for (auto& [id, task] : job.tasks) {
    if (task.submitted) continue;
    bool ready = true;
    for (const auto& dep : task.depends_on) {
      if (!job.tasks.at(dep).completed) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    const Status s = submit_to_site(task.spec, task.site, 0.0);
    if (s.is_ok()) {
      task.submitted = true;
    } else {
      GAE_LOG(Warn) << "sphinx could not submit " << id << " to " << task.site << ": " << s;
      task.failed = true;
    }
  }
}

Status SphinxScheduler::submit_to_site(const exec::TaskSpec& spec, const std::string& site,
                                       double initial_cpu_seconds) {
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.exec) {
    return not_found_error("unknown execution site: " + site);
  }
  const Status s = it->second.exec->submit(spec, initial_cpu_seconds);
  if (s.is_ok()) task_site_[spec.id] = site;
  return s;
}

void SphinxScheduler::on_task_event(const exec::TaskEvent& ev) {
  // Track flocked tasks so the location registry stays accurate.
  constexpr const char* kFlockPrefix = "flocked to ";
  if (ev.detail.rfind(kFlockPrefix, 0) == 0) {
    task_site_[ev.task_id] = ev.detail.substr(std::string(kFlockPrefix).size());
  }

  auto job_it = task_to_job_.find(ev.task_id);
  if (job_it == task_to_job_.end()) return;
  auto run_it = jobs_.find(job_it->second);
  if (run_it == jobs_.end()) return;
  JobRun& job = run_it->second;
  auto task_it = job.tasks.find(ev.task_id);
  if (task_it == job.tasks.end()) return;

  // Only trust events from the site the task currently lives on (a stale
  // copy left running after a move also emits events).
  auto loc = task_site_.find(ev.task_id);
  if (loc != task_site_.end() && loc->second != ev.site &&
      ev.detail.rfind(kFlockPrefix, 0) != 0) {
    return;
  }

  if (ev.new_state == exec::TaskState::kCompleted) {
    task_it->second.completed = true;
    task_it->second.failed = false;
    submit_ready_tasks(job);
  } else if (ev.new_state == exec::TaskState::kFailed) {
    TaskRun& task = task_it->second;
    task.failed = true;
    // Optional automatic retry away from the failing site. Carried progress
    // is preserved for checkpointable tasks.
    if (!job.cancelled && task.retries < options_.task_retry_limit) {
      ++task.retries;
      auto current = task_site_.find(ev.task_id);
      std::set<std::string> exclude;
      if (current != task_site_.end()) exclude.insert(current->second);
      double carried = 0.0;
      if (task.spec.checkpointable) {
        auto svc = sites_.find(ev.site);
        if (svc != sites_.end() && svc->second.exec && svc->second.exec->is_up()) {
          auto info = svc->second.exec->query(ev.task_id);
          if (info.is_ok()) carried = info.value().cpu_seconds_used;
        }
      }
      auto placement = reallocate(ev.task_id, exclude, carried);
      if (placement.is_ok()) {
        GAE_LOG(Info) << "sphinx auto-retried " << ev.task_id << " ("
                      << task.retries << "/" << options_.task_retry_limit << ") at "
                      << placement.value().site;
      }
    }
  }
}

}  // namespace gae::sphinx
