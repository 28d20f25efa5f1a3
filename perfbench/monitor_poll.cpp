// monitor_poll: closed-loop clients poll the Job Monitoring Service over
// XML-RPC, the G-Monitor-portal half of job bookkeeping.
//
// Set-up simulates a multi-site grid until a few thousand tasks are spread
// over every state, then freezes it: no simulation event fires while RPC
// workers read the services. Each of four clients holds its own session and
// picks jobs with Zipf-skewed popularity; a minor share of calls list every
// job. The read path (rpc framing and codec,
// clarens auth/ACL/accounting, the jobmon read cache and service) does all
// the work; no estimator, WAL or simulator code runs while timing.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "estimators/estimate_db.h"
#include "exec/execution_service.h"
#include "jobmon/read_cache.h"
#include "jobmon/rpc_binding.h"
#include "jobmon/service.h"
#include "rpc/xmlrpc.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gae::rpc::Array;
using gae::rpc::Value;

constexpr int kClients = 4;
// Every client call is one RPC call. Calls cycle through fixed positions:
// jobmon.status and jobmon.info in a 2:3 ratio, and every kListEvery-th call
// a jobmon.list of every job. Fixed positions rather than random draws keep
// the share of expensive list calls identical in every run; each client
// starts at another offset of the cycle, so the lists of different clients
// do not coincide.
constexpr int kListEvery = 50000;
constexpr double kZipfExponent = 1.1;

/// What the benchmark itself knows about one submitted task.
struct Expected {
  std::string id;
  std::string owner;
  std::string site;
  std::string state;  // from exec::ExecutionService::query on the frozen grid
};

/// The frozen grid and everything the services read.
struct World {
  gae::sim::Simulation sim;
  gae::sim::Grid grid;
  std::map<std::string, std::unique_ptr<gae::exec::ExecutionService>> execs;
  std::shared_ptr<gae::estimators::EstimateDatabase> estimates =
      std::make_shared<gae::estimators::EstimateDatabase>();
  std::vector<Expected> tasks;
  std::unordered_map<std::string, std::size_t> index;  // task id -> tasks[]
  double turnaround_s = 0.0;  // mean submit-to-complete of completed tasks
};

/// Builds the grid from the seed and simulates it to the freeze point.
void build_world(World& w, std::uint64_t seed, bool tiny) {
  Rng rng(seed);
  const int sites = 3;
  const int nodes = tiny ? 6 : 27;
  // A steady stream at about 60 % of capacity, then a burst that leaves a
  // queue behind at the freeze point.
  const int steady_tasks = tiny ? 80 : 700;
  const int tasks = tiny ? 240 : 2000;
  const double window_s = 20000.0;
  const double burst_s = 1000.0;
  for (int s = 0; s < sites; ++s) {
    const std::string name = "site-" + std::to_string(s);
    auto& site = w.grid.add_site(name);
    for (int n = 0; n < nodes; ++n) {
      site.add_node(name + "-n" + std::to_string(n), 0.8 + 0.7 * n / (nodes - 1), nullptr);
    }
  }
  for (const auto& name : w.grid.site_names()) {
    w.execs[name] = std::make_unique<gae::exec::ExecutionService>(w.sim, w.grid, name);
  }

  // Jobs of 1-5 tasks each, owned by one of 40 users; work is lognormal
  // around 25 minutes.
  int job = 0;
  for (int t = 0; t < tasks;) {
    const int width = static_cast<int>(rng.uniform_int(1, 5));
    const std::string job_id = "job-" + std::to_string(job++);
    const std::string owner = "user-" + std::to_string(rng.uniform_int(0, 39));
    const std::string site = "site-" + std::to_string(rng.uniform_int(0, sites - 1));
    const double arrival = t < steady_tasks ? rng.uniform() * window_s
                                            : window_s - burst_s * rng.uniform();
    for (int k = 0; k < width && t < tasks; ++k, ++t) {
      gae::exec::TaskSpec spec;
      spec.id = job_id + "." + std::to_string(k);
      spec.job_id = job_id;
      spec.owner = owner;
      spec.executable = "app-" + std::to_string(rng.uniform_int(0, 11));
      spec.work_seconds = rng.lognormal(7.2, 0.5);
      spec.priority = static_cast<int>(rng.uniform_int(0, 2));
      spec.environment = {{"CMS_PATH", "/cms/" + spec.executable},
                          {"SHIFT", std::to_string(rng.uniform_int(0, 2))}};
      w.estimates->put(spec.id, spec.work_seconds * rng.lognormal(0.0, 0.2));
      w.tasks.push_back({spec.id, owner, site, ""});
      gae::exec::ExecutionService* exec = w.execs[site].get();
      w.sim.schedule_at(gae::from_seconds(arrival), [exec, spec] { (void)exec->submit(spec); });
    }
  }
}

/// Reads the expected state of every task off the frozen execution services.
void freeze(World& w, Checks& checks) {
  double turnaround = 0.0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < w.tasks.size(); ++i) {
    Expected& e = w.tasks[i];
    auto info = w.execs[e.site]->query(e.id);
    if (!checks.expect(info.is_ok(), "submitted task unknown to its site: " + e.id)) continue;
    e.state = gae::exec::task_state_name(info.value().state);
    w.index[e.id] = i;
    if (info.value().state == gae::exec::TaskState::kCompleted) {
      turnaround +=
          gae::to_seconds(info.value().completion_time - info.value().submit_time);
      ++completed;
    }
  }
  w.turnaround_s = completed ? turnaround / static_cast<double>(completed) : 0.0;
}

// -- Reply checks (pure: the self-check feeds them wrong replies) -------------------

bool info_matches(const Value& reply, const Expected& e) {
  if (!reply.is_struct()) return false;
  return reply.get_string("task_id", "") == e.id && reply.get_string("owner", "") == e.owner &&
         reply.get_string("site", "") == e.site && reply.get_string("status", "") == e.state;
}

bool status_matches(const Value& reply, const Expected& e) {
  return reply.is_string() && reply.as_string() == e.state;
}

/// The list must hold exactly the submitted id set, each entry agreeing
/// with the benchmark's own record. `seen` is caller scratch (one slot per
/// task) stamped with `stamp` so no per-call allocation is needed.
bool list_matches(const Value& reply, const World& w, std::vector<std::uint32_t>& seen,
                  std::uint32_t stamp) {
  if (!reply.is_array() || reply.as_array().size() != w.tasks.size()) return false;
  for (const Value& item : reply.as_array()) {
    if (!item.is_struct()) return false;
    const auto it = w.index.find(item.get_string("task_id", ""));
    if (it == w.index.end() || seen[it->second] == stamp) return false;
    seen[it->second] = stamp;
    if (!info_matches(item, w.tasks[it->second])) return false;
  }
  return true;
}

/// Pins the calling thread to the c-th CPU the process may run on. Each
/// client keeps its own CPU for the whole run: left to the scheduler, the
/// placement of clients and server workers is redrawn in every run, and on
/// the reference machine it moved the p99 of otherwise equal runs by a third.
void pin_to_cpu(int c) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n == 0) return;
  int skip = c % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

enum class Op { kInfo, kStatus, kList };

const char* op_method(Op op) {
  switch (op) {
    case Op::kInfo: return "jobmon.info";
    case Op::kStatus: return "jobmon.status";
    case Op::kList: return "jobmon.list";
  }
  return "";
}

struct ClientTally {
  std::vector<Sample> samples;
  std::uint64_t calls = 0;  // position in the call cycle, warm-up included
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t by_op[3] = {0, 0, 0};
  std::vector<std::uint32_t> seen;
  std::uint32_t stamp = 0;
};

Op op_at(std::uint64_t position) {
  if (position % kListEvery == kListEvery - 1) return Op::kList;
  return position % 5 < 2 ? Op::kStatus : Op::kInfo;
}

/// One closed-loop call: pick, call, time, check.
void poll_once(SessionClient& sc, const World& w, const Zipf& zipf,
               const std::vector<std::size_t>& popularity, Rng& rng, ClientTally& tally,
               Checks& checks, bool timed) {
  const Op op = op_at(tally.calls++);
  const Expected* target = op == Op::kList ? nullptr : &w.tasks[popularity[zipf.sample(rng)]];
  Array params;
  if (target) params.emplace_back(target->id);

  const std::int64_t t0 = now_ns();
  gae::Result<Value> reply = Value();
  {
    ScopedSpan span("rpc.call");
    reply = sc.client->call(op_method(op), params);
  }
  const std::int64_t t1 = now_ns();
  ++sc.calls[op_method(op)];
  if (!timed) {
    checks.expect(reply.is_ok(), "warm-up call failed");
    return;
  }
  ++tally.ops;
  ++tally.by_op[static_cast<int>(op)];
  if (!reply.is_ok()) {
    ++tally.failed;
    return;
  }
  tally.samples.push_back({t1, static_cast<double>(t1 - t0) / 1e3});
  switch (op) {
    case Op::kList:
      checks.expect(list_matches(reply.value(), w, tally.seen, ++tally.stamp),
                    "jobmon.list reply is not the submitted id set");
      break;
    case Op::kStatus:
      checks.expect(status_matches(reply.value(), *target),
                    "jobmon.status reply wrong for " + target->id);
      break;
    case Op::kInfo:
      checks.expect(info_matches(reply.value(), *target),
                    "jobmon.info reply wrong for " + target->id);
      break;
  }
}

}  // namespace

Report run_monitor_poll(const Options& options) {
  Report report;
  Checks checks;
  const bool tiny = options.self_check;

  World w;
  build_world(w, options.seed, tiny);
  w.sim.run_until(gae::from_seconds(20000.0));
  freeze(w, checks);

  gae::jobmon::JobMonitoringService jms(w.sim.clock(), nullptr, w.estimates);
  for (const auto& [name, exec] : w.execs) jms.attach_site(name, exec.get());
  gae::jobmon::ReadCache cache;

  gae::WallClock wall;
  gae::telemetry::MetricsRegistry host_metrics;
  gae::clarens::HostOptions hopts;
  hopts.require_auth = true;
  if (options.trace) hopts.metrics = &host_metrics;
  gae::clarens::ClarensHost host("jobmon-host", wall, hopts);
  gae::jobmon::register_jobmon_methods(host, jms, nullptr, nullptr, nullptr, 2000, &cache);
  auto port = host.serve(0);
  if (!port.is_ok()) {
    std::fprintf(stderr, "serve failed: %s\n", port.status().to_string().c_str());
    report.correct = false;
    return report;
  }
  auto made = make_session_clients(host, kClients, {"jobmon."}, options.trace);
  if (!made.is_ok()) {
    std::fprintf(stderr, "session set-up failed: %s\n", made.status().to_string().c_str());
    report.correct = false;
    return report;
  }
  auto clients = std::move(made).value();

  // Popularity: a seeded permutation of the tasks ranked by a Zipf law.
  Rng rng(options.seed ^ 0x6D6F6E69746F72ull);
  std::vector<std::size_t> popularity(w.tasks.size());
  for (std::size_t i = 0; i < popularity.size(); ++i) popularity[i] = i;
  for (std::size_t i = popularity.size(); i > 1; --i) {
    std::swap(popularity[i - 1], popularity[static_cast<std::size_t>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(i) - 1))]);
  }
  const Zipf zipf(w.tasks.size(), kZipfExponent);
  std::vector<Rng> client_rngs;
  std::vector<ClientTally> tallies(kClients);
  for (int c = 0; c < kClients; ++c) {
    client_rngs.push_back(rng.fork(static_cast<std::uint64_t>(c) + 1));
    tallies[static_cast<std::size_t>(c)].seen.assign(w.tasks.size(), 0);
    // Room for every sample up front: a growing vector's reallocations
    // would step the peak resident set with the run's throughput.
    tallies[static_cast<std::size_t>(c)].samples.reserve(1 << 22);
  }

  // Warm-up: connections, the read cache and allocator pools settle.
  const bool was_tracing = SpanLog::enabled();
  SpanLog::enable(false);
  run_closed_loop(kClients, tiny ? 0.05 : 0.5, [&](int c, const std::atomic<bool>& stop) {
    const auto ci = static_cast<std::size_t>(c);
    pin_to_cpu(c);
    while (!stop.load(std::memory_order_relaxed)) {
      poll_once(*clients[ci], w, zipf, popularity, client_rngs[ci], tallies[ci], checks,
                false);
    }
  });
  SpanLog::enable(was_tracing);
  // The timed phase starts each client at its own offset of the call cycle.
  for (int c = 0; c < kClients; ++c) {
    tallies[static_cast<std::size_t>(c)].calls =
        static_cast<std::uint64_t>(c) * kListEvery / kClients;
  }

  const auto cache_before = cache.stats();
  const HandlerTotals handler_before = handler_totals(host_metrics, "jobmon.");
  const ClientCounters counters_before = client_counters(clients);
  const double setup_s = seconds_since_process_start();

  std::int64_t start_ns = 0;
  run_closed_loop(
      kClients, options.seconds,
      [&](int c, const std::atomic<bool>& stop) {
        const auto ci = static_cast<std::size_t>(c);
        pin_to_cpu(c);
        while (!stop.load(std::memory_order_relaxed)) {
          poll_once(*clients[ci], w, zipf, popularity, client_rngs[ci], tallies[ci], checks,
                    true);
        }
      },
      &start_ns);

  // -- Verification and end-to-end metrics.
  std::vector<Sample> samples;
  std::uint64_t by_op[3] = {0, 0, 0};
  for (const auto& t : tallies) {
    report.attempted += t.ops;
    report.failed += t.failed;
    samples.insert(samples.end(), t.samples.begin(), t.samples.end());
    for (int k = 0; k < 3; ++k) by_op[k] += t.by_op[k];
  }
  check_call_accounting(clients, host, checks);
  checks.expect(by_op[static_cast<int>(Op::kList)] > 0 || tiny, "no jobmon.list call was made");

  const WindowSummary summary = summarize_windows(samples, start_ns, options.seconds, window_count(options.seconds));
  std::fprintf(stderr, "%s: window throughput min %.1f median %.1f max %.1f /s\n",
               options.workload.c_str(), summary.min_throughput, summary.throughput,
               summary.max_throughput);
  report.end_to_end = {
      {"throughput_ops_s", summary.throughput, "1/s"},
      {"latency_p50_us", summary.p50_us, "us"},
      {"latency_p99_us", summary.p99_us, "us"},
      {"turnaround_sim_s", w.turnaround_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  // -- Per-layer metrics (traced run): the clients' own counters, the host's
  // per-method telemetry, and direct calls into each layer on the
  // workload's own requests.
  if (options.trace) {
    const std::uint64_t calls = report.attempted;
    HandlerTotals handler = handler_totals(host_metrics, "jobmon.");
    handler.sum_us -= handler_before.sum_us;
    handler.count -= handler_before.count;
    const ClientCounters counters = counters_delta(client_counters(clients), counters_before);
    const auto cache_after = cache.stats();
    const std::uint64_t lookups = (cache_after.hits - cache_before.hits) +
                                  (cache_after.misses - cache_before.misses);

    // Sample requests in the workload's own popularity and mix.
    Rng probe_rng(options.seed ^ 0x70726F6265ull);
    std::vector<const Expected*> sample;
    for (int i = 0; i < 400; ++i) sample.push_back(&w.tasks[popularity[zipf.sample(probe_rng)]]);
    const std::string token = clients[0]->client->session_token();

    // Codec: both directions of each message, on the real payloads.
    auto codec_us = [&](const char* method, const Array& params) {
      auto reply = host.call(method, params, token);
      const Value result = reply.is_ok() ? reply.value() : Value();
      return time_mean_us("rpc.codec", 20, [&](int) {
        const std::string call = gae::rpc::xmlrpc::encode_call(method, params);
        auto decoded_call = gae::rpc::xmlrpc::decode_call(call);
        const std::string resp = gae::rpc::xmlrpc::encode_response(result);
        auto decoded_resp = gae::rpc::xmlrpc::decode_response(resp);
        checks.expect(decoded_call.is_ok() && decoded_resp.is_ok(), "codec round trip failed");
      });
    };
    const Value id(sample.front()->id);
    double codec = 0.0;
    for (const Op op : {Op::kInfo, Op::kStatus, Op::kList}) {
      const Array params = op == Op::kList ? Array{} : Array{id};
      codec += codec_us(op_method(op), params) * static_cast<double>(by_op[static_cast<int>(op)]);
    }
    codec /= static_cast<double>(std::max<std::uint64_t>(calls, 1));

    // Dispatch: the in-process host path minus the direct service call for
    // the same request, both on a cache miss. The invalidation that forces
    // the miss stays outside the timed region.
    std::int64_t host_ns = 0;
    for (const Expected* e : sample) {
      cache.invalidate_task(e->id);
      ScopedSpan span("clarens.call");
      const std::int64_t t0 = now_ns();
      (void)host.call("jobmon.info", {Value(e->id)}, token);
      host_ns += now_ns() - t0;
    }
    const double host_us = static_cast<double>(host_ns) / static_cast<double>(sample.size()) / 1e3;
    const double info_us = time_mean_us("jobmon.info", static_cast<int>(sample.size()), [&](int i) {
      (void)jms.info(sample[static_cast<std::size_t>(i)]->id);
    });
    const double list_us = time_mean_us("jobmon.list", 5, [&](int) { (void)jms.list_all(); });

    const std::vector<Span> spans = SpanLog::collect();
    add_rpc_layer_metrics(report, span_stats(spans, "rpc.call").mean_us(), handler, counters,
                          calls, codec);
    report.per_layer.push_back({"clarens.dispatch_us", host_us - info_us, "us"});
    report.per_layer.push_back({"jobmon.info_us", info_us, "us"});
    report.per_layer.push_back({"jobmon.list_us", list_us, "us"});
    report.per_layer.push_back(
        {"jobmon.cache_hit_ratio",
         lookups ? static_cast<double>(cache_after.hits - cache_before.hits) /
                       static_cast<double>(lookups)
                 : 0.0,
         "ratio"});
    report.per_layer.push_back({"jobmon.cache_lookups", static_cast<double>(lookups), "count"});
    report.per_layer.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  }

  // -- Self-check: each check must reject a wrong reply.
  if (options.self_check) {
    // Accounting first, before the in-process probes below add host calls.
    Checks miscount;
    clients[0]->calls["jobmon.info"] += 1;
    check_call_accounting(clients, host, miscount);
    clients[0]->calls["jobmon.info"] -= 1;
    report.rejections.push_back({"client call count off by one", !miscount.ok()});

    const Expected& e = w.tasks[popularity[0]];
    auto info = host.call("jobmon.info", {Value(e.id)}, clients[0]->client->session_token());
    auto list = host.call("jobmon.list", {}, clients[0]->client->session_token());
    checks.expect(info.is_ok() && info_matches(info.value(), e), "real info reply rejected");
    std::vector<std::uint32_t> seen(w.tasks.size(), 0);
    checks.expect(list.is_ok() && list_matches(list.value(), w, seen, 1),
                  "real list reply rejected");
    if (info.is_ok() && list.is_ok()) {
      Value wrong_owner = info.value();
      wrong_owner.as_struct()["owner"] = Value(e.owner + "x");
      report.rejections.push_back(
          {"info reply with a wrong owner", !info_matches(wrong_owner, e)});
      Value wrong_site = info.value();
      wrong_site.as_struct()["site"] = Value("site-9");
      report.rejections.push_back({"info reply with a wrong site", !info_matches(wrong_site, e)});
      report.rejections.push_back(
          {"status reply with a wrong state",
           !status_matches(Value(e.state == "QUEUED" ? "RUNNING" : "QUEUED"), e)});
      Value missing = list.value();
      missing.as_array().pop_back();
      report.rejections.push_back(
          {"list reply missing one jobmon record", !list_matches(missing, w, seen, 2)});
      Value duplicated = list.value();
      duplicated.as_array().back() = duplicated.as_array().front();
      report.rejections.push_back(
          {"list reply with a duplicated record", !list_matches(duplicated, w, seen, 3)});
    }
  }

  host.stop();
  report.correct = checks.ok();
  for (const auto& m : checks.messages()) std::fprintf(stderr, "check failed: %s\n", m.c_str());
  return report;
}

}  // namespace perfbench
