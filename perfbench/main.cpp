// gae_perfbench: the repository's end-to-end benchmark.
//
//   gae_perfbench --workload <monitor_poll|grid_ingest>
//                 --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//   gae_perfbench --self-check [--workdir <dir>]
//
// A run builds its world from the seed, measures for --seconds, checks the
// program's outputs, and prints one JSON object as the last stdout line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// --self-check runs every workload at a tiny size and feeds each
// correctness check a deliberately wrong output it must reject.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/log.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gae_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n"
               "       gae_perfbench --self-check [--workdir <dir>]\n");
  return 2;
}

Report run_workload(const Options& options) {
  if (options.workload == "monitor_poll") return run_monitor_poll(options);
  return run_grid_ingest(options);
}

bool known_workload(const std::string& name) {
  return name == "monitor_poll" || name == "grid_ingest";
}

int self_check(Options options) {
  options.self_check = true;
  options.seconds = 0.3;
  bool all_ok = true;
  for (const char* name : {"monitor_poll", "grid_ingest"}) {
    options.workload = name;
    const Report report = run_workload(options);
    const bool run_ok = report.correct && report.failed == 0 && report.attempted > 0;
    std::printf("%-17s run: %s (attempted %llu, failed %llu)\n", name,
                run_ok ? "correct" : "WRONG",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    all_ok = all_ok && run_ok && !report.rejections.empty();
    for (const auto& [check, rejected] : report.rejections) {
      std::printf("%-17s   %-58s %s\n", name, check.c_str(),
                  rejected ? "rejected" : "ACCEPTED (check is vacuous)");
      all_ok = all_ok && rejected;
    }
  }
  std::printf("self-check: %s\n", all_ok ? "every check passes real output and rejects "
                                           "wrong output"
                                         : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  gae::set_log_level(gae::LogLevel::kError);
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--self-check") {
      self = true;
    } else if (arg == "--workload") {
      const char* v = value();
      if (!v) return usage();
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return usage();
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (!v) return usage();
      options.seconds = std::strtod(v, nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) return usage();
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--workdir") {
      const char* v = value();
      if (!v) return usage();
      options.workdir = v;
    } else {
      return usage();
    }
  }
  if (self) return self_check(options);
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      !known_workload(options.workload)) {
    return usage();
  }

  SpanLog::enable(options.trace);
  Report report = run_workload(options);
  if (options.trace) {
    // The traced run's own end-to-end figures, for the overhead report.
    std::printf("end_to_end: %s\n", result_json(report, false).c_str());
    complete_per_layer(report);
    const std::string path = span_dump_path(options);
    if (SpanLog::write(path)) std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  std::printf("%s\n", result_json(report, options.trace).c_str());
  std::fflush(stdout);
  return 0;
}
