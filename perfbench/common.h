// Shared support for the end-to-end benchmark: seeded input generation,
// timing, the in-memory span log used by traced runs, correctness
// bookkeeping, the result line, and a byte-counting rpc::Transport
// decorator for the RPC clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rpc/transport.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check mode: tiny inputs, short load, and every correctness check
  /// is also fed a deliberately wrong output that it must reject.
  bool self_check = false;
  /// Directory (inside the checkout) for WAL files and span dumps.
  std::string workdir = ".bench_build/perfbench/work";
};

// -- Seeded inputs -----------------------------------------------------------

/// splitmix64: the benchmark's own generator, so inputs do not depend on any
/// generator inside the program under test.
class Rng {
 public:
  /// The seed is hashed into the state: splitmix64 streams are one
  /// sequence read from different offsets, so seeds used directly as
  /// states would give shifted copies of each other's inputs.
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  double normal();
  double lognormal(double mu, double sigma);
  bool bernoulli(double p) { return uniform() < p; }
  /// An independent stream derived from this one (for per-thread use).
  Rng fork(std::uint64_t salt) { return Rng(next() ^ (salt * 0xD1B54A32D192ED03ull)); }

 private:
  std::uint64_t state_;
};

/// Zipf-like popularity over n items: item i (0-based) has weight
/// 1 / (i + 1)^s. Sampling is a binary search over the cumulative weights.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// -- Timing ------------------------------------------------------------------

std::int64_t now_ns();
/// Seconds since the process started (captured during static init).
double seconds_since_process_start();
double peak_rss_mb();

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> values, double p);

/// One timed operation: when it completed and how long it took.
struct Sample {
  std::int64_t end_ns = 0;
  double latency_us = 0.0;
};

/// End-to-end figures of a timed phase cut into equal windows: the median
/// over windows of each window's throughput, p50 and p99. Medians over
/// windows keep a burst of interference from other tenants of the machine
/// from moving a run's figures.
struct WindowSummary {
  double throughput = 0.0;  // operations per second
  double p50_us = 0.0;
  double p99_us = 0.0;
  double min_throughput = 0.0;
  double max_throughput = 0.0;
};
WindowSummary summarize_windows(const std::vector<Sample>& samples, std::int64_t start_ns,
                                double seconds, int windows);
/// One window per second of measurement (at least one): every window then
/// holds enough samples for its p99 to have ten or more beyond it.
int window_count(double seconds);
/// The same summary over windows whose throughputs and latency samples
/// were measured separately (one window per grid round).
WindowSummary summarize_rounds(const std::vector<double>& throughputs,
                               const std::vector<std::vector<double>>& latencies_us);

/// Runs body(client) on `clients` threads that start together; each loops
/// until `stop` is set, `seconds` after the start. Returns the wall seconds
/// from the start until the last thread finished its in-flight operation.
/// `start_ns` (optional) receives the instant the threads were released.
double run_closed_loop(int clients, double seconds,
                       const std::function<void(int client, const std::atomic<bool>& stop)>& body,
                       std::int64_t* start_ns = nullptr);

// -- Span log (traced runs) --------------------------------------------------

/// One timed interval: a name, a start, an end and the span that enclosed
/// it on the same thread (0 = none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Process-wide in-memory span store. Disabled (the default), ScopedSpan
/// records nothing; enabled, every thread appends to its own buffer and
/// write() dumps everything as JSON lines when the run ends.
class SpanLog {
 public:
  static void enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void record(const Span& span);
  static std::uint64_t next_id();
  /// All spans recorded so far, from every thread.
  static std::vector<Span> collect();
  /// Writes collect() to `path`, one JSON object per line.
  static bool write(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span around one call into a layer. No-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_ = false;
  std::uint64_t saved_parent_ = 0;
};

/// Count, total and mean duration of every span with this name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double mean_us() const { return count ? total_s * 1e6 / static_cast<double>(count) : 0.0; }
};
SpanStats span_stats(const std::vector<Span>& spans, const std::string& name);

/// Mean microseconds of fn(i) over `reps` calls, each recorded as a span
/// named `name` (the direct per-layer probes of traced runs).
template <class Fn>
double time_mean_us(const char* name, int reps, Fn&& fn) {
  std::int64_t total = 0;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(name);
    const std::int64_t t0 = now_ns();
    fn(i);
    total += now_ns() - t0;
  }
  return reps ? static_cast<double>(total) / reps / 1e3 : 0.0;
}

// -- Correctness and the result line ------------------------------------------

/// Collects failed checks. A run is correct when no check failed.
class Checks {
 public:
  /// Records a failure (with its message) when `ok` is false; returns ok.
  bool expect(bool ok, const std::string& what);
  bool ok() const;
  /// Up to `max` failure messages, for stderr.
  std::vector<std::string> messages(std::size_t max = 10) const;

 private:
  mutable std::mutex mutex_;
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Self-check mode only: each negative check, and whether the check
  /// rejected the wrong output as it must.
  std::vector<std::pair<std::string, bool>> rejections;
};

/// The per-layer metric names every traced run prints (0 where a layer does
/// not run on the workload). Kept in one place so all workloads agree.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();
/// Fills in every catalog metric the workload did not measure with 0.
void complete_per_layer(Report& report);

std::string result_json(const Report& report, bool trace);

// -- RPC transport decorator ---------------------------------------------------

/// Wraps the TCP transport and counts what client connections move: bytes
/// each way and read_some calls.
class CountingTransport final : public gae::rpc::Transport {
 public:
  struct Counts {
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> reads{0};
  };

  explicit CountingTransport(gae::rpc::Transport& inner) : inner_(inner) {}

  gae::Result<std::unique_ptr<gae::rpc::Stream>> connect(const std::string& host,
                                                         std::uint16_t port) override;
  gae::Result<std::unique_ptr<gae::rpc::Listener>> listen(std::uint16_t port) override {
    return inner_.listen(port);
  }

  const Counts& counts() const { return counts_; }

 private:
  gae::rpc::Transport& inner_;
  Counts counts_;
};

/// Creates (if needed) and returns a fresh per-process directory under
/// options.workdir; removes it again on destruction.
class WorkDir {
 public:
  WorkDir(const std::string& root, const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Where a traced run writes its spans.
std::string span_dump_path(const Options& options);

}  // namespace perfbench
