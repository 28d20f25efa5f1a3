#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

// -- Rng ---------------------------------------------------------------------

namespace {
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) : state_(mix64(mix64(seed ^ 0x632BE59BD9B4E019ull))) {}

std::uint64_t Rng::next() { return mix64(state_ += 0x9E3779B97F4A7C15ull); }

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::normal() {
  // Box-Muller; u1 is kept away from 0 so the log is finite.
  const double u1 = std::max(uniform(), 1e-300);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

// -- Timing ------------------------------------------------------------------

namespace {
const std::int64_t kProcessStartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                         std::chrono::steady_clock::now().time_since_epoch())
                                         .count();
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since_process_start() {
  return static_cast<double>(now_ns() - kProcessStartNs) / 1e9;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

WindowSummary summarize_rounds(const std::vector<double>& throughputs,
                               const std::vector<std::vector<double>>& latencies_us) {
  WindowSummary out;
  std::vector<double> p50s, p99s;
  for (const auto& window : latencies_us) {
    if (window.empty()) continue;
    p50s.push_back(percentile(window, 50));
    p99s.push_back(percentile(window, 99));
  }
  out.throughput = percentile(throughputs, 50);
  out.p50_us = percentile(p50s, 50);
  out.p99_us = percentile(p99s, 50);
  if (!throughputs.empty()) {
    out.min_throughput = *std::min_element(throughputs.begin(), throughputs.end());
    out.max_throughput = *std::max_element(throughputs.begin(), throughputs.end());
  }
  return out;
}

int window_count(double seconds) { return std::max(1, static_cast<int>(seconds)); }

WindowSummary summarize_windows(const std::vector<Sample>& samples, std::int64_t start_ns,
                                double seconds, int windows) {
  const double width_ns = seconds * 1e9 / windows;
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(windows));
  for (const Sample& s : samples) {
    const auto w = static_cast<std::int64_t>(static_cast<double>(s.end_ns - start_ns) / width_ns);
    if (w < 0 || w >= windows) continue;  // completed after the stop signal
    latencies[static_cast<std::size_t>(w)].push_back(s.latency_us);
  }
  std::vector<double> throughputs;
  for (const auto& window : latencies) {
    throughputs.push_back(static_cast<double>(window.size()) / (width_ns / 1e9));
  }
  return summarize_rounds(throughputs, latencies);
}

double run_closed_loop(int clients, double seconds,
                       const std::function<void(int, const std::atomic<bool>&)>& body,
                       std::int64_t* start_ns) {
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return go; });
      }
      body(c, stop);
    });
  }
  const std::int64_t start = now_ns();
  if (start_ns) *start_ns = start;
  {
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
  }
  cv.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

// -- Span log ------------------------------------------------------------------

std::atomic<bool> SpanLog::enabled_{false};

namespace {

struct SpanBuffers {
  std::mutex mutex;
  std::vector<std::shared_ptr<std::vector<Span>>> buffers;
  std::atomic<std::uint64_t> next_id{1};
};

SpanBuffers& span_buffers() {
  static SpanBuffers buffers;
  return buffers;
}

std::vector<Span>& thread_buffer() {
  thread_local std::shared_ptr<std::vector<Span>> buffer = [] {
    auto b = std::make_shared<std::vector<Span>>();
    b->reserve(1 << 14);
    std::lock_guard<std::mutex> lock(span_buffers().mutex);
    span_buffers().buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local std::uint64_t current_span = 0;

}  // namespace

void SpanLog::enable(bool on) { enabled_.store(on); }

void SpanLog::record(const Span& span) { thread_buffer().push_back(span); }

std::uint64_t SpanLog::next_id() { return span_buffers().next_id.fetch_add(1); }

std::vector<Span> SpanLog::collect() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(span_buffers().mutex);
  for (const auto& b : span_buffers().buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

bool SpanLog::write(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : collect()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!SpanLog::enabled()) return;
  on_ = true;
  span_.name = name;
  span_.id = SpanLog::next_id();
  span_.parent = current_span;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = now_ns();
  current_span = saved_parent_;
  SpanLog::record(span_);
}

SpanStats span_stats(const std::vector<Span>& spans, const std::string& name) {
  SpanStats out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    ++out.count;
    out.total_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  return out;
}

// -- Checks and the result line --------------------------------------------------

bool Checks::expect(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  ++failures_;
  if (messages_.size() < 32) messages_.push_back(what);
  return false;
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_ == 0;
}

std::vector<std::string> Checks::messages(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {messages_.begin(),
          messages_.begin() + static_cast<std::ptrdiff_t>(std::min(max, messages_.size()))};
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"rpc.call_us", "us"},
      {"rpc.handler_us", "us"},
      {"rpc.wire_us", "us"},
      {"rpc.codec_us", "us"},
      {"rpc.bytes_per_call", "B"},
      {"rpc.reads_per_call", "count"},
      {"rpc.pool_reuse_ratio", "ratio"},
      {"rpc.pool_checkouts", "count"},
      {"clarens.dispatch_us", "us"},
      {"jobmon.info_us", "us"},
      {"jobmon.list_us", "us"},
      {"jobmon.cache_hit_ratio", "ratio"},
      {"jobmon.cache_lookups", "count"},
      {"jobmon.updates", "count"},
      {"estimators.runtime_us", "us"},
      {"estimators.matches_per_estimate", "count"},
      {"estimators.record_us", "us"},
      {"wal.append_us", "us"},
      {"wal.bytes_per_update", "B"},
      {"wal.standby_sync_us", "us"},
      {"ha.ship_us", "us"},
      {"ha.records_per_batch", "count"},
      {"sim.self_s", "s"},
      {"sim.events", "count"},
      {"sphinx.submit_us", "us"},
      {"steering.moves", "count"},
      {"trace.spans", "count"},
  };
  return catalog;
}

void complete_per_layer(Report& report) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_catalog()) {
    Metric m{name, 0.0, unit};
    for (const Metric& measured : report.per_layer) {
      if (measured.name == name) m.value = measured.value;
    }
    ordered.push_back(m);
  }
  report.per_layer = std::move(ordered);
}

std::string result_json(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// -- CountingTransport -----------------------------------------------------------

namespace {

class CountingStream final : public gae::rpc::Stream {
 public:
  CountingStream(std::unique_ptr<gae::rpc::Stream> inner, CountingTransport::Counts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  bool valid() const override { return inner_->valid(); }
  gae::Status write_all(const void* data, std::size_t len) override {
    counts_.bytes_written.fetch_add(len, std::memory_order_relaxed);
    return inner_->write_all(data, len);
  }
  using gae::rpc::Stream::write_all;
  gae::Result<std::size_t> read_some(void* buf, std::size_t len) override {
    counts_.reads.fetch_add(1, std::memory_order_relaxed);
    auto n = inner_->read_some(buf, len);
    if (n.is_ok()) counts_.bytes_read.fetch_add(n.value(), std::memory_order_relaxed);
    return n;
  }
  gae::Status set_recv_timeout_ms(int ms) override { return inner_->set_recv_timeout_ms(ms); }
  gae::Status set_no_delay(bool on) override { return inner_->set_no_delay(on); }
  bool healthy() const override { return inner_->healthy(); }
  void shutdown_both() override { inner_->shutdown_both(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<gae::rpc::Stream> inner_;
  CountingTransport::Counts& counts_;
};

}  // namespace

gae::Result<std::unique_ptr<gae::rpc::Stream>> CountingTransport::connect(
    const std::string& host, std::uint16_t port) {
  auto stream = inner_.connect(host, port);
  if (!stream.is_ok()) return stream.status();
  return std::unique_ptr<gae::rpc::Stream>(
      std::make_unique<CountingStream>(std::move(stream).value(), counts_));
}

// -- WorkDir -----------------------------------------------------------------------

WorkDir::WorkDir(const std::string& root, const std::string& tag) {
  path_ = root + "/" + tag + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string span_dump_path(const Options& options) {
  return options.workdir + "/spans-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".jsonl";
}

}  // namespace perfbench
