#include <algorithm>

#include "workloads.h"

namespace perfbench {

using gae::rpc::Value;

gae::Result<std::vector<std::unique_ptr<SessionClient>>> make_session_clients(
    gae::clarens::ClarensHost& host, int count,
    const std::vector<std::string>& method_prefixes, bool counting) {
  std::vector<std::unique_ptr<SessionClient>> clients;
  for (int c = 0; c < count; ++c) {
    auto sc = std::make_unique<SessionClient>();
    sc->user = "client-" + std::to_string(c);
    const std::string secret = "secret-" + std::to_string(c);
    const gae::Status registered = host.auth().register_user(sc->user, secret);
    if (!registered.is_ok()) return registered;
    for (const auto& prefix : method_prefixes) host.acl().allow(sc->user, prefix);

    gae::rpc::ClientOptions copts;
    if (counting) {
      sc->transport = std::make_unique<CountingTransport>(gae::rpc::tcp_transport());
      copts.transport = sc->transport.get();
    }
    sc->client = std::make_unique<gae::rpc::RpcClient>(
        std::vector<gae::rpc::Endpoint>{{"127.0.0.1", host.port()}}, gae::rpc::Protocol::kXmlRpc, copts);
    auto token = sc->client->call("system.login", {Value(sc->user), Value(secret)});
    ++sc->calls["system.login"];
    if (!token.is_ok()) return token.status();
    if (!token.value().is_string()) {
      return gae::internal_error("system.login returned no token");
    }
    sc->client->set_session_token(token.value().as_string());
    clients.push_back(std::move(sc));
  }
  return clients;
}

void check_call_accounting(const std::vector<std::unique_ptr<SessionClient>>& clients,
                           const gae::clarens::ClarensHost& host, Checks& checks) {
  std::map<std::string, std::uint64_t> made;
  for (const auto& c : clients) {
    for (const auto& [method, n] : c->calls) made[method] += n;
  }
  const auto served = host.method_stats();
  for (const auto& [method, n] : made) {
    const auto it = served.find(method);
    const std::uint64_t host_count = it == served.end() ? 0 : it->second;
    checks.expect(host_count == n, "host counted " + std::to_string(host_count) + " " +
                                       method + " calls, clients made " + std::to_string(n));
  }
}

HandlerTotals handler_totals(const gae::telemetry::MetricsRegistry& metrics,
                             const std::string& prefix) {
  HandlerTotals out;
  const std::string head = "rpc.server." + prefix;
  const std::string tail = ".latency_us";
  for (const auto& [name, h] : metrics.snapshot().histograms) {
    if (name.rfind(head, 0) != 0 || name.size() < tail.size() ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    out.sum_us += static_cast<double>(h.sum);
    out.count += h.count;
  }
  return out;
}

ClientCounters client_counters(const std::vector<std::unique_ptr<SessionClient>>& clients) {
  ClientCounters out;
  for (const auto& c : clients) {
    if (c->transport) {
      const auto& counts = c->transport->counts();
      out.bytes += counts.bytes_written.load() + counts.bytes_read.load();
      out.reads += counts.reads.load();
    }
    const auto pool = c->client->pool().stats();
    out.dials += pool.dials;
    out.reuses += pool.reuses;
  }
  return out;
}

ClientCounters counters_delta(const ClientCounters& after, const ClientCounters& before) {
  return {after.bytes - before.bytes, after.reads - before.reads, after.dials - before.dials,
          after.reuses - before.reuses};
}

void add_rpc_layer_metrics(Report& report, double call_us, const HandlerTotals& handler,
                           const ClientCounters& counters, std::uint64_t calls,
                           double codec_us) {
  const double handler_us =
      handler.count ? handler.sum_us / static_cast<double>(handler.count) : 0.0;
  const double n = static_cast<double>(std::max<std::uint64_t>(calls, 1));
  const std::uint64_t checkouts = counters.dials + counters.reuses;
  report.per_layer.push_back({"rpc.call_us", call_us, "us"});
  report.per_layer.push_back({"rpc.handler_us", handler_us, "us"});
  report.per_layer.push_back({"rpc.wire_us", call_us - handler_us, "us"});
  report.per_layer.push_back({"rpc.codec_us", codec_us, "us"});
  report.per_layer.push_back(
      {"rpc.bytes_per_call", static_cast<double>(counters.bytes) / n, "B"});
  report.per_layer.push_back(
      {"rpc.reads_per_call", static_cast<double>(counters.reads) / n, "count"});
  report.per_layer.push_back(
      {"rpc.pool_reuse_ratio",
       checkouts ? static_cast<double>(counters.reuses) / static_cast<double>(checkouts) : 0.0,
       "ratio"});
  report.per_layer.push_back({"rpc.pool_checkouts", static_cast<double>(checkouts), "count"});
}

}  // namespace perfbench
