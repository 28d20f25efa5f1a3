// The workloads, plus the client-side plumbing they share: XML-RPC clients
// that each hold their own authenticated session.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clarens/host.h"
#include "common.h"
#include "rpc/client.h"
#include "telemetry/metrics.h"

namespace perfbench {

Report run_monitor_poll(const Options& options);
Report run_grid_ingest(const Options& options);

/// One load-generating client: its own RpcClient (own connection pool),
/// its own session, and — in traced runs — its own byte-counting transport.
struct SessionClient {
  std::unique_ptr<CountingTransport> transport;  // traced runs only
  std::unique_ptr<gae::rpc::RpcClient> client;
  std::string user;
  /// Calls this client made, by method (warm-up and login included), for
  /// the comparison with the host's own accounting.
  std::map<std::string, std::uint64_t> calls;
};

/// Registers `count` users on the host, grants each the method prefixes, and
/// logs each one in over the wire before any load starts (sessions are
/// never minted or dropped while RPC workers serve load).
gae::Result<std::vector<std::unique_ptr<SessionClient>>> make_session_clients(
    gae::clarens::ClarensHost& host, int count,
    const std::vector<std::string>& method_prefixes, bool counting);

/// Compares per-method call counts made by the clients with the host's
/// method_stats() (only the methods the clients called).
void check_call_accounting(const std::vector<std::unique_ptr<SessionClient>>& clients,
                           const gae::clarens::ClarensHost& host, Checks& checks);

/// Sum and count of the host's rpc.server.<method>.latency_us histograms for
/// every method starting with `prefix`.
struct HandlerTotals {
  double sum_us = 0.0;
  std::uint64_t count = 0;
};
HandlerTotals handler_totals(const gae::telemetry::MetricsRegistry& metrics,
                             const std::string& prefix);

/// Byte, read and pool counters summed over clients (traced runs).
struct ClientCounters {
  std::uint64_t bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t dials = 0;
  std::uint64_t reuses = 0;
};
ClientCounters client_counters(const std::vector<std::unique_ptr<SessionClient>>& clients);
/// after - before, field by field (counters only grow).
ClientCounters counters_delta(const ClientCounters& after, const ClientCounters& before);

/// Adds the rpc.* per-layer metrics of a traced run: `call_us` is the mean
/// client-observed call, `calls` the calls the counters cover.
void add_rpc_layer_metrics(Report& report, double call_us, const HandlerTotals& handler,
                           const ClientCounters& counters, std::uint64_t calls,
                           double codec_us);

}  // namespace perfbench
