#pragma once
// The traced replay: a workload's seeded payload sequence, in request
// order, through each layer's public calls, timed from outside the
// program. Every call becomes a span (name, start, end, parent, request
// id) kept in memory; self times per layer make the stage table.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "mel/persist/drift_monitor.hpp"
#include "mel/service/scan_service.hpp"
#include "mel/util/bytes.hpp"

namespace perfbench {

struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Opens a span now; close() stamps its end.
  std::int32_t open(const std::string& name, std::uint64_t request,
                    std::int32_t parent = -1);
  void close(std::int32_t span) { spans_[span].end_ns = now_ns(); }
  /// Records a span whose times are already known.
  std::int32_t add(const std::string& name, std::uint64_t request,
                   std::int32_t parent, std::int64_t start_ns,
                   std::int64_t end_ns);
  /// Mean self time (duration minus what child spans cover) per request,
  /// in ns, of every span called `name`.
  [[nodiscard]] double self_ns_per_request(const std::string& name,
                                           std::size_t requests) const;
  /// Mean duration of spans called `name`, in ns.
  [[nodiscard]] double mean_ns(const std::string& name) const;
  /// Writes one CSV line per span: request,span,parent,name,start,end.
  bool write_csv(const std::string& path) const;

 private:
  std::uint16_t intern(const std::string& name);
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

struct ReplayRequest {
  std::uint64_t id = 0;  ///< The request id it carried in the workload.
  mel::util::ByteBuffer payload;
  mel::service::TenantId tenant = mel::service::kDefaultTenant;
  std::size_t shard = 0;  ///< Which server shard served it (wire only).
};

struct ReplaySetup {
  /// Wire workloads replay the server's per-request path (frame codec,
  /// fingerprint, cache, drift); batch replays the service alone.
  bool wire = false;
  mel::service::ServiceConfig service;
  std::size_t shards = 1;
  std::size_t cache_capacity = 0;  ///< Total, split across shards.
  std::optional<mel::persist::DriftMonitorConfig> drift;
};

struct StageRow {
  std::string name;
  double us = 0.0;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  std::vector<StageRow> rows;  ///< Self time per request, path order.
  SpanLog spans;
};

ReplayResult replay(const std::vector<ReplayRequest>& requests,
                    const ReplaySetup& setup);

}  // namespace perfbench
