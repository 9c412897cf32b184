#pragma once
// The wire side of the gateway workload: the deployment config, and one
// generator thread driving N non-blocking connections through the public
// frame codec, closed loop (a fixed number of requests outstanding per
// connection).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "mel/net/frame.hpp"
#include "mel/net/server.hpp"

namespace perfbench {

/// The deployment every wire workload runs against (see spec.json).
mel::net::ServerConfig make_server_config(const Params& params);

/// One request's life on the client side. Times are now_ns() values.
struct Slot {
  std::uint64_t id = 0;
  Draw draw;
  std::int64_t sent_ns = 0;     ///< Encoded and queued for the socket.
  std::int64_t written_ns = 0;  ///< Last byte accepted by the socket (traced).
  std::int64_t done_ns = 0;     ///< Response decoded.
  std::uint32_t outstanding = 0;  ///< Requests in flight when it was sent.
  std::uint8_t conn = 0;
  enum class State : std::uint8_t { kPending, kOk, kError } state =
      State::kPending;
  mel::net::WireVerdict verdict;

  [[nodiscard]] double latency_us() const {
    return static_cast<double>(done_ns - sent_ns) / 1e3;
  }
};

/// Receives each request as its response is decoded. The client keeps
/// only the requests in flight, so what a pass holds in memory is up to
/// the sink, not the number of requests it completes.
class SlotSink {
 public:
  virtual ~SlotSink() = default;
  virtual void done(const Slot& slot) = 0;
};

struct PhaseResult {
  std::uint64_t issued = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;          ///< Last response.
  std::string transport_error;      ///< Non-empty: an untyped failure.
};

class WireClient {
 public:
  /// Connects `connections` sockets to the server (dealt round-robin to
  /// its shards in connect order) and makes them non-blocking.
  static std::unique_ptr<WireClient> connect(std::uint16_t port,
                                             std::size_t connections);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Closed loop: every connection keeps `outstanding` requests in
  /// flight until `seconds` pass (or `max_requests` were issued), with
  /// consecutive ids from first_id. Traced passes stamp written_ns.
  PhaseResult run_closed(const GatewayTraffic& traffic, std::uint64_t first_id,
                         std::size_t outstanding, double seconds,
                         std::size_t max_requests, bool traced,
                         SlotSink& sink);

  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

 private:
  struct Conn;
  WireClient() = default;

  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
