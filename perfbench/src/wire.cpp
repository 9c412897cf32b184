#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

using mel::util::ByteBuffer;

mel::net::ServerConfig make_server_config(const Params& params) {
  mel::net::ServerConfig config;
  // Default DetectorConfig: alpha 0.01, analytic tau, kLinearSweep.
  config.shards = params.count("shards");
  config.cache_capacity = params.count("cache_capacity");
  mel::service::TenantConfig tenant;
  tenant.id = static_cast<mel::service::TenantId>(params.count("tenant_id"));
  tenant.name = "partner";
  config.service.tenants.push_back(tenant);
  // The default detector has no preset frequencies, so the per-tenant
  // monitors count bytes but never recalibrate.
  config.drift = mel::persist::DriftMonitorConfig{};
  // Supervision as in the shard-recovery phase of bench_server_throughput,
  // with the brownout ladder parked: a degraded verdict would break the
  // bit-identity gate.
  config.loop_tick = std::chrono::milliseconds(2);
  mel::super::SupervisorConfig supervision;
  supervision.heartbeat_interval = std::chrono::milliseconds(5);
  supervision.missed_heartbeats = 400;
  supervision.stall_grace = 1.5;
  supervision.stall_timeout = std::chrono::milliseconds(200);
  supervision.quarantine_after = 2;
  supervision.brownout.engage_pressure = 100;
  config.supervision = supervision;
  return config;
}

struct WireClient::Conn {
  int fd = -1;
  mel::net::FrameDecoder decoder;
  ByteBuffer out;
  std::size_t out_pos = 0;
  std::size_t inflight = 0;
  /// (end offset in out, request id) of requests not yet fully written;
  /// traced phases only.
  std::deque<std::pair<std::size_t, std::uint64_t>> unwritten;
};

std::unique_ptr<WireClient> WireClient::connect(std::uint16_t port,
                                                std::size_t connections) {
  std::unique_ptr<WireClient> client(new WireClient());
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) throw std::runtime_error("socket() failed");
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<const ::sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect(): ") +
                               std::strerror(errno));
    }
    const int one = 1;
    (void)::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    client->conns_.push_back(std::move(conn));
  }
  return client;
}

WireClient::~WireClient() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

PhaseResult WireClient::run_closed(const GatewayTraffic& traffic,
                                   std::uint64_t first_id,
                                   std::size_t outstanding_per_conn,
                                   double seconds, std::size_t max_requests,
                                   bool traced, SlotSink& sink) {
  constexpr std::int64_t kStallNs = 10'000'000'000;  // No progress: give up.
  PhaseResult result;
  // Only requests in flight are kept: at most connections x outstanding.
  std::unordered_map<std::uint64_t, Slot> pending;
  pending.reserve(conns_.size() * outstanding_per_conn);
  ByteBuffer payload;
  std::vector<::pollfd> fds(conns_.size());
  std::size_t outstanding = 0;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  bool issuing = max_requests > 0;
  result.start_ns = start;
  result.end_ns = start;
  std::int64_t last_progress = start;

  auto issue = [&](std::size_t c, std::int64_t now) {
    Conn& conn = *conns_[c];
    Slot slot;
    slot.id = first_id + result.issued;
    slot.draw = traffic.draw(slot.id);
    slot.sent_ns = now;
    slot.conn = static_cast<std::uint8_t>(c);
    slot.outstanding = static_cast<std::uint32_t>(outstanding);
    traffic.render(slot.draw, payload);
    const ByteBuffer frame =
        mel::net::encode_scan_request(slot.draw.tenant, slot.id, payload);
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    if (traced) conn.unwritten.emplace_back(conn.out.size(), slot.id);
    pending.emplace(slot.id, slot);
    result.issued += 1;
    conn.inflight += 1;
    outstanding += 1;
  };

  auto fail = [&](const std::string& why) {
    if (result.transport_error.empty()) result.transport_error = why;
  };

  while (true) {
    std::int64_t now = now_ns();
    if (issuing) {
      if (now >= stop || result.issued >= max_requests) {
        issuing = false;
      } else {
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          while (conns_[c]->inflight < outstanding_per_conn &&
                 result.issued < max_requests) {
            issue(c, now);
          }
        }
      }
    }

    // Flush every connection as far as its socket takes.
    for (auto& conn_ptr : conns_) {
      Conn& conn = *conn_ptr;
      bool wrote = false;
      while (conn.out_pos < conn.out.size()) {
        const ::ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                   conn.out.size() - conn.out_pos,
                                   MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_pos += static_cast<std::size_t>(n);
          wrote = true;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail(std::string("send(): ") + std::strerror(errno));
        break;
      }
      if (wrote && traced) {
        const std::int64_t written = now_ns();
        while (!conn.unwritten.empty() &&
               conn.unwritten.front().first <= conn.out_pos) {
          const auto it = pending.find(conn.unwritten.front().second);
          if (it != pending.end()) it->second.written_ns = written;
          conn.unwritten.pop_front();
        }
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }
    if (!result.transport_error.empty()) break;
    if (!issuing && outstanding == 0) break;
    if (now - last_progress > kStallNs) {
      fail("no response for 10 s");
      break;
    }

    // Wait for responses. The generator spins while it issues (it is one
    // of the run's busy threads), so responses are read as they land.
    const int timeout_ms = issuing ? 0 : 100;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c]->fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c]->out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    const int ready =
        ::poll(fds.data(), static_cast<::nfds_t>(fds.size()), timeout_ms);
    if (ready <= 0) continue;

    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = *conns_[c];
      while (true) {
        auto area = conn.decoder.write_area(1 << 16);
        const ::ssize_t n = ::recv(conn.fd, area.data(), area.size(), 0);
        if (n < 0 && errno == EINTR) {
          conn.decoder.commit(0);
          continue;
        }
        if (n <= 0) {
          conn.decoder.commit(0);
          if (n == 0) fail("server closed a connection");
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            fail(std::string("recv(): ") + std::strerror(errno));
          }
          break;
        }
        conn.decoder.commit(static_cast<std::size_t>(n));
        now = now_ns();
        last_progress = now;
        while (true) {
          auto next = conn.decoder.next();
          if (!next.is_ok()) {
            fail("undecodable response: " + next.status().to_string());
            break;
          }
          if (!next.value().has_value()) break;
          const mel::net::FrameView& frame = *next.value();
          const auto it = pending.find(frame.header.request_id);
          if (it == pending.end()) {
            fail("response for an unknown request id");
            break;
          }
          Slot& slot = it->second;
          if (frame.header.type == mel::net::FrameType::kVerdict) {
            auto verdict = mel::net::decode_verdict_body(frame.payload);
            if (!verdict.is_ok()) {
              fail("malformed verdict body");
              break;
            }
            slot.verdict = verdict.value();
            slot.state = Slot::State::kOk;
          } else if (frame.header.type == mel::net::FrameType::kError) {
            if (!mel::net::decode_error_body(frame.payload).is_ok()) {
              fail("malformed error body");
              break;
            }
            slot.state = Slot::State::kError;
          } else {
            fail("unexpected response frame type");
            break;
          }
          slot.done_ns = now;
          result.end_ns = now;
          conn.inflight -= 1;
          outstanding -= 1;
          sink.done(slot);
          pending.erase(it);
          conn.decoder.release();
        }
        if (!result.transport_error.empty()) break;
        if (static_cast<std::size_t>(n) < area.size()) break;
      }
    }
    if (!result.transport_error.empty()) break;
  }
  return result;
}

}  // namespace perfbench
