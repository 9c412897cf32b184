#pragma once
// Seeded inputs. Every corpus, tag and draw is a pure function of the
// workload seed; the program under test only ever sees the generated
// bytes.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "mel/service/tenant.hpp"
#include "mel/util/bytes.hpp"

namespace perfbench {

struct Item {
  mel::util::ByteBuffer bytes;
  bool worm = false;
};

/// Printable tag written over the last kTagBytes of a payload, so that
/// no two tagged payloads are alike.
inline constexpr std::size_t kTagBytes = 16;
void apply_tag(mel::util::ByteBuffer& payload, std::uint64_t tag);

/// One 64-bit value per (seed, index), for draws that must not depend on
/// the order in which requests are issued.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

/// The gateway mix: HTTP bodies, mail messages and text worms blended to
/// the web-text byte profile, each `size` bytes.
std::vector<Item> make_gateway_docs(std::uint64_t seed, const Params& params);

struct Draw {
  std::uint32_t item = 0;  ///< Pool entry.
  mel::service::TenantId tenant = mel::service::kDefaultTenant;
};

/// Request id -> (pool entry, tenant) -> bytes, for the gateway workload.
/// The pool holds `repeat_pool` distinct payloads: entry j is a gateway
/// doc drawn by kind share with tag j written over its tail; requests draw
/// entries Zipf-style (rank == pool index). Only the gateway docs are held
/// in memory; an entry's bytes are made on render.
class GatewayTraffic {
 public:
  static GatewayTraffic make(std::uint64_t seed, const Params& params);

  [[nodiscard]] Draw draw(std::uint64_t id) const;
  void render(const Draw& draw, mel::util::ByteBuffer& out) const;
  [[nodiscard]] bool worm(const Draw& draw) const {
    return docs_[pool_[draw.item]].worm;
  }
  [[nodiscard]] std::size_t size(const Draw& draw) const {
    return docs_[pool_[draw.item]].bytes.size();
  }
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

 private:
  std::uint64_t seed_ = 0;
  std::vector<Item> docs_;
  std::vector<std::uint32_t> pool_;  ///< Pool entry -> gateway doc.
  std::vector<double> cdf_;  ///< Cumulative draw probability per entry.
  double tenant_share_ = 0.0;
  mel::service::TenantId tenant_ = mel::service::kDefaultTenant;
};

/// The offline corpus: benign slices and blended worms with sizes spread
/// log-uniformly over [batch_min_bytes, batch_max_bytes].
std::vector<Item> make_batch_corpus(std::uint64_t seed, const Params& params);

}  // namespace perfbench
