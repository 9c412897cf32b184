#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "mel/textcode/blend.hpp"
#include "mel/textcode/encoder.hpp"
#include "mel/traffic/dataset.hpp"
#include "mel/traffic/email_gen.hpp"
#include "mel/traffic/english_model.hpp"
#include "mel/util/rng.hpp"

namespace perfbench {

using mel::util::ByteBuffer;
using mel::util::Xoshiro256;

void apply_tag(ByteBuffer& payload, std::uint64_t tag) {
  if (payload.size() < kTagBytes) return;
  char text[kTagBytes + 1];
  std::snprintf(text, sizeof(text), " [%013llx]",
                static_cast<unsigned long long>(tag & 0xFFFFFFFFFFFFFull));
  std::copy(text, text + kTagBytes, payload.end() - kTagBytes);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed;
  std::uint64_t key = mel::util::splitmix64_next(state) ^ index;
  return mel::util::splitmix64_next(key);
}

namespace {

/// Text worms whose blended image still has room for a tag.
std::vector<Item> blended_worms(std::uint64_t seed, std::size_t count,
                                std::size_t size) {
  std::vector<Item> worms;
  Xoshiro256 rng(mix(seed, 0x776f726d));
  for (auto& worm : mel::textcode::text_worm_corpus(count * 2, seed)) {
    if (worms.size() == count) break;
    if (worm.bytes.size() + 2 * kTagBytes > size) continue;
    worms.push_back({mel::textcode::blend_to_distribution(
                         worm.bytes, mel::traffic::web_text_distribution(),
                         {.total_size = size}, rng),
                     true});
  }
  if (worms.size() < count) {
    throw std::runtime_error("worm corpus has too few worms of this size");
  }
  return worms;
}

}  // namespace

std::vector<Item> make_gateway_docs(std::uint64_t seed, const Params& params) {
  const std::size_t size = params.count("doc_bytes");
  std::vector<Item> docs;
  mel::traffic::BenignDatasetOptions http;
  http.cases = params.count("http_docs");
  http.case_size = size;
  http.seed = seed;
  for (auto& body : mel::traffic::make_benign_dataset(http)) {
    docs.push_back({std::move(body), false});
  }
  const mel::traffic::EmailGenerator email;
  for (auto& mail :
       email.make_mail_corpus(params.count("mail_docs"), size, mix(seed, 1))) {
    docs.push_back({std::move(mail), false});
  }
  for (auto& worm : blended_worms(seed, params.count("worm_docs"), size)) {
    docs.push_back(std::move(worm));
  }
  return docs;
}

namespace {

/// Index of the first cumulative probability at or above u.
std::uint32_t pick(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
      cdf.size() - 1));
}

}  // namespace

GatewayTraffic GatewayTraffic::make(std::uint64_t seed, const Params& params) {
  GatewayTraffic traffic;
  traffic.seed_ = seed;
  traffic.docs_ = make_gateway_docs(seed, params);
  traffic.tenant_share_ = params.num("tenant_share");
  traffic.tenant_ = static_cast<mel::service::TenantId>(params.count("tenant_id"));
  // Kind shares split evenly across the docs of that kind.
  const double http = static_cast<double>(params.count("http_docs"));
  const double mail = static_cast<double>(params.count("mail_docs"));
  const double worms = static_cast<double>(params.count("worm_docs"));
  const double mail_share = params.num("mail_share");
  const double worm_share = params.num("worm_share");
  std::vector<double> kind_cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < traffic.docs_.size(); ++i) {
    if (traffic.docs_[i].worm) {
      total += worm_share / worms;
    } else if (static_cast<double>(i) < http) {
      total += (1.0 - mail_share - worm_share) / http;
    } else {
      total += mail_share / mail;
    }
    kind_cdf.push_back(total);
  }
  for (double& c : kind_cdf) c /= total;

  const std::size_t pool = params.count("repeat_pool");
  const double exponent = params.num("zipf_exponent");
  total = 0.0;
  for (std::size_t j = 0; j < pool; ++j) {
    Xoshiro256 rng(mix(seed, 0x706f6f6c0000 + j));
    traffic.pool_.push_back(pick(kind_cdf, rng.next_double()));
    total += 1.0 / std::pow(static_cast<double>(j + 1), exponent);
    traffic.cdf_.push_back(total);
  }
  for (double& c : traffic.cdf_) c /= total;
  return traffic;
}

Draw GatewayTraffic::draw(std::uint64_t id) const {
  Xoshiro256 rng(mix(seed_, id));
  Draw d;
  d.item = pick(cdf_, rng.next_double());
  if (rng.next_double() < tenant_share_) d.tenant = tenant_;
  return d;
}

void GatewayTraffic::render(const Draw& draw, ByteBuffer& out) const {
  const ByteBuffer& bytes = docs_[pool_[draw.item]].bytes;
  out.assign(bytes.begin(), bytes.end());
  apply_tag(out, (std::uint64_t{1} << 51) + draw.item);
}

std::vector<Item> make_batch_corpus(std::uint64_t seed, const Params& params) {
  const std::size_t min_bytes = params.count("batch_min_bytes");
  const std::size_t max_bytes = params.count("batch_max_bytes");
  // Long benign sources to slice from; worms are blended per item.
  mel::traffic::BenignDatasetOptions http;
  http.cases = params.count("batch_http_sources");
  http.case_size = max_bytes;
  http.seed = seed;
  std::vector<ByteBuffer> sources = mel::traffic::make_benign_dataset(http);
  const mel::traffic::EmailGenerator email;
  for (auto& mail : email.make_mail_corpus(params.count("batch_mail_sources"),
                                           max_bytes, mix(seed, 2))) {
    sources.push_back(std::move(mail));
  }
  const auto worms = mel::textcode::text_worm_corpus(32, seed);

  const std::size_t count = params.count("batch_items");
  const double worm_share = params.num("worm_share");
  const double log_span = std::log(static_cast<double>(max_bytes) /
                                   static_cast<double>(min_bytes));
  Xoshiro256 rng(mix(seed, 0x6261746368));
  // Stratified sizes: item i is drawn from the i-th of `count` equal
  // slices of the log-size range, and every (1 / worm_share)-th slice
  // holds a worm; then the order is shuffled. Every seed gets the same
  // size and worm mix (and so about the same set-up time), so a seed
  // changes the bytes, not the load.
  const auto worm_every =
      static_cast<std::size_t>(std::lround(1.0 / worm_share));
  std::vector<std::pair<std::size_t, bool>> shapes;  // (size, worm)
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + rng.next_double()) /
                     static_cast<double>(count);
    const double size = static_cast<double>(min_bytes) * std::exp(u * log_span);
    shapes.emplace_back(static_cast<std::size_t>(size),
                        i % worm_every == worm_every / 2);
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(shapes[i - 1], shapes[rng.next_below(i)]);
  }
  std::vector<Item> corpus;
  corpus.reserve(count);
  for (const auto& [size, worm_item] : shapes) {
    Item item;
    if (worm_item) {
      const auto& worm = worms[rng.next_below(worms.size())].bytes;
      item.bytes = mel::textcode::blend_to_distribution(
          worm, mel::traffic::web_text_distribution(),
          {.total_size = std::max(size, worm.size() + 2 * kTagBytes)}, rng);
      item.worm = true;
    } else {
      const ByteBuffer& source = sources[rng.next_below(sources.size())];
      const std::size_t offset = rng.next_below(source.size() - size + 1);
      item.bytes.assign(source.begin() + static_cast<std::ptrdiff_t>(offset),
                        source.begin() +
                            static_cast<std::ptrdiff_t>(offset + size));
    }
    apply_tag(item.bytes, corpus.size());
    corpus.push_back(std::move(item));
  }
  return corpus;
}

}  // namespace perfbench
