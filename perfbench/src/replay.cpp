#include "replay.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "mel/core/detector.hpp"
#include "mel/core/parameter_estimation.hpp"
#include "mel/disasm/decoder.hpp"
#include "mel/disasm/scan_decoder.hpp"
#include "mel/exec/mel.hpp"
#include "mel/net/frame.hpp"
#include "mel/obs/metrics.hpp"
#include "mel/persist/verdict_cache.hpp"
#include "mel/traffic/english_model.hpp"

namespace perfbench {

using mel::util::ByteBuffer;
using mel::util::ByteView;

std::uint16_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanLog::open(const std::string& name, std::uint64_t request,
                           std::int32_t parent) {
  return add(name, request, parent, now_ns(), 0);
}

std::int32_t SpanLog::add(const std::string& name, std::uint64_t request,
                          std::int32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  spans_.push_back({intern(name), parent, request, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SpanLog::self_ns_per_request(const std::string& name,
                                    std::size_t requests) const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] != name) continue;
    total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                 covered[i]);
  }
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

double SpanLog::mean_ns(const std::string& name) const {
  double total = 0.0;
  std::size_t count = 0;
  for (const Span& span : spans_) {
    if (names_[span.name] != name) continue;
    total += static_cast<double>(span.end_ns - span.start_ns);
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "request,span,parent,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%llu,%zu,%d,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.request), i, s.parent,
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

namespace {

double kb(std::size_t bytes) { return static_cast<double>(bytes) / 1024.0; }

/// Publishes a result of timed calls so the compiler cannot drop them.
void keep(double value) {
  static volatile double sink = 0.0;
  sink = sink + value;
}

/// The cache key ScanService uses for (payload, tenant): the tenant
/// partition of scan_service.cpp, applied to the content fingerprint, so
/// the replay's caches see the same keys as the server's.
mel::persist::Fingerprint tenant_key(mel::persist::Fingerprint key,
                                     mel::service::TenantId tenant) {
  if (tenant == mel::service::kDefaultTenant) return key;
  std::uint64_t salt = tenant;
  salt = (salt ^ (salt >> 30)) * 0xBF58476D1CE4E5B9ull;
  salt = (salt ^ (salt >> 27)) * 0x94D049BB133111EBull;
  salt ^= salt >> 31;
  key.lo ^= salt;
  key.hi ^= (salt << 32) | (salt >> 32);
  return key;
}

/// Per-KB cost of compute_mel on the linear sweep over `views`.
double mel_ns_per_kb(const std::vector<ByteView>& views) {
  const mel::exec::MelOptions options;  // kLinearSweep, no early exit.
  std::int64_t ns = 0;
  std::size_t bytes = 0;
  for (ByteView view : views) {
    const std::int64_t t0 = now_ns();
    const auto result = mel::exec::compute_mel(view, options);
    ns += now_ns() - t0;
    keep(static_cast<double>(result.mel));
    bytes += view.size();
  }
  return bytes == 0 ? 0.0 : static_cast<double>(ns) / kb(bytes);
}

/// Runs fn(thread_index) on `threads` threads released together; returns
/// each thread's wall time in ns.
template <typename Fn>
std::vector<std::int64_t> run_together(std::size_t threads, Fn fn) {
  std::atomic<bool> go{false};
  std::vector<std::int64_t> wall(threads, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::int64_t t0 = now_ns();
      fn(t);
      wall[t] = now_ns() - t0;
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : pool) thread.join();
  return wall;
}

}  // namespace

ReplayResult replay(const std::vector<ReplayRequest>& requests,
                    const ReplaySetup& setup) {
  ReplayResult result;
  SpanLog& spans = result.spans;
  const std::size_t n = requests.size();
  auto add = [&](const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
    result.metrics.push_back({name, value, unit, samples});
  };

  // --- The per-request path, span by span ---------------------------------
  // One service per shard, and on the wire path one cache per shard: a
  // 4-way VerdictCache of capacity/shards, as the server builds. The
  // cache is the replay's own rather than the service's, so its lookup
  // and insert are spans of their own: a hit skips service.scan, and a
  // miss scans and inserts. (The server's ScanService looks the cache up
  // inside scan(), after its admission gates, so the gate time of a hit
  // is not in service.gate here but in the net.unattributed remainder.)
  std::vector<mel::service::ScanService> services;
  std::vector<std::shared_ptr<mel::persist::VerdictCache>> caches;
  for (std::size_t s = 0; s < setup.shards; ++s) {
    services.push_back(
        std::move(mel::service::ScanService::create(setup.service).take()));
    if (setup.wire && setup.cache_capacity > 0) {
      mel::persist::VerdictCacheConfig cache_config;
      cache_config.shards = 4;
      cache_config.capacity = std::max<std::size_t>(
          4, setup.cache_capacity / setup.shards);
      caches.push_back(
          std::move(mel::persist::VerdictCache::create(cache_config).take()));
    }
  }
  std::map<mel::service::TenantId,
           std::shared_ptr<mel::persist::DriftMonitor>>
      drift;
  mel::exec::MelScratch scratch;
  mel::net::FrameDecoder decoder;
  std::size_t degraded = 0;
  std::size_t lookups = 0;
  std::size_t inserts = 0;
  std::size_t scans = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ReplayRequest& req = requests[i];
    const std::uint64_t id = req.id;
    const std::int32_t root = spans.open("request", id);
    ByteView payload = req.payload;
    std::optional<mel::net::FrameView> frame;
    mel::persist::Fingerprint fingerprint{};
    if (setup.wire) {
      std::int32_t span = spans.open("net.encode_request", id, root);
      const ByteBuffer wire =
          mel::net::encode_scan_request(req.tenant, id, req.payload);
      spans.close(span);
      span = spans.open("net.frame_decode", id, root);
      decoder.feed(wire);
      auto next = decoder.next();
      spans.close(span);
      if (!next.is_ok() || !next.value().has_value()) {
        throw std::runtime_error("replay: the encoded request did not decode");
      }
      frame = *next.value();
      payload = frame->payload;
      span = spans.open("persist.fingerprint", id, root);
      fingerprint = mel::persist::fingerprint_payload(payload);
      spans.close(span);
    }
    const mel::persist::Fingerprint key = tenant_key(fingerprint, req.tenant);
    std::optional<mel::core::Verdict> cached;
    if (!caches.empty()) {
      const std::int32_t span = spans.open("persist.cache_lookup", id, root);
      cached = caches[req.shard]->lookup(key);
      spans.close(span);
      ++lookups;
    }
    mel::core::Verdict verdict;
    std::uint64_t scan_id = 0;
    if (cached) {
      verdict = *cached;
    } else {
      mel::service::ScanRequest scan;
      scan.payload = payload;
      scan.tenant = req.tenant;
      scan.collect_trace = true;
      scan.scratch = &scratch;
      const std::int32_t scan_span = spans.open("service.scan", id, root);
      auto report = services[req.shard].scan(scan);
      spans.close(scan_span);
      ++scans;
      if (!report.is_ok()) {
        throw std::runtime_error("replay scan failed: " +
                                 report.status().to_string());
      }
      for (const mel::obs::TraceSpan& stage : report.value().trace) {
        spans.add(
            "service.stage." + std::string(mel::obs::stage_name(stage.stage)),
            id, scan_span, stage.start_ns, stage.end_ns);
      }
      verdict = report.value().verdict;
      scan_id = report.value().scan_id;
      if (!caches.empty()) {
        const std::int32_t span = spans.open("persist.cache_insert", id, root);
        caches[req.shard]->insert(key, verdict);
        spans.close(span);
        ++inserts;
      }
    }
    if (verdict.degraded) ++degraded;
    if (setup.wire) {
      if (setup.drift) {
        auto& monitor = drift[req.tenant];
        if (!monitor) {
          monitor =
              std::move(mel::persist::DriftMonitor::create(*setup.drift).take());
        }
        const std::int32_t span = spans.open("persist.drift_observe", id, root);
        monitor->observe(payload);
        spans.close(span);
      }
      std::int32_t span = spans.open("net.encode_verdict", id, root);
      mel::net::WireVerdict wire;
      wire.malicious = verdict.malicious;
      wire.degraded = verdict.degraded;
      wire.is_text = verdict.is_text;
      wire.loop_detected = verdict.loop_detected;
      wire.mel = verdict.mel;
      wire.threshold = verdict.threshold;
      wire.alpha = verdict.alpha;
      wire.scan_id = scan_id;
      const ByteBuffer response = mel::net::encode_verdict(req.tenant, id, wire);
      spans.close(span);
      span = spans.open("net.frame_decode", id, root);
      decoder.release();
      spans.close(span);
    }
    spans.close(root);
  }

  // --- Stage table: self time per request, in path order ------------------
  auto self_us = [&](const std::string& name) {
    return spans.self_ns_per_request(name, n) / 1e3;
  };
  const double cache_us =
      self_us("persist.cache_lookup") + self_us("persist.cache_insert");
  const double gate_us = self_us("service.scan");
  if (setup.wire) {
    result.rows.push_back({"net.frame", self_us("net.encode_request") +
                                            self_us("net.frame_decode") +
                                            self_us("net.encode_verdict")});
    result.rows.push_back({"persist.fingerprint", self_us("persist.fingerprint")});
    result.rows.push_back({"persist.cache", cache_us});
  }
  result.rows.push_back({"service.gate", gate_us});
  result.rows.push_back({"core.estimate", self_us("service.stage.estimate")});
  result.rows.push_back({"exec.decode", self_us("service.stage.decode")});
  result.rows.push_back({"core.detect", self_us("service.stage.detect")});
  result.rows.push_back({"service.verdict", self_us("service.stage.verdict")});
  if (setup.wire) {
    result.rows.push_back({"persist.drift", self_us("persist.drift_observe")});
  }

  // --- Layer calls over the same payloads ---------------------------------
  std::vector<ByteView> small, mid, large;
  for (const ReplayRequest& req : requests) {
    const std::size_t size = req.payload.size();
    (size < 2048 ? small : size < 8192 ? mid : large).push_back(req.payload);
  }
  // Size classes the workload lacks are derived from its own payloads:
  // 1 KiB prefixes, and 32 KiB concatenations of 8 consecutive payloads.
  std::vector<ByteBuffer> joined;
  if (small.empty()) {
    for (const ReplayRequest& req : requests) {
      small.push_back(ByteView(req.payload).first(std::min<std::size_t>(
          1024, req.payload.size())));
    }
  }
  if (large.empty()) {
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      ByteBuffer buffer;
      for (std::size_t k = i; k < i + 8; ++k) {
        buffer.insert(buffer.end(), requests[k].payload.begin(),
                      requests[k].payload.end());
      }
      joined.push_back(std::move(buffer));
    }
    for (const ByteBuffer& buffer : joined) large.push_back(buffer);
  }
  add("exec.mel_ns_per_kb.small", mel_ns_per_kb(small), "ns", small.size());
  add("exec.mel_ns_per_kb.4k", mel_ns_per_kb(mid), "ns", mid.size());
  add("exec.mel_ns_per_kb.large", mel_ns_per_kb(large), "ns", large.size());

  // The offsets the linear sweep visits, then decode/scan over them.
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> walks;
  std::size_t insns = 0;
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ByteView bytes = requests[i].payload;
    std::vector<std::size_t> offsets;
    for (std::size_t off = 0; off < bytes.size();) {
      offsets.push_back(off);
      off += mel::disasm::decode_instruction(bytes, off).length;
    }
    insns += offsets.size();
    total_bytes += bytes.size();
    walks.emplace_back(i, std::move(offsets));
  }
  add("exec.insns_per_kb", static_cast<double>(insns) / kb(total_bytes),
      "count", n);
  std::size_t sink = 0;
  std::int64_t t0 = now_ns();
  for (const auto& [i, offsets] : walks) {
    for (std::size_t off : offsets) {
      sink += mel::disasm::decode_instruction(requests[i].payload, off).length;
    }
  }
  add("disasm.decode_ns_per_insn",
      static_cast<double>(now_ns() - t0) / static_cast<double>(insns), "ns",
      insns);
  t0 = now_ns();
  for (const auto& [i, offsets] : walks) {
    for (std::size_t off : offsets) {
      sink += mel::disasm::scan_instruction(requests[i].payload, off).length;
    }
  }
  add("disasm.scan_ns_per_insn",
      static_cast<double>(now_ns() - t0) / static_cast<double>(insns), "ns",
      insns);

  // The estimate stage as the detector runs it: parameters and tau from
  // the default (web-text) frequency profile.
  const mel::core::MelDetector detector{mel::core::DetectorConfig{}};
  const auto& profile = mel::traffic::web_text_distribution();
  double tau_sink = 0.0;
  t0 = now_ns();
  for (const ReplayRequest& req : requests) {
    tau_sink += mel::core::estimate_parameters(profile, req.payload.size()).n;
    tau_sink += detector.derive_threshold(profile, req.payload.size());
  }
  add("core.estimate_ns_per_kb",
      static_cast<double>(now_ns() - t0) / kb(total_bytes), "ns", n);
  t0 = now_ns();
  for (const ReplayRequest& req : requests) {
    sink += static_cast<std::size_t>(detector.scan(req.payload).mel);
  }
  add("core.detector_scan_ns_per_kb",
      static_cast<double>(now_ns() - t0) / kb(total_bytes), "ns", n);
  add("core.degraded_ratio",
      static_cast<double>(degraded) / static_cast<double>(n), "ratio", n);

  // persist: wire path only.
  const double fingerprint_ns = spans.mean_ns("persist.fingerprint");
  add("persist.fingerprint_ns_per_kb",
      setup.wire ? fingerprint_ns * static_cast<double>(n) / kb(total_bytes)
                 : 0.0,
      "ns", setup.wire ? n : 0);
  add("persist.cache_lookup_ns", spans.mean_ns("persist.cache_lookup"), "ns",
      lookups);
  add("persist.cache_insert_ns", spans.mean_ns("persist.cache_insert"), "ns",
      inserts);
  double drift_1t = 0.0;
  double drift_2t = 0.0;
  if (setup.wire && setup.drift) {
    drift_1t = spans.mean_ns("persist.drift_observe") *
               static_cast<double>(n) / kb(total_bytes);
    auto monitor =
        std::move(mel::persist::DriftMonitor::create(*setup.drift).take());
    std::vector<std::size_t> bytes_per_thread(2, 0);
    const auto wall = run_together(2, [&](std::size_t t) {
      for (std::size_t i = t; i < n; i += 2) {
        monitor->observe(requests[i].payload);
        bytes_per_thread[t] += requests[i].payload.size();
      }
    });
    drift_2t = (static_cast<double>(wall[0]) / kb(bytes_per_thread[0]) +
                static_cast<double>(wall[1]) / kb(bytes_per_thread[1])) /
               2.0;
  }
  add("persist.drift_observe_ns_per_kb", drift_1t, "ns", setup.wire ? n : 0);
  add("persist.drift_observe_2t_ns_per_kb", drift_2t, "ns",
      setup.wire ? n : 0);

  // service
  add("service.scan_ns", spans.mean_ns("service.scan"), "ns", scans);
  for (const char* stage : {"decode", "estimate", "detect", "verdict"}) {
    add(std::string("service.stage.") + stage + "_ns",
        self_us(std::string("service.stage.") + stage) * 1e3, "ns", n);
  }
  add("service.gate_ns", gate_us * 1e3, "ns", n);

  // obs: one counter, and one histogram shared by two threads.
  {
    mel::obs::MetricsRegistry registry;
    const mel::obs::Counter counter =
        registry.counter("perfbench_counter_total", "Benchmark counter.");
    constexpr std::size_t kCalls = 1'000'000;
    t0 = now_ns();
    for (std::size_t i = 0; i < kCalls; ++i) counter.inc();
    add("obs.counter_inc_ns",
        static_cast<double>(now_ns() - t0) / static_cast<double>(kCalls), "ns",
        kCalls);
    const mel::obs::Histogram histogram = registry.histogram(
        "perfbench_latency_ns", "Benchmark histogram.",
        mel::obs::latency_buckets_ns());
    const auto wall = run_together(2, [&](std::size_t t) {
      for (std::size_t i = 0; i < kCalls / 2; ++i) {
        histogram.observe(static_cast<std::int64_t>((i * 7919 + t) % 5'000'000));
      }
    });
    add("obs.histogram_observe_ns",
        static_cast<double>(wall[0] + wall[1]) / static_cast<double>(kCalls),
        "ns", kCalls);
  }

  // net: wire path only.
  add("net.encode_request_ns", spans.mean_ns("net.encode_request"), "ns",
      setup.wire ? n : 0);
  add("net.frame_decode_ns",
      setup.wire ? spans.self_ns_per_request("net.frame_decode", n) : 0.0,
      "ns", setup.wire ? n : 0);
  add("net.encode_verdict_ns", spans.mean_ns("net.encode_verdict"), "ns",
      setup.wire ? n : 0);
  keep(static_cast<double>(sink) + tau_sink);
  return result;
}

}  // namespace perfbench
