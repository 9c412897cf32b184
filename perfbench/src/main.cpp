// libmel benchmark program.
//
//   melbench --workload <gateway_repeat|batch_offline>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//            --<param> <value>...   (perfbench/spec.json "params")
//
// --trace 0 times the workload and prints the end-to-end metrics;
// --trace 1 runs it again untraced and traced, replays its payload
// sequence through each layer's public calls and prints the per-layer
// metrics with the stage table. Either way every verdict is gated: a
// sampled bit-identity check against an in-process ScanService, no failed
// or refused request, a benign alarm ratio under its ceiling, and the
// invalid-run guards (degraded verdicts, condemned shards, brownout,
// drift recalibration). The last stdout line is the JSON result; exit
// status 1 means a check failed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "mel/net/server.hpp"
#include "mel/service/batch_scan_service.hpp"
#include "mel/service/scan_service.hpp"
#include "mel/util/logging.hpp"
#include "mel/util/rng.hpp"
#include "replay.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  Params params;
};

// Request-id ranges: warm-up and traced passes never reuse timed ids.
constexpr std::uint64_t kTimedIds = 1;
constexpr std::uint64_t kWarmupIds = std::uint64_t{1} << 44;
constexpr std::uint64_t kTracedIds = std::uint64_t{1} << 45;

/// CPU time and context switches of every thread but the calling one
/// (the generator, which spins): the program's own cost.
struct Usage {
  double cpu_us = 0.0;
  double ctx_switches = 0.0;
  static Usage now() {
    ::rusage self{};
    ::rusage caller{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_THREAD, &caller);
    auto cpu = [](const ::rusage& u) {
      return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
    };
    auto switches = [](const ::rusage& u) {
      return static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
    };
    return {cpu(self) - cpu(caller), switches(self) - switches(caller)};
  }
};

/// Restricts the calling thread to the online CPUs in [first, last).
void pin_to_cpus(int first, int last) {
  const int online = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  if (online < 2) return;
  ::cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu < std::min(last, online); ++cpu) CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  ::rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-for-bit agreement between a served verdict and a direct
/// in-process scan (the fields bench_server_throughput checks).
bool wire_matches_direct(const mel::net::WireVerdict& wire,
                         const mel::core::Verdict& direct) {
  return wire.malicious == direct.malicious &&
         wire.degraded == direct.degraded && wire.is_text == direct.is_text &&
         wire.loop_detected == direct.loop_detected &&
         wire.mel == direct.mel && same_bits(wire.threshold, direct.threshold) &&
         same_bits(wire.alpha, direct.alpha);
}

bool verdicts_match(const mel::core::Verdict& a, const mel::core::Verdict& b) {
  return a.malicious == b.malicious && a.degraded == b.degraded &&
         a.is_text == b.is_text && a.loop_detected == b.loop_detected &&
         a.mel == b.mel && same_bits(a.threshold, b.threshold) &&
         same_bits(a.alpha, b.alpha);
}

/// Alarm and failure tallies over every verdict a run received.
struct Tally {
  /// `payloads` distinct payloads can be sent; count() names which one.
  explicit Tally(std::size_t payloads) : benign_seen(payloads, 0) {}

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t benign = 0;
  std::uint64_t benign_alarms = 0;
  std::uint64_t worms = 0;
  std::uint64_t worm_alarms = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  /// Per distinct benign payload: 1 once sent, 3 once it alarmed.
  std::vector<std::uint8_t> benign_seen;

  void count(bool ok, bool worm, bool malicious, bool is_degraded,
             std::size_t payload) {
    ++attempted;
    if (!ok) {
      ++failed;
      return;
    }
    if (is_degraded) ++degraded;
    if (worm) {
      ++worms;
      if (malicious) ++worm_alarms;
    } else {
      ++benign;
      if (malicious) ++benign_alarms;
      benign_seen[payload] |= malicious ? 3 : 1;
    }
  }
  [[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den) const {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
  /// Alarmed share of the distinct benign payloads sent: the paper's
  /// false-positive rate over a corpus. Unlike benign_alarm_ratio it does
  /// not depend on how often a Zipf draw repeats one document.
  [[nodiscard]] double distinct_benign_alarm_ratio() const {
    std::uint64_t sent = 0;
    std::uint64_t alarmed = 0;
    for (const std::uint8_t seen : benign_seen) {
      sent += seen != 0;
      alarmed += seen == 3;
    }
    return ratio(alarmed, sent);
  }
  /// Folds the gate outcome into the report. No request may fail (the
  /// workloads stay inside every limit of the deployment), and the
  /// distinct benign alarm ratio may not pass `benign_ceiling`: both are
  /// absolute checks, since neither ratio can be bounded as a share of a
  /// parent's median.
  void settle(Report& report, double benign_ceiling) const {
    report.attempted += attempted;
    report.failed += failed;
    if (failed > 0) {
      report.fail(std::to_string(failed) + " of " + std::to_string(attempted) +
                  " requests failed or were refused");
    }
    const double benign_ratio = distinct_benign_alarm_ratio();
    if (benign_ratio > benign_ceiling) {
      report.fail("benign alarm ratio over distinct payloads " +
                  std::to_string(benign_ratio) + " exceeds the ceiling " +
                  std::to_string(benign_ceiling));
    }
    if (degraded > 0) {
      report.fail(std::to_string(degraded) + " degraded verdict(s)");
    }
    if (mismatched > 0) {
      report.fail(std::to_string(mismatched) + " of " +
                  std::to_string(checked) +
                  " checked verdicts differ from the in-process scan");
    }
    if (checked == 0) report.fail("no verdict was checked");
  }
};

/// The end-to-end metrics of a timed run, in BENCHMARK.json order.
struct EndToEnd {
  double scan_rps = 0.0;
  double scan_mb_s = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

void add_end_to_end(const Run& run, const EndToEnd& e2e, double setup_s,
                    const Tally& tally, double benign_ceiling,
                    Report& report) {
  report.add("scan_rps", e2e.scan_rps, "req/s", e2e.samples);
  report.add("scan_mb_s", e2e.scan_mb_s, "MB/s", e2e.samples);
  report.add("latency_p50_us", e2e.p50, "us", e2e.samples);
  report.add("latency_p99_us", e2e.p99, "us", e2e.samples);
  report.add("worm_alarm_ratio", tally.ratio(tally.worm_alarms, tally.worms),
             "ratio", tally.worms);
  report.add("setup_s", setup_s, "s", run.params.count("setup_repeats"));
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("failed_ratio %.6f  benign_alarm_ratio %.6f (distinct "
              "payloads %.6f)  (%llu benign, %llu worms, %llu verdicts "
              "checked)\n",
              tally.ratio(tally.failed, tally.attempted),
              tally.ratio(tally.benign_alarms, tally.benign),
              tally.distinct_benign_alarm_ratio(),
              static_cast<unsigned long long>(tally.benign),
              static_cast<unsigned long long>(tally.worms),
              static_cast<unsigned long long>(tally.checked));
  tally.settle(report, benign_ceiling);
}

void add_ratios(Report& report, const Tally& tally) {
  report.add("failed_ratio", tally.ratio(tally.failed, tally.attempted),
             "ratio", tally.attempted);
  report.add("benign_alarm_ratio",
             tally.ratio(tally.benign_alarms, tally.benign), "ratio",
             tally.benign);
}

void add_replay(Report& report, const ReplayResult& replayed,
                const Run& run) {
  for (const Metric& metric : replayed.metrics) report.metrics.push_back(metric);
  if (!run.trace_out.empty() && !replayed.spans.write_csv(run.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", run.trace_out.c_str());
  }
}

/// Prints the stage table (rows plus the remainder, summing to the
/// total) and reports the remainder as net.unattributed_us.
void add_stage_total(Report& report, const ReplayResult& replayed,
                     double total_us, double overhead, const char* total_name) {
  std::printf("\nstage table (self time per request, us)\n");
  double rows = 0.0;
  for (const StageRow& row : replayed.rows) {
    std::printf("  %-22s %10.2f\n", row.name.c_str(), row.us);
    rows += row.us;
  }
  std::printf("  %-22s %10.2f   (remainder: total - rows)\n",
              "net.unattributed", total_us - rows);
  std::printf("  %-22s %10.2f   (%s, tracing off)\n", "= total", total_us,
              total_name);
  std::printf("  trace.overhead_ratio   %10.4f\n", overhead);
  report.add("net.unattributed_us", total_us - rows, "us");
}

// --- Gateway (wire) workload ----------------------------------------------

struct WireStack {
  mel::net::ServerConfig config;
  std::unique_ptr<mel::net::MelServer> server;
  std::unique_ptr<WireClient> client;
  std::unique_ptr<GatewayTraffic> traffic;
};

/// What a wire pass keeps of its requests. Its memory is fixed before the
/// pass starts (one latency window, a seeded reservoir of check_sample
/// verdicts for the bit-identity check, the first replay_requests
/// requests), so the process's peak RSS does not grow with the number of
/// requests a pass completes. A traced pass also keeps every request, for
/// its client-side spans.
struct WireRecorder final : SlotSink {
  WireRecorder(const Run& run, const GatewayTraffic& traffic,
               std::uint64_t first_id, bool keep_all, Tally& tally)
      : traffic(traffic),
        tally(tally),
        first_id(first_id),
        keep_all(keep_all),
        sample_size(run.params.count("check_sample")),
        first_size(run.params.count("replay_requests")),
        rng(mix(run.seed, 0x636865636b ^ first_id)),
        latency(run.params.count("p99_window")) {
    sample.reserve(sample_size);
    first.reserve(first_size);
  }

  void done(const Slot& slot) override {
    const bool ok = slot.state == Slot::State::kOk;
    tally.count(ok, traffic.worm(slot.draw), slot.verdict.malicious,
                slot.verdict.degraded, slot.draw.item);
    if (slot.id - first_id < first_size) first.push_back(slot);
    if (keep_all) all.push_back(slot);
    if (!ok) return;
    latency.add(slot.latency_us());
    bytes += static_cast<double>(traffic.size(slot.draw));
    // Reservoir sampling: every verdict is equally likely to be checked.
    ++verdicts;
    if (sample.size() < sample_size) {
      sample.push_back(slot);
    } else if (const std::uint64_t k = rng.next_below(verdicts);
               k < sample_size) {
      sample[k] = slot;
    }
  }

  const GatewayTraffic& traffic;
  Tally& tally;
  const std::uint64_t first_id;
  const bool keep_all;
  const std::size_t sample_size;
  const std::size_t first_size;
  mel::util::Xoshiro256 rng;
  std::uint64_t verdicts = 0;
  WindowedLatency latency;  ///< Successful requests, from send.
  double bytes = 0.0;       ///< Payload bytes of successful requests.
  std::vector<Slot> sample;
  std::vector<Slot> first;  ///< Ids first_id .. first_id + first_size.
  std::vector<Slot> all;    ///< Every request (keep_all only).
};

/// Discards what a pass returns (warm-up).
struct DiscardSink final : SlotSink {
  void done(const Slot&) override {}
};

/// Corpus generation, server start, connections and warm-up, repeated
/// `setup_repeats` times; the last stack serves the run. Returns the
/// median set-up time in seconds.
double set_up_wire(const Run& run, WireStack& stack) {
  std::vector<double> times;
  const std::size_t repeats = run.params.count("setup_repeats");
  for (std::size_t r = 0; r < repeats; ++r) {
    stack = WireStack{};  // Client first, then server: drained on reset.
    const std::int64_t t0 = now_ns();
    stack.traffic = std::make_unique<GatewayTraffic>(
        GatewayTraffic::make(run.seed, run.params));
    stack.config = make_server_config(run.params);
    // The server's threads inherit the CPUs of the thread that starts
    // them: they get every CPU but the first, which the spinning
    // generator keeps to itself.
    pin_to_cpus(1, CPU_SETSIZE);
    auto server = mel::net::MelServer::start(stack.config);
    pin_to_cpus(0, 1);
    if (!server.is_ok()) {
      throw std::runtime_error("server start: " + server.status().to_string());
    }
    stack.server = std::move(server).take();
    stack.client = WireClient::connect(stack.server->port(),
                                       run.params.count("connections"));
    DiscardSink discard;
    const PhaseResult warm = stack.client->run_closed(
        *stack.traffic, kWarmupIds, run.params.count("outstanding"), 60.0,
        run.params.count("warmup_requests"), false, discard);
    if (!warm.transport_error.empty()) {
      throw std::runtime_error("warm-up: " + warm.transport_error);
    }
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return quantile(times, 0.5);
}

/// Checks each recorder's sampled verdicts against an in-process
/// ScanService built from the same service config.
void check_wire(const WireStack& stack,
                const std::vector<const WireRecorder*>& recorders,
                Tally& tally) {
  auto reference =
      std::move(mel::service::ScanService::create(stack.config.service).take());
  mel::util::ByteBuffer payload;
  for (const WireRecorder* recorder : recorders) {
    for (const Slot& slot : recorder->sample) {
      stack.traffic->render(slot.draw, payload);
      mel::service::ScanRequest request;
      request.payload = payload;
      request.tenant = slot.draw.tenant;
      const auto direct = reference.scan(request);
      ++tally.checked;
      if (!direct.is_ok() ||
          !wire_matches_direct(slot.verdict, direct.value().verdict)) {
        ++tally.mismatched;
      }
    }
  }
}

std::vector<mel::service::TenantId> tenant_ids(
    const mel::net::ServerConfig& config) {
  std::vector<mel::service::TenantId> ids = {mel::service::kDefaultTenant};
  for (const auto& tenant : config.service.tenants) ids.push_back(tenant.id);
  return ids;
}

/// Condemned shards, brownout and drift recalibration each mean the run
/// measured a different program state.
void guard_server(const WireStack& stack, Report& report) {
  const mel::net::ServerStats stats = stack.server->stats();
  if (stats.shards_condemned > 0) {
    report.fail(std::to_string(stats.shards_condemned) + " shard(s) condemned");
  }
  const auto* supervisor = stack.server->supervisor();
  if (supervisor->brownout().escalations() > 0 || stats.scans_screened > 0) {
    report.fail("the brownout ladder engaged");
  }
  for (const auto tenant : tenant_ids(stack.config)) {
    const auto monitor = stack.server->drift_monitor(tenant);
    if (monitor && monitor->drifts_detected() > 0) {
      report.fail("drift recalibrated tenant " + std::to_string(tenant));
    }
  }
}

/// Per-shard live scan time (sum/count of mel_scan_latency_ns) and cache
/// lookups.
struct LiveScan {
  double sum_ns = 0.0;
  double count = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  static LiveScan read(const mel::net::MelServer& server) {
    LiveScan live;
    for (std::size_t s = 0; s < server.shard_count(); ++s) {
      const auto& service = server.shard_service(s);
      for (const auto& h : service.metrics_snapshot().histograms) {
        if (h.name == "mel_scan_latency_ns") {
          live.sum_ns += static_cast<double>(h.sum);
          live.count += static_cast<double>(h.count);
        }
      }
      if (const auto& cache = service.config().verdict_cache) {
        live.hits += static_cast<double>(cache->hits());
        live.misses += static_cast<double>(cache->misses());
      }
    }
    return live;
  }
  [[nodiscard]] double hit_ratio_since(const LiveScan& before) const {
    const double lookups = hits + misses - before.hits - before.misses;
    return lookups > 0 ? (hits - before.hits) / lookups : 0.0;
  }
};

std::vector<ReplayRequest> replay_requests(const WireStack& stack,
                                           std::vector<Slot> first) {
  std::sort(first.begin(), first.end(),
            [](const Slot& a, const Slot& b) { return a.id < b.id; });
  std::vector<ReplayRequest> requests;
  for (const Slot& slot : first) {
    ReplayRequest req;
    req.id = slot.id;
    stack.traffic->render(slot.draw, req.payload);
    req.tenant = slot.draw.tenant;
    req.shard = slot.conn % stack.server->shard_count();
    requests.push_back(std::move(req));
  }
  return requests;
}

void add_live_wire_metrics(Report& report, const WireStack& stack,
                           const PhaseResult& untraced,
                           const WireRecorder& traced, double overhead,
                           const LiveScan& before, const LiveScan& after,
                           const Usage& u0, const Usage& u1,
                           std::uint64_t requests) {
  const double wall_ns =
      static_cast<double>(untraced.end_ns - untraced.start_ns);
  const double scans = after.count - before.count;
  report.add("service.live_scan_ns",
             scans > 0 ? (after.sum_ns - before.sum_ns) / scans : 0.0, "ns",
             static_cast<std::size_t>(scans));
  report.add("service.batch_busy_ratio",
             (after.sum_ns - before.sum_ns) /
                 (wall_ns * static_cast<double>(stack.server->shard_count())),
             "ratio", static_cast<std::size_t>(scans));
  report.add("persist.cache_hit_ratio", after.hit_ratio_since(before), "ratio",
             static_cast<std::size_t>(scans));
  std::vector<double> send_us, wait_us, inflight;
  for (const Slot& slot : traced.all) {
    inflight.push_back(slot.outstanding);
    if (slot.state != Slot::State::kOk || slot.written_ns == 0) continue;
    send_us.push_back(static_cast<double>(slot.written_ns - slot.sent_ns) / 1e3);
    wait_us.push_back(static_cast<double>(slot.done_ns - slot.written_ns) / 1e3);
  }
  report.add("net.client_send_us", mean(send_us), "us", send_us.size());
  report.add("net.client_wait_us", mean(wait_us), "us", wait_us.size());
  report.add("net.inflight_p99", quantile(inflight, 0.99), "count",
             inflight.size());
  const mel::net::ServerStats stats = stack.server->stats();
  report.add("super.stalls",
             static_cast<double>(stack.server->supervisor()->stalls_detected()),
             "count");
  report.add("super.condemned", static_cast<double>(stats.shards_condemned),
             "count");
  const double n = static_cast<double>(requests);
  report.add("proc.cpu_us_per_req", (u1.cpu_us - u0.cpu_us) / n, "us",
             requests);
  report.add("proc.ctx_switches_per_req", (u1.ctx_switches - u0.ctx_switches) / n,
             "count", requests);
  report.add("trace.overhead_ratio", overhead, "ratio", traced.all.size());
}

void run_gateway(const Run& run, Report& report) {
  WireStack stack;
  const double setup_s = set_up_wire(run, stack);
  const std::size_t outstanding = run.params.count("outstanding");
  constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();
  Tally tally(stack.traffic->pool_size());
  auto pass = [&](WireRecorder& recorder, double seconds, bool traced) {
    PhaseResult phase =
        stack.client->run_closed(*stack.traffic, recorder.first_id,
                                 outstanding, seconds, kNoCap, traced, recorder);
    if (!phase.transport_error.empty()) {
      report.fail("transport: " + phase.transport_error);
    }
    return phase;
  };

  if (!run.trace) {
    WireRecorder timed(run, *stack.traffic, kTimedIds, false, tally);
    const LiveScan before = LiveScan::read(*stack.server);
    const PhaseResult phase = pass(timed, run.seconds, false);
    const LiveScan after = LiveScan::read(*stack.server);
    const double wall = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
    std::printf("closed loop: %zu connections x %zu outstanding, %.2fs, "
                "cache hit ratio %.3f\n",
                stack.client->connections(), outstanding, wall,
                after.hit_ratio_since(before));
    check_wire(stack, {&timed}, tally);
    guard_server(stack, report);
    const double ok = static_cast<double>(timed.latency.count());
    add_end_to_end(run,
                   {ok / wall, timed.bytes / wall / 1e6, timed.latency.p50(),
                    timed.latency.p99(), timed.latency.count()},
                   setup_s, tally, run.params.num("benign_alarm_ceiling"),
                   report);
    return;
  }

  // Traced run: untraced pass, traced pass, then the layer replay.
  WireRecorder untraced(run, *stack.traffic, kTimedIds, false, tally);
  WireRecorder traced(run, *stack.traffic, kTracedIds, true, tally);
  const LiveScan before = LiveScan::read(*stack.server);
  const Usage u0 = Usage::now();
  const PhaseResult untraced_phase = pass(untraced, run.seconds / 2, false);
  const Usage u1 = Usage::now();
  const LiveScan after = LiveScan::read(*stack.server);
  pass(traced, run.seconds / 2, true);
  check_wire(stack, {&untraced, &traced}, tally);
  guard_server(stack, report);
  const double p50_untraced = untraced.latency.p50();
  const double overhead = traced.latency.p50() / p50_untraced - 1.0;
  add_live_wire_metrics(report, stack, untraced_phase, traced, overhead,
                        before, after, u0, u1, untraced_phase.issued);
  add_ratios(report, tally);

  const mel::net::ServerStats stats = stack.server->stats();
  std::printf("server: %llu frames, %llu scans ok, %llu rejected, %llu "
              "supervisor ticks",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.scans_ok),
              static_cast<unsigned long long>(stats.scans_rejected),
              static_cast<unsigned long long>(stack.server->supervisor()->ticks()));
  for (const auto tenant : tenant_ids(stack.config)) {
    std::printf(", tenant %u drift windows %llu",
                static_cast<unsigned>(tenant),
                static_cast<unsigned long long>(
                    stack.server->drift_monitor(tenant)->windows_checked()));
  }
  std::printf("\n");

  // The replay's two-thread probes need more than the generator's CPU.
  pin_to_cpus(0, CPU_SETSIZE);
  ReplaySetup setup;
  setup.wire = true;
  setup.service = stack.config.service;
  setup.shards = stack.server->shard_count();
  setup.cache_capacity = stack.config.cache_capacity;
  setup.drift = stack.config.drift;
  ReplayResult replayed =
      replay(replay_requests(stack, std::move(untraced.first)), setup);
  for (const Slot& slot : traced.all) {
    if (slot.written_ns == 0 || slot.state != Slot::State::kOk) continue;
    replayed.spans.add("net.client_send", slot.id, -1, slot.sent_ns,
                       slot.written_ns);
    replayed.spans.add("net.client_wait", slot.id, -1, slot.written_ns,
                       slot.done_ns);
  }
  add_replay(report, replayed, run);
  add_stage_total(report, replayed, p50_untraced, overhead, "end-to-end p50");
  tally.settle(report, run.params.num("benign_alarm_ceiling"));
}

// --- Offline batch --------------------------------------------------------

struct BatchStack {
  std::vector<Item> corpus;
  std::unique_ptr<mel::service::BatchScanService> service;
};

double set_up_batch(const Run& run, BatchStack& stack) {
  std::vector<double> times;
  for (std::size_t r = 0; r < run.params.count("setup_repeats"); ++r) {
    stack = BatchStack{};
    const std::int64_t t0 = now_ns();
    stack.corpus = make_batch_corpus(run.seed, run.params);
    mel::service::BatchConfig config;
    config.workers = run.params.count("batch_workers");
    auto service = mel::service::BatchScanService::create(config);
    if (!service.is_ok()) {
      throw std::runtime_error("batch service: " + service.status().to_string());
    }
    stack.service = std::make_unique<mel::service::BatchScanService>(
        std::move(service).take());
    std::vector<mel::util::ByteView> warm;
    for (std::size_t i = 0; i < run.params.count("batch_size"); ++i) {
      warm.push_back(stack.corpus[i % stack.corpus.size()].bytes);
    }
    if (!stack.service->scan_batch(warm).is_ok()) {
      throw std::runtime_error("batch warm-up failed");
    }
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return quantile(times, 0.5);
}

struct BatchPass {
  explicit BatchPass(std::size_t window) : latency_us(window) {}
  WindowedLatency latency_us;  ///< ScanReport::elapsed of each item.
  /// (first item sequence number, start, end) per scan_batch call.
  std::vector<std::tuple<std::uint64_t, std::int64_t, std::int64_t>>
      batch_spans;
  double busy_ns = 0.0;
  double bytes = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Batches of batch_size items, cycling through the corpus from item 0,
/// for `seconds`. Verdicts of the first pass over the corpus land in
/// `first_pass` for the bit-identity check.
BatchPass run_batches(const Run& run, const BatchStack& stack, double seconds,
                      bool traced, Tally& tally,
                      std::vector<mel::core::Verdict>* first_pass) {
  const std::size_t batch = run.params.count("batch_size");
  BatchPass pass(run.params.count("p99_window"));
  pass.start_ns = now_ns();
  const std::int64_t stop = pass.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t next = 0;
  std::vector<mel::util::ByteView> views;
  while (now_ns() < stop) {
    views.clear();
    const std::size_t first = next;
    for (std::size_t k = 0; k < batch; ++k, ++next) {
      views.push_back(stack.corpus[next % stack.corpus.size()].bytes);
    }
    const std::int64_t t0 = now_ns();
    auto result = stack.service->scan_batch(views);
    if (traced) pass.batch_spans.emplace_back(first, t0, now_ns());
    if (!result.is_ok()) {
      tally.attempted += batch;
      tally.failed += batch;
      continue;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t index = first + k;
      const Item& item = stack.corpus[index % stack.corpus.size()];
      const auto& slot = result.value().items[k];
      const bool ok = slot.is_ok();
      tally.count(ok, item.worm, ok && slot.report.verdict.malicious,
                  ok && slot.report.verdict.degraded,
                  index % stack.corpus.size());
      if (!ok) continue;
      pass.bytes += static_cast<double>(item.bytes.size());
      const double ns = static_cast<double>(slot.report.elapsed.count());
      pass.busy_ns += ns;
      pass.latency_us.add(ns / 1e3);
      if (first_pass != nullptr && index < stack.corpus.size()) {
        (*first_pass)[index] = slot.report.verdict;
      }
    }
  }
  pass.end_ns = now_ns();
  return pass;
}

void check_batch(const Run& run, const BatchStack& stack,
                 const std::vector<mel::core::Verdict>& first_pass,
                 std::size_t scanned, Tally& tally) {
  auto reference =
      std::move(mel::service::ScanService::create(mel::service::ServiceConfig{})
                    .take());
  const std::size_t n = std::min(scanned, stack.corpus.size());
  const std::size_t stride =
      std::max<std::size_t>(1, n / run.params.count("check_sample"));
  for (std::size_t i = mix(run.seed, 0x636865636b) % stride; i < n; i += stride) {
    mel::service::ScanRequest request;
    request.payload = stack.corpus[i].bytes;
    const auto direct = reference.scan(request);
    ++tally.checked;
    if (!direct.is_ok() || !verdicts_match(first_pass[i], direct.value().verdict)) {
      ++tally.mismatched;
    }
  }
}

void run_batch(const Run& run, Report& report) {
  BatchStack stack;
  const double setup_s = set_up_batch(run, stack);
  const double workers = static_cast<double>(stack.service->worker_count());
  Tally tally(stack.corpus.size());
  std::vector<mel::core::Verdict> first_pass(stack.corpus.size());

  if (!run.trace) {
    const BatchPass pass =
        run_batches(run, stack, run.seconds, false, tally, &first_pass);
    check_batch(run, stack, first_pass, tally.attempted, tally);
    const double wall = static_cast<double>(pass.end_ns - pass.start_ns) / 1e9;
    const std::size_t items = pass.latency_us.count();
    std::printf("batches of %zu on %.0f workers: %.2fs, busy ratio %.3f\n",
                run.params.count("batch_size"), workers, wall,
                pass.busy_ns / (wall * 1e9 * workers));
    add_end_to_end(run,
                   {static_cast<double>(items) / wall, pass.bytes / wall / 1e6,
                    pass.latency_us.p50(), pass.latency_us.p99(), items},
                   setup_s, tally, run.params.num("batch_benign_alarm_ceiling"),
                   report);
    return;
  }

  const Usage u0 = Usage::now();
  const BatchPass untraced =
      run_batches(run, stack, run.seconds / 2, false, tally, &first_pass);
  const Usage u1 = Usage::now();
  check_batch(run, stack, first_pass, tally.attempted, tally);
  const BatchPass traced =
      run_batches(run, stack, run.seconds / 2, true, tally, nullptr);
  const double wall_ns = static_cast<double>(untraced.end_ns - untraced.start_ns);
  const std::size_t items = untraced.latency_us.count();
  // Item sizes spread over two decades, so the stage table (per-request
  // means) is set against the mean item latency rather than the p50.
  const double mean_untraced = untraced.latency_us.mean();
  const double overhead = traced.latency_us.mean() / mean_untraced - 1.0;
  report.add("service.live_scan_ns",
             items > 0 ? untraced.busy_ns / static_cast<double>(items) : 0.0,
             "ns", items);
  report.add("service.batch_busy_ratio", untraced.busy_ns / (wall_ns * workers),
             "ratio", items);
  report.add("persist.cache_hit_ratio", 0.0, "ratio");
  report.add("net.client_send_us", 0.0, "us");
  report.add("net.client_wait_us", 0.0, "us");
  report.add("net.inflight_p99", 0.0, "count");
  report.add("super.stalls", 0.0, "count");
  report.add("super.condemned", 0.0, "count");
  report.add("proc.cpu_us_per_req",
             (u1.cpu_us - u0.cpu_us) / static_cast<double>(items), "us", items);
  report.add("proc.ctx_switches_per_req",
             (u1.ctx_switches - u0.ctx_switches) / static_cast<double>(items),
             "count", items);
  report.add("trace.overhead_ratio", overhead, "ratio",
             traced.latency_us.count());
  add_ratios(report, tally);

  // The whole corpus once, in order: the population the passes cycle.
  std::vector<ReplayRequest> requests;
  for (std::size_t i = 0; i < stack.corpus.size(); ++i) {
    requests.push_back(
        {i, stack.corpus[i].bytes, mel::service::kDefaultTenant, 0});
  }
  ReplaySetup setup;
  setup.wire = false;
  ReplayResult replayed = replay(requests, setup);
  for (const auto& [first_item, start, end] : traced.batch_spans) {
    replayed.spans.add("service.scan_batch", first_item, -1, start, end);
  }
  add_replay(report, replayed, run);
  add_stage_total(report, replayed, mean_untraced, overhead,
                  "mean item latency");
  tally.settle(report, run.params.num("batch_benign_alarm_ceiling"));
}

void print_result(const Report& report) {
  std::printf("\n%-36s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %16.6g %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& problem : report.problems) {
    std::printf("INVALID RUN: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", key.c_str());
      return 2;
    }
    if (key == "--workload") {
      run.workload = value;
    } else if (key == "--seed") {
      run.seed = std::stoull(value);
    } else if (key == "--seconds") {
      run.seconds = std::stod(value);
    } else if (key == "--trace") {
      run.trace = value == "1";
    } else if (key == "--trace-out") {
      run.trace_out = value;
    } else {
      run.params.set(key.substr(2), value);
    }
  }
  mel::util::set_log_threshold(mel::util::LogLevel::kError);
  Report report;
  try {
    if (run.workload == "gateway_repeat") {
      run_gateway(run, report);
    } else if (run.workload == "batch_offline") {
      run_batch(run, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", run.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark error: %s\n", error.what());
    return 2;
  }
  if (report.attempted == 0) report.fail("no request was attempted");
  print_result(report);
  return report.problems.empty() ? 0 : 1;
}
