#pragma once
// Shared plumbing for the benchmark program: clock, order statistics, the
// flat key/value parameter table the runner passes in, and the metric
// sink every workload reports into.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Latency order statistics in memory fixed before a pass starts: the
/// p50 and p99 of each run of `window` consecutive samples, reported as
/// the median over the runs, so one stall of a shared machine moves one
/// window rather than the figure. A pass shorter than one window reports
/// its samples' own quantiles; otherwise a trailing part-window is left
/// out of the quantiles (not of the mean).
class WindowedLatency {
 public:
  explicit WindowedLatency(std::size_t window) : window_(window) {
    current_.reserve(window);
    p50s_.reserve(4096);
    p99s_.reserve(4096);
  }
  void add(double value) {
    sum_ += value;
    ++count_;
    current_.push_back(value);
    if (current_.size() == window_) {
      p50s_.push_back(quantile(current_, 0.50));
      p99s_.push_back(quantile(current_, 0.99));
      current_.clear();
    }
  }
  [[nodiscard]] double p50() const { return median_of(p50s_, 0.50); }
  [[nodiscard]] double p99() const { return median_of(p99s_, 0.99); }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  [[nodiscard]] double median_of(std::vector<double> per_window,
                                 double q) const {
    if (per_window.empty()) {
      std::vector<double> tail = current_;
      return quantile(tail, q);
    }
    return quantile(per_window, 0.5);
  }
  std::size_t window_;
  std::vector<double> current_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The benchmark's parameters (perfbench/spec.json "params", flattened by
/// the runner into --key value pairs).
class Params {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(get(key));
  }
  [[nodiscard]] std::size_t count(const std::string& key) const {
    return static_cast<std::size_t>(std::stoull(get(key)));
  }
  /// Comma-separated list of numbers.
  [[nodiscard]] std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    std::string item;
    for (char c : get(key) + ",") {
      if (c == ',') {
        if (!item.empty()) out.push_back(std::stod(item));
        item.clear();
      } else {
        item.push_back(c);
      }
    }
    return out;
  }

 private:
  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing parameter --" + key);
    }
    return it->second;
  }
  std::map<std::string, std::string> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< Observations behind the value (0: a count).
};

/// Metrics in report order, plus the run's verdict bookkeeping.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< Any entry fails the run.

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string why) { problems.push_back(std::move(why)); }
};

}  // namespace perfbench
