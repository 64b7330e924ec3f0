// Reporting helpers of the performance benchmark: the tail-percentile rule,
// open-loop lateness accounting, seeded query streams, and the metric
// printer. Header-only so the self-test binary checks exactly the code the
// benchmark runs.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "trace/types.h"
#include "util/rng.h"
#include "util/sampling.h"

namespace perfbench {

/// Samples a percentile must leave above it before it is reported: a tail
/// estimate resting on fewer samples is noise, not a measurement.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank `p`-percentile (p in (0, 1)) of `values`, or nullopt unless
/// at least kMinSamplesBeyond samples rank strictly above it.
inline std::optional<double> Percentile(std::vector<double> values, double p) {
  if (values.empty() || p <= 0.0 || p >= 1.0) return std::nullopt;
  const size_t n = values.size();
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Open-loop arrivals: operation i is due at start + i * interval whatever
/// happened to earlier ones. Latency runs from the due time — so a stall
/// charges its wait to every operation queued behind it — and lateness
/// (issue - due) says how far behind schedule the generator itself ran.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(double interval_s) : interval_s_(interval_s) {}

  /// Due time of operation `i`, in seconds after the schedule's start.
  double Due(uint64_t i) const { return static_cast<double>(i) * interval_s_; }

  /// Records operation `i`, issued at `issued_s` and done at `done_s`
  /// (seconds after the start). Returns its latency in seconds.
  double Record(uint64_t i, double issued_s, double done_s) {
    const double due = Due(i);
    const double latency = done_s - due;
    latency_s_.push_back(latency);
    late_s_.push_back(std::max(0.0, issued_s - due));
    return latency;
  }

  const std::vector<double>& latency_s() const { return latency_s_; }
  const std::vector<double>& late_s() const { return late_s_; }

 private:
  double interval_s_;
  std::vector<double> latency_s_;
  std::vector<double> late_s_;
};

/// Query entities drawn from a seed: uniform over [0, n), or Zipf(s) ranks
/// mapped through a seeded permutation of [0, n) so the hot set is not
/// simply the lowest ids. With `rotate_every` > 0 the permutation is redrawn
/// after that many queries: the hot set drifts, so one run samples many hot
/// sets instead of resting on the cost of the few entities one seed happens
/// to make hottest. The same arguments always yield the same stream.
class QueryStream {
 public:
  static QueryStream Uniform(uint64_t seed, uint32_t n) {
    return QueryStream(seed, n, 0.0, 0);
  }
  static QueryStream Zipf(uint64_t seed, uint32_t n, double s,
                          uint32_t rotate_every = 0) {
    return QueryStream(seed, n, s, rotate_every);
  }

  dtrace::EntityId Next() {
    if (!zipf_) return static_cast<dtrace::EntityId>(rng_.NextBelow(n_));
    if (rotate_every_ > 0 && drawn_ > 0 && drawn_ % rotate_every_ == 0) {
      Shuffle();
    }
    ++drawn_;
    return perm_[zipf_->Sample(rng_) - 1];
  }

 private:
  QueryStream(uint64_t seed, uint32_t n, double s, uint32_t rotate_every)
      : rng_(seed), n_(n), rotate_every_(rotate_every) {
    if (s <= 0.0) return;
    zipf_.emplace(s, n);
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), dtrace::EntityId{0});
    Shuffle();
  }

  void Shuffle() {
    for (uint32_t i = n_; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng_.NextBelow(i)]);
    }
  }

  dtrace::Rng rng_;
  uint32_t n_;
  uint32_t rotate_every_;
  uint64_t drawn_ = 0;
  std::optional<dtrace::ZipfSampler> zipf_;
  std::vector<dtrace::EntityId> perm_;
};

/// One line with the median and every tail percentile the sample supports.
inline void PrintDistribution(const char* name, const std::vector<double>& v) {
  std::printf("distribution %s n=%zu p50=%.4g", name, v.size(), Median(v));
  for (double p : {0.75, 0.90, 0.95, 0.99, 0.999}) {
    if (const auto x = Percentile(v, p)) std::printf(" p%g=%.4g", p * 100, *x);
  }
  std::printf("\n");
}

/// Collects named metrics with their unit and sample count, prints one
/// human-readable line per metric, and renders the result line the
/// benchmark ends with.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics_[name] = {value, unit, samples};
  }

  void PrintLines() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-28s %14.6g %-8s (n=%llu)\n", name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }

  /// The metrics section of the result line, restricted to `names` (in
  /// that order). Every name must have been added.
  std::string Json(const std::vector<std::string>& names) const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < names.size(); ++i) {
      const Metric& m = metrics_.at(names[i]);
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += (i ? ", \"" : "\"") + names[i] + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::map<std::string, Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
