// Helpers of the end-to-end benchmark that do not depend on hcham: seeded
// input draws, order statistics, the open-loop arrival schedule and its
// due-time accounting, an in-memory span recorder with Chrome-trace export,
// the peak-RSS reader and the result line. test_harness.cpp covers them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace hbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64. The benchmark draws its inputs with its own generator so
/// that they stay the same when the library's generators change.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Exponential with the given rate (mean 1 / rate).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// 1-based nearest rank of quantile q in a sample of size n. The slack
/// keeps q * n that lands on an integer from rounding up past it.
inline double nearest_rank(double q, std::size_t n) {
  return std::ceil(q * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank quantile: the smallest sample with at least a share q of
/// the samples at or below it. Infinite samples (failed requests) sort last.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = nearest_rank(q, v.size());
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// The highest of the usual reporting percentiles that leaves at least ten
/// samples beyond it in a sample of size n; 0 when even the median does not.
inline double highest_supported_percentile(std::size_t n) {
  static constexpr double kPercentiles[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kPercentiles) {
    if (static_cast<double>(n) - nearest_rank(p / 100.0, n) >= 10.0) return p;
  }
  return 0.0;
}

/// Due times (seconds from the start of the loop) of `count` Poisson
/// arrivals at `rate` per second, drawn from `seed`.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            std::size_t count) {
  SeedRng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += rng.exponential(rate);
    d = t;
  }
  return due;
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and the service's own submit-to-reply time.
struct OpenLoopSample {
  double due_s = 0.0;
  double sent_s = 0.0;
  double service_s = 0.0;
  bool ok = false;
};

/// How late the generator sent the request.
inline double lateness_s(const OpenLoopSample& s) {
  return std::max(0.0, s.sent_s - s.due_s);
}

/// Latency counted from the due time, so a stall that delays the
/// generator is charged to every request it delays. A failed request
/// misses every latency limit.
inline double latency_from_due_s(const OpenLoopSample& s) {
  if (!s.ok) return std::numeric_limits<double>::infinity();
  return lateness_s(s) + s.service_s;
}

/// Length of the union of the intervals, clipped to [lo, hi].
inline double union_length(std::vector<std::pair<double, double>> iv,
                           double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// A span at a layer boundary. Spans of one repetition share `rep`.
struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int rep = -1;
  int tid = 0;  ///< 0: the benchmark thread; 1 + w: engine worker w
  double start_s = 0.0;  ///< since the recorder was created
  double end_s = 0.0;
};

/// Keeps spans in memory and writes them once as a Chrome trace. When
/// disabled it records nothing and every call is a no-op.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double now_s() const { return seconds_since(t0_); }

  int open(std::string name, int parent, int rep) {
    if (!enabled_) return -1;
    const double t = now_s();
    return add(Span{std::move(name), parent, rep, 0, t, t});
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now_s();
  }
  int add(Span s) {
    if (!enabled_) return -1;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time: the span's duration minus the part of it that its
  /// children cover.
  double self_s(int id) const {
    const Span& s = span(id);
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_)
      if (c.parent == id) kids.emplace_back(c.start_s, c.end_s);
    return (s.end_s - s.start_s) - union_length(std::move(kids), s.start_s,
                                                s.end_s);
  }

  bool write_chrome(const std::string& path) const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& c : spans_)
      if (c.parent >= 0)
        kids[static_cast<std::size_t>(c.parent)].emplace_back(c.start_s,
                                                              c.end_s);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self =
          (s.end_s - s.start_s) -
          union_length(std::move(kids[i]), s.start_s, s.end_s);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"rep\":%d,\"self_us\":%.3f}}",
                    s.tid, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i,
                    s.parent, s.rep, self * 1e6);
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << escape(s.name)
          << "\"," << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  static std::string escape(const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"' || c == '\\') r += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) r += c;
    }
    return r;
  }

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Peak resident set (VmHWM) in MB from the text of /proc/<pid>/status;
/// negative when the field is missing.
inline double parse_vm_hwm_mb(const std::string& status) {
  std::istringstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = -1.0;
    std::string unit;
    fields >> kb >> unit;
    if (!fields || unit != "kB") return -1.0;
    return kb * 1024.0 / 1e6;
  }
  return -1.0;
}

inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return parse_vm_hwm_mb(text.str());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< measurements behind the value
};

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric as {"value", "unit"} with all its digits.
inline std::string result_json(bool correct, long attempted, long failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64] = "null";  // a failed run may leave a latency infinite
    if (std::isfinite(metrics[i].value))
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace hbench
