// Shared measurement helpers of the repository benchmark: a steady-clock
// timer, sample summaries (median plus the highest percentile that still
// has at least ten samples beyond it), the metric/record JSON writers, the
// in-memory span log written out as a Chrome trace, and the environment
// metadata printed next to every result.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "tensor/qkernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return Seconds(Clock::now() - t0);
}

/// Times one call; returns its wall seconds.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median plus the highest of the standard tail percentiles that has at
/// least ten samples beyond it, with the sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
};

inline Summary Summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = Median(v);
  s.tail = s.p50;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(v.size()) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = Percentile(v, pct);
      break;
    }
  }
  return s;
}

/// Renders a double with every significant digit; non-finite values become
/// null, which the self-test rejects.
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Flat JSON object built field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Add(const std::string& key, const char* v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }
  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, rendered as {"name": {"value": v, "unit": u}}.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    JsonObject o;
    for (const auto& [name, vu] : values_) {
      o.Raw(name, JsonObject()
                      .Add("value", vu.first)
                      .Add("unit", vu.second)
                      .Str());
    }
    return o.Str();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Spans kept in memory and written as a Chrome trace at exit. Spans of one
/// request carry the same id; `async` spans (a request's life from due time
/// to completion) overlap freely and are written as async begin/end pairs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void Add(const std::string& name, uint64_t id, Clock::time_point start,
           Clock::time_point end, bool async = false) {
    if (!enabled_) return;
    Span s{name, id, Tid(), Micros(start), Micros(end) - Micros(start), async};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const std::string& ev) {
      out << (first ? "" : ",\n") << ev;
      first = false;
    };
    for (const Span& s : spans_) {
      const std::string args =
          "\"args\": {\"id\": " + std::to_string(s.id) + "}";
      if (s.async) {
        const std::string common = "\"name\": " + Quote(s.name) +
                                   ", \"cat\": \"request\", \"id\": " +
                                   std::to_string(s.id) + ", \"pid\": 1, " +
                                   "\"tid\": " + std::to_string(s.tid);
        emit("{" + common + ", \"ph\": \"b\", \"ts\": " + Num(s.ts_us) +
             ", " + args + "}");
        emit("{" + common + ", \"ph\": \"e\", \"ts\": " +
             Num(s.ts_us + s.dur_us) + "}");
      } else {
        emit("{\"name\": " + Quote(s.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
             ", \"ts\": " + Num(s.ts_us) + ", \"dur\": " + Num(s.dur_us) +
             ", " + args + "}");
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    uint64_t id = 0;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    bool async = false;
  };

  double Micros(Clock::time_point t) const {
    return Seconds(t - origin_) * 1e6;
  }
  int Tid() {
    const auto key = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tids_.find(key);
    if (it != tids_.end()) return it->second;
    const int tid = static_cast<int>(tids_.size());
    tids_.emplace(key, tid);
    return tid;
  }

  std::atomic<bool> enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Peak resident set (VmHWM) of this process in MiB; 0 when unavailable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time the hypervisor has taken from this machine's vCPUs since boot
/// (the steal column of /proc/stat, summed over CPUs), in seconds; 0 when
/// unavailable.
inline double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& f : field) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Environment metadata printed with every result.
inline JsonObject EnvMetadata(uint64_t seed, const std::string& profile,
                              const std::string& git_sha) {
  JsonObject o;
  o.Add("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Add("avx2", lite::qk::Avx2KernelAvailable())
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("git_sha", git_sha)
      .Add("seed", static_cast<double>(seed))
      .Add("training_profile", profile);
  return o;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
