// Shared plumbing of the benchmark harness: clocks, exact percentiles, a
// minimal JSON writer, peak-RSS probing, and the in-memory span tracer.
#ifndef YVER_PERFBENCH_COMMON_H_
#define YVER_PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw samples with exact nearest-rank percentiles. Every percentile is
/// reported together with the sample count it was taken from.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile, p in [0, 100]. 0 when empty.
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    Sort();
    double rank = p / 100.0 * static_cast<double>(values_.size());
    size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999999) - 1;
    return values_[std::min(idx, values_.size() - 1)];
  }
  double Median() const { return Percentile(50); }
  double Mean() const {
    if (values_.empty()) return 0.0;
    double s = 0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Insertion-ordered JSON object writer (numbers, strings, bools, nested
/// objects). Doubles keep all their digits (%.17g).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      q += c;
    }
    return Raw(key, q + "\"");
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Obj(const std::string& key, const Json& v) {
    return Raw(key, v.Dump());
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  Json& Raw(const std::string& key, std::string v) {
    fields_.emplace_back(key, std::move(v));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, plus the sample counts their percentiles were
/// taken from (reported beside the metric, never inside it).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    entries_[name] = Entry{value, unit, samples};
  }
  double Value(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.value;
  }
  /// {"name": {"value": v, "unit": u}, ...}
  Json Values() const {
    Json j;
    for (const auto& [name, e] : entries_) {
      j.Obj(name, Json().Num("value", e.value).Str("unit", e.unit));
    }
    return j;
  }
  /// {"name": samples, ...} for metrics that are percentiles or means.
  Json SampleCounts() const {
    Json j;
    for (const auto& [name, e] : entries_) {
      if (e.samples > 0) j.Int(name, e.samples);
    }
    return j;
  }

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> entries_;
};

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// One traced interval. `parent` is 0 for a root span; spans of one
/// request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer (no
/// lock on the record path); buffers are merged and written when the run
/// ends. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  /// All spans recorded so far, in (thread, record) order. Call only once
  /// the recording threads are done.
  std::vector<Span> Collect() const;
  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::deque<Span>& ThreadBuffer();
  bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_ (registration, collection)
  std::vector<std::unique_ptr<std::deque<Span>>> buffers_;
};

/// RAII span: starts on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-name totals of span duration and self time (duration minus the
/// union of its children's intervals), in seconds.
struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Durations (ns) of every span called `name`, as samples in `scale`
/// units per ns (e.g. 1e-6 for ms).
Samples SpanDurations(const std::vector<Span>& spans, const std::string& name,
                      double scale);

/// 64-bit FNV-1a.
inline uint64_t Fnv1a(const char* data, size_t n,
                      uint64_t h = 1469598103934665603ULL) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench

#endif  // YVER_PERFBENCH_COMMON_H_
