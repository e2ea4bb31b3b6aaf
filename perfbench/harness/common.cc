#include "common.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::deque<Span>& Tracer::ThreadBuffer() {
  // One buffer per (thread, tracer); the registry lock is taken only the
  // first time a thread records into this tracer.
  thread_local std::unordered_map<const Tracer*, std::deque<Span>*> mine;
  auto it = mine.find(this);
  if (it != mine.end()) return *it->second;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<std::deque<Span>>());
  mine[this] = buffers_.back().get();
  return *buffers_.back();
}

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  ThreadBuffer().push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : Collect()) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (auto [begin, end] : kids) {
        begin = std::max(begin, cursor);
        end = std::min(end, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    SpanTotals& t = totals[s.name];
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return totals;
}

Samples SpanDurations(const std::vector<Span>& spans, const std::string& name,
                      double scale) {
  Samples out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) * scale);
    }
  }
  return out;
}

}  // namespace perfbench
