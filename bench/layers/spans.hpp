// Span bookkeeping for the traced run: self time per span name, and a
// bounded Perfetto export.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace adaparse::bench_layers {

struct SpanTotal {
  double self_s = 0.0;
  std::size_t count = 0;
};

/// Sums, per "category.name", each span's self time: its duration minus
/// the part of its interval that its child spans (any thread, any process)
/// cover. Instant events are skipped.
inline std::map<std::string, SpanTotal> self_times(
    const std::vector<obs::SpanRecord>& records) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const obs::SpanRecord& r : records) {
    if (!r.instant && r.parent != 0) {
      children[r.parent].emplace_back(r.start_ns, r.start_ns + r.dur_ns);
    }
  }
  std::map<std::string, SpanTotal> totals;
  for (const obs::SpanRecord& r : records) {
    if (r.instant) continue;
    const std::uint64_t begin = r.start_ns;
    const std::uint64_t end = r.start_ns + r.dur_ns;
    std::uint64_t covered = 0;
    if (auto it = children.find(r.id); it != children.end()) {
      auto& spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::uint64_t reach = begin;  // union of child intervals, clipped
      for (const auto& [s, e] : spans) {
        const std::uint64_t lo = std::max(s, reach);
        const std::uint64_t hi = std::min(e, end);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    SpanTotal& total = totals[std::string(r.category) + "." + r.name];
    total.self_s += static_cast<double>(r.dur_ns - std::min(covered, r.dur_ns)) * 1e-9;
    ++total.count;
  }
  return totals;
}

/// Writes the earliest `cap` records as Chrome/Perfetto trace JSON, so a
/// long traced run still leaves a file a viewer opens quickly.
inline void write_perfetto(const std::string& path,
                           std::vector<obs::SpanRecord> records,
                           std::size_t cap) {
  if (records.size() > cap) {
    std::nth_element(records.begin(), records.begin() + static_cast<std::ptrdiff_t>(cap),
                     records.end(), [](const auto& a, const auto& b) {
                       return a.start_ns < b.start_ns;
                     });
    records.resize(cap);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  obs::write_trace_json(out, std::move(records));
}

}  // namespace adaparse::bench_layers
