#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace ledger {

using cashmere::EventKind;
using cashmere::TraceEvent;

namespace {

double SpanUs(const TraceEvent& begin, const TraceEvent& end) {
  if (end.host_ns <= begin.host_ns) {
    return 0.0;
  }
  return static_cast<double>(end.host_ns - begin.host_ns) / 1e3;
}

// Pairs begins and ends that share a key; a second begin on an open key
// replaces the first, which counts as unmatched.
template <typename Key, typename KeyOf>
Spans PairByKey(const std::vector<TraceEvent>& merged, EventKind begin, EventKind end,
                KeyOf key_of) {
  Spans spans;
  std::map<Key, TraceEvent> open;
  for (const TraceEvent& e : merged) {
    const auto kind = static_cast<EventKind>(e.kind);
    if (kind == begin) {
      auto [it, inserted] = open.try_emplace(key_of(e), e);
      if (!inserted) {
        ++spans.unmatched_begins;
        it->second = e;
      }
    } else if (kind == end) {
      auto it = open.find(key_of(e));
      if (it == open.end()) {
        ++spans.unmatched_ends;
        continue;
      }
      spans.us.push_back(SpanUs(it->second, e));
      open.erase(it);
    }
  }
  spans.unmatched_begins += open.size();
  return spans;
}

}  // namespace

Spans PairPerProc(const std::vector<TraceEvent>& merged, EventKind begin, EventKind end) {
  return PairByKey<std::uint16_t>(merged, begin, end,
                                  [](const TraceEvent& e) { return e.proc; });
}

Spans PairByFlow(const std::vector<TraceEvent>& merged, EventKind begin, EventKind end) {
  return PairByKey<std::uint64_t>(merged, begin, end,
                                  [](const TraceEvent& e) { return e.a1; });
}

Spans PairByUnitSeq(const std::vector<TraceEvent>& merged, EventKind begin, EventKind end) {
  return PairByKey<std::pair<std::uint32_t, std::uint64_t>>(
      merged, begin, end, [](const TraceEvent& e) { return std::make_pair(e.a0, e.a1); });
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailP99(const Spans& spans) {
  return spans.us.size() >= kMinTailSamples ? Percentile(spans.us, 0.99) : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace ledger
