// Host-time spans and percentiles derived from a merged TraceEvent stream
// (TraceLog::Merged order: per-processor append order preserved). Every
// span is the host_ns difference between a begin event and the end event
// paired with it; three pairing rules cover the layers the ledger reports:
//
//   per processor    begin and end on the same proc, never nested
//                    (kFaultBegin->kFaultEnd, kBarrierArrive->kBarrierDepart)
//   by flow id       begin and end share a1, possibly on different procs
//                    (kReqSend->kReqDone)
//   by unit and seq  begin and end share (a0, a1), on different procs
//                    (kCohPublish->kCohApply)
//
// Host stamps are taken after each event's effect, so a causally later
// event can carry an earlier stamp (an agent may apply a record before its
// publisher stamps kCohPublish); such a pair counts as a 0 us span.
#ifndef LEDGER_SPANS_HPP_
#define LEDGER_SPANS_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cashmere/common/trace.hpp"

namespace ledger {

struct Spans {
  std::vector<double> us;  // one duration per matched pair, microseconds
  std::uint64_t unmatched_begins = 0;  // begins never closed (or re-opened)
  std::uint64_t unmatched_ends = 0;    // ends with no open begin
};

Spans PairPerProc(const std::vector<cashmere::TraceEvent>& merged, cashmere::EventKind begin,
                  cashmere::EventKind end);
Spans PairByFlow(const std::vector<cashmere::TraceEvent>& merged, cashmere::EventKind begin,
                 cashmere::EventKind end);
Spans PairByUnitSeq(const std::vector<cashmere::TraceEvent>& merged,
                    cashmere::EventKind begin, cashmere::EventKind end);

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it (q in (0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// A p99 is reported only over at least this many samples: fewer leave
// under ten samples beyond it, which is no tail.
inline constexpr std::size_t kMinTailSamples = 1000;
// The span's p99, or 0 when it has fewer than kMinTailSamples samples.
double TailP99(const Spans& spans);

// Median as statistics.median computes it (mean of the middle two for an
// even count). 0 for an empty sample.
double Median(std::vector<double> values);

}  // namespace ledger

#endif  // LEDGER_SPANS_HPP_
