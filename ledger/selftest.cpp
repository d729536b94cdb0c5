// ledger_selftest: checks the ledger's own derivations (spans.hpp) on
// hand-built TraceEvent streams with known answers. Exits 0 iff every check
// holds; prints each failed check.
#include <cstdio>
#include <vector>

#include "spans.hpp"

namespace {

using cashmere::EventKind;
using cashmere::TraceEvent;

int g_failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s: got %g, want %g\n", what, got, want);
  }
}

void ExpectEq(double got, double want, const char* what) { Expect(got == want, what, got, want); }

TraceEvent Ev(EventKind kind, std::uint16_t proc, std::uint64_t host_ns, std::uint32_t a0 = 0,
              std::uint64_t a1 = 0) {
  TraceEvent e;
  e.kind = static_cast<std::uint8_t>(kind);
  e.proc = proc;
  e.host_ns = host_ns;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

// Two procs fault at once: spans pair within each proc, never across.
void PerProcPairing() {
  const std::vector<TraceEvent> s = {
      Ev(EventKind::kFaultBegin, 0, 1000),  Ev(EventKind::kFaultBegin, 1, 2000),
      Ev(EventKind::kFaultEnd, 1, 5000),    Ev(EventKind::kFaultEnd, 0, 9000),
      Ev(EventKind::kBarrierArrive, 0, 9500),  // another kind: ignored
  };
  const ledger::Spans spans = ledger::PairPerProc(s, EventKind::kFaultBegin, EventKind::kFaultEnd);
  ExpectEq(static_cast<double>(spans.us.size()), 2, "per-proc: pairs");
  if (spans.us.size() == 2) {
    ExpectEq(spans.us[0], 3.0, "per-proc: proc 1 span (us)");
    ExpectEq(spans.us[1], 8.0, "per-proc: proc 0 span (us)");
  }
  ExpectEq(static_cast<double>(spans.unmatched_begins + spans.unmatched_ends), 0,
           "per-proc: unmatched");
}

// An end with no begin, a begin re-opened before its end, and a begin left
// open at the end of the stream.
void UnmatchedBegins() {
  const std::vector<TraceEvent> s = {
      Ev(EventKind::kFaultEnd, 0, 500),     // end with no begin
      Ev(EventKind::kFaultBegin, 0, 1000),  // re-opened below: unmatched
      Ev(EventKind::kFaultBegin, 0, 2000),
      Ev(EventKind::kFaultEnd, 0, 2500),
      Ev(EventKind::kFaultBegin, 1, 3000),  // never closed
  };
  const ledger::Spans spans = ledger::PairPerProc(s, EventKind::kFaultBegin, EventKind::kFaultEnd);
  ExpectEq(static_cast<double>(spans.us.size()), 1, "unmatched: pairs");
  if (!spans.us.empty()) {
    ExpectEq(spans.us[0], 0.5, "unmatched: the re-opened begin's span (us)");
  }
  ExpectEq(static_cast<double>(spans.unmatched_begins), 2, "unmatched: begins");
  ExpectEq(static_cast<double>(spans.unmatched_ends), 1, "unmatched: ends");
}

// A request sent on proc 0 completes on proc 0 while another proc's flow
// interleaves; flow ids, not procs, pair them. The responder's kReqServe
// is not part of the span.
void FlowPairing() {
  const std::uint64_t flow_a = (std::uint64_t{0} << 32) | 7;
  const std::uint64_t flow_b = (std::uint64_t{3} << 32) | 7;
  const std::vector<TraceEvent> s = {
      Ev(EventKind::kReqSend, 0, 1000, 0, flow_a), Ev(EventKind::kReqSend, 3, 1500, 0, flow_b),
      Ev(EventKind::kReqServe, 5, 1700, 0, flow_a), Ev(EventKind::kReqDone, 3, 2500, 0, flow_b),
      Ev(EventKind::kReqDone, 0, 4000, 0, flow_a),
  };
  const ledger::Spans spans = ledger::PairByFlow(s, EventKind::kReqSend, EventKind::kReqDone);
  ExpectEq(static_cast<double>(spans.us.size()), 2, "flow: pairs");
  if (spans.us.size() == 2) {
    ExpectEq(spans.us[0], 1.0, "flow: proc 3's request (us)");
    ExpectEq(spans.us[1], 3.0, "flow: proc 0's request (us)");
  }
}

// Log records pair by (unit, sequence): the same sequence on two units is
// two records, and an apply stamped before its publish counts 0.
void UnitSeqPairing() {
  const std::vector<TraceEvent> s = {
      Ev(EventKind::kCohPublish, 0, 1000, /*unit=*/0, /*seq=*/1),
      Ev(EventKind::kCohPublish, 4, 1200, /*unit=*/1, /*seq=*/1),
      Ev(EventKind::kCohApply, 33, 1900, /*unit=*/1, /*seq=*/1),
      Ev(EventKind::kCohApply, 32, 3000, /*unit=*/0, /*seq=*/1),
      Ev(EventKind::kCohApply, 32, 3100, /*unit=*/0, /*seq=*/2),  // stamped first
      Ev(EventKind::kCohPublish, 1, 3200, /*unit=*/0, /*seq=*/2),
      Ev(EventKind::kCohPublish, 2, 4000, /*unit=*/0, /*seq=*/3),  // never applied
  };
  const ledger::Spans spans =
      ledger::PairByUnitSeq(s, EventKind::kCohPublish, EventKind::kCohApply);
  // The apply of (0, 2) precedes its publish in the stream: unmatched end,
  // and the publish is left open.
  ExpectEq(static_cast<double>(spans.us.size()), 2, "unit-seq: pairs");
  if (spans.us.size() == 2) {
    ExpectEq(spans.us[0], 0.7, "unit-seq: unit 1 seq 1 (us)");
    ExpectEq(spans.us[1], 2.0, "unit-seq: unit 0 seq 1 (us)");
  }
  ExpectEq(static_cast<double>(spans.unmatched_ends), 1, "unit-seq: unmatched ends");
  ExpectEq(static_cast<double>(spans.unmatched_begins), 2, "unit-seq: unmatched begins");

  // Same-proc order with an earlier host stamp on the apply: a 0 span.
  const std::vector<TraceEvent> skew = {
      Ev(EventKind::kCohPublish, 0, 5000, 0, 9),
      Ev(EventKind::kCohApply, 32, 4000, 0, 9),
  };
  const ledger::Spans z = ledger::PairByUnitSeq(skew, EventKind::kCohPublish, EventKind::kCohApply);
  ExpectEq(z.us.size() == 1 ? z.us[0] : -1.0, 0.0, "unit-seq: skewed stamps clamp to 0");
}

void Percentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  ExpectEq(ledger::Percentile(hundred, 0.5), 50, "p50 of 1..100");
  ExpectEq(ledger::Percentile(hundred, 0.99), 99, "p99 of 1..100");
  ExpectEq(ledger::Percentile({}, 0.5), 0, "p50 of nothing");
  ExpectEq(ledger::Percentile({7}, 0.99), 7, "p99 of one sample");
  ExpectEq(ledger::Percentile({1, 2, 3}, 0.5), 2, "p50 of 3 samples");
  ExpectEq(ledger::Percentile({1, 2, 3, 4}, 0.5), 2, "p50 of 4 samples (nearest rank)");

  // The p99 cut-off: 999 samples report none, 1000 report the 990th.
  ledger::Spans spans;
  for (int i = 1; i <= 999; ++i) {
    spans.us.push_back(i);
  }
  ExpectEq(ledger::TailP99(spans), 0, "p99 below the cut-off");
  spans.us.push_back(1000);
  ExpectEq(ledger::TailP99(spans), 990, "p99 at the cut-off");

  ExpectEq(ledger::Median({3, 1, 2}), 2, "median, odd count");
  ExpectEq(ledger::Median({4, 1, 3, 2}), 2.5, "median, even count");
  ExpectEq(ledger::Median({}), 0, "median of nothing");
}

}  // namespace

int main() {
  PerProcPairing();
  UnmatchedBegins();
  FlowPairing();
  UnitSeqPairing();
  Percentiles();
  if (g_failures != 0) {
    std::printf("ledger self-test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("ledger self-test: all checks passed\n");
  return 0;
}
