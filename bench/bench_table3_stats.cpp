// Table 3: detailed statistics for the 2L, 2LS, 1LD and 1L protocols at 32
// processors (8 nodes x 4 processors), in the paper's row layout. All
// counters are real event counts from real executions; execution time is
// virtual (see DESIGN.md).
#include <cstdio>

#include "bench_common.hpp"

namespace cashmere {
namespace {

struct Row {
  const char* label;
  Counter counter;
  double divisor;  // 1000 => report in thousands, like the paper's "(K)"
};

void PrintProtocolBlock(const bench::ProtocolColumn& column,
                        const std::vector<AppRunResult>& results) {
  std::printf("\n=== %s ===\n", column.label);
  std::printf("%-26s", "Application");
  for (const AppRunResult& r : results) {
    std::printf("%10s", AppName(r.kind));
  }
  std::printf("\n");
  bench::PrintRule(26 + 10 * static_cast<int>(results.size()));

  std::printf("%-26s", "Exec. time (virt. secs)");
  for (const AppRunResult& r : results) {
    std::printf("%10.4f", r.report.ExecTimeSec());
  }
  std::printf("\n%-26s", "Verified");
  bool all_verified = true;
  for (const AppRunResult& r : results) {
    std::printf("%10s", r.verified ? "yes" : "NO");
    all_verified = all_verified && r.verified;
  }
  std::printf("%s\n", bench::VerifiedTag(all_verified));

  const Row rows[] = {
      {"Lock/Flag Acquires (K)", Counter::kLockAcquires, 1000.0},
      {"Barriers", Counter::kBarriers, 1.0},
      {"Read Faults (K)", Counter::kReadFaults, 1000.0},
      {"Write Faults (K)", Counter::kWriteFaults, 1000.0},
      {"Page Transfers (K)", Counter::kPageTransfers, 1000.0},
      {"Directory Updates (K)", Counter::kDirectoryUpdates, 1000.0},
      {"Write Notices (K)", Counter::kWriteNotices, 1000.0},
      {"Excl. Mode Trans. (K)", Counter::kExclTransitions, 1000.0},
      {"Data (Mbytes)", Counter::kDataBytes, 1024.0 * 1024.0},
      {"Twin Creations (K)", Counter::kTwinCreations, 1000.0},
      {"Incoming Diffs", Counter::kIncomingDiffs, 1.0},
      {"Flush-Updates", Counter::kFlushUpdates, 1.0},
      {"Shootdowns", Counter::kShootdowns, 1.0},
  };
  for (const Row& row : rows) {
    // The paper reports twin-maintenance statistics only for the two-level
    // protocols, and shootdowns only for 2LS.
    const bool twin_row = row.counter == Counter::kIncomingDiffs ||
                          row.counter == Counter::kFlushUpdates ||
                          row.counter == Counter::kTwinCreations ||
                          row.counter == Counter::kShootdowns;
    const bool two_level = column.variant == ProtocolVariant::kTwoLevel ||
                           column.variant == ProtocolVariant::kTwoLevelShootdown;
    if (twin_row && !two_level) {
      continue;
    }
    std::printf("%-26s", row.label);
    for (const AppRunResult& r : results) {
      const double v =
          static_cast<double>(r.report.total.Get(row.counter)) / row.divisor;
      if (row.divisor == 1.0) {
        std::printf("%10.0f", v);
      } else {
        std::printf("%10.2f", v);
      }
    }
    std::printf("\n");
  }
  // Flag acquires are folded into the paper's Lock/Flag row; print them
  // separately for completeness.
  std::printf("%-26s", "  (of which flags, K)");
  for (const AppRunResult& r : results) {
    std::printf("%10.2f", bench::Kilo(r.report.total.Get(Counter::kFlagAcquires)));
  }
  std::printf("\n");
}

void Run(const bench::BenchOptions& opt) {
  bench::PrintHeader(
      "Table 3: detailed statistics at 32 processors (8 nodes x 4 processors)");
  const bench::ClusterShape shape{32, 4};
  for (const bench::ProtocolColumn& column : bench::PaperProtocols()) {
    std::vector<AppRunResult> results;
    results.reserve(opt.apps.size());
    for (const AppKind kind : opt.apps) {
      results.push_back(bench::RunExperiment(kind, column, shape, opt.size_class));
      bench::AppendCsv(opt.csv_path, kind, column.label, shape, results.back());
    }
    PrintProtocolBlock(column, results);
  }
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  const auto opt = cashmere::bench::BenchOptions::Parse(argc, argv);
  cashmere::Run(opt);
  return cashmere::bench::ExitStatus();
}
