// Figure 6: breakdown of execution time at 32 processors, normalized to
// Cashmere-2L, for the 2L, 2LS, 1LD and 1L protocols. Components: User,
// Protocol, Polling, Comm & Wait, and Write Doubling (1L only).
#include <cstdio>

#include "bench_common.hpp"

namespace cashmere {
namespace {

void Run(const bench::BenchOptions& opt) {
  bench::PrintHeader(
      "Figure 6: normalized execution-time breakdown at 32 processors (% of 2L)");
  const bench::ClusterShape shape{32, 4};
  const auto protocols = bench::PaperProtocols();

  for (const AppKind kind : opt.apps) {
    std::printf("\n%s\n", AppName(kind));
    std::printf("  %-6s %8s | %8s %9s %9s %11s %9s | %8s\n", "proto", "exec(s)", "User",
                "Protocol", "Polling", "Comm&Wait", "WrDouble", "total%");
    bench::PrintRule(88);
    double base_exec = 0.0;
    for (const bench::ProtocolColumn& column : protocols) {
      const AppRunResult r = bench::RunExperiment(kind, column, shape, opt.size_class);
      const double exec = r.report.ExecTimeSec();
      if (column.variant == ProtocolVariant::kTwoLevel) {
        base_exec = exec;
      }
      // Components are aggregated over processors; normalize them so the
      // bar height equals exec/base like the paper's chart (each
      // component's share of the protocol's own execution time, scaled by
      // the protocol's slowdown over 2L).
      double comp[kNumTimeCategories];
      double comp_total = 0.0;
      for (int c = 0; c < kNumTimeCategories; ++c) {
        comp[c] = static_cast<double>(r.report.total.time_ns[c]) / 1e9;
        comp_total += comp[c];
      }
      const double bar = base_exec > 0 ? 100.0 * exec / base_exec : 100.0;
      std::printf("  %-6s %8.4f |", column.label, exec);
      for (int c = 0; c < kNumTimeCategories; ++c) {
        const double pct = comp_total > 0 ? bar * comp[c] / comp_total : 0.0;
        std::printf(c == 3 ? " %11.1f" : " %9.1f", pct);
      }
      std::printf(" | %7.1f%%%s\n", bar, bench::VerifiedTag(r.verified));
    }
  }
  std::printf(
      "\nReading: each row's components sum to the protocol's normalized execution\n"
      "time (2L = 100%%), mirroring the stacked bars of the paper's Figure 6.\n");
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  const auto opt = cashmere::bench::BenchOptions::Parse(argc, argv);
  cashmere::Run(opt);
  return cashmere::bench::ExitStatus();
}
