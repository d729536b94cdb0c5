// Figure 7: speedups for the 2L, 2LS, 1LD and 1L protocols over the
// paper's cluster configurations (4:1 ... 32:4), plus the home-node
// optimization extension bars for the one-level protocols. Speedup =
// modeled sequential (Alpha-equivalent) time / virtual parallel execution
// time.
#include <cstdio>

#include "bench_common.hpp"

namespace cashmere {
namespace {

void Run(const bench::BenchOptions& opt) {
  bench::PrintHeader("Figure 7: speedups by protocol and cluster configuration");
  const auto shapes = bench::PaperShapes(opt.full);
  auto protocols = bench::PaperProtocols();
  // Home-node optimization extensions (the unshaded bar extensions in the
  // paper's Figure 7).
  protocols.push_back({"1LD+H", ProtocolVariant::kOneLevelDiff, true});
  protocols.push_back({"1L+H", ProtocolVariant::kOneLevelWriteDouble, true});

  for (const AppKind kind : opt.apps) {
    double seq_alpha = 0.0;
    SequentialBaseline(kind, opt.size_class, nullptr, &seq_alpha, nullptr);
    std::printf("\n%s  (sequential Alpha-equivalent: %.3f s)\n", AppName(kind), seq_alpha);
    std::printf("  %-7s", "config");
    for (const auto& column : protocols) {
      std::printf("%9s", column.label);
    }
    std::printf("\n");
    bench::PrintRule(9 + 9 * static_cast<int>(protocols.size()));
    for (const auto& shape : shapes) {
      std::printf("  %-7s", shape.Label().c_str());
      bool row_verified = true;
      for (const auto& column : protocols) {
        const AppRunResult r = bench::RunExperiment(kind, column, shape, opt.size_class);
        bench::AppendCsv(opt.csv_path, kind, column.label, shape, r);
        row_verified = row_verified && r.verified;
        if (r.verified) {
          std::printf("%9.2f", r.speedup);
        } else {
          std::printf("%8.2f!", r.speedup);
        }
      }
      std::printf("%s\n", bench::VerifiedTag(row_verified));
    }
  }
  std::printf(
      "\nReading: rows are the paper's P:ppn configurations; '!' marks an unverified\n"
      "run (the program then exits 1). Compare shapes with the paper's Figure 7:\n"
      "two-level protocols win at scale, most visibly for Gauss, Ilink, Em3d and\n"
      "Barnes; home-opt (+H) lifts the one-level protocols where home-node locality\n"
      "dominates (Em3d).\n");
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  const auto opt = cashmere::bench::BenchOptions::Parse(argc, argv);
  cashmere::Run(opt);
  return cashmere::bench::ExitStatus();
}
