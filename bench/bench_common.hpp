// Shared helpers for the paper-reproduction benchmark harnesses: run
// configuration parsing, table formatting, and the standard experiment
// driver (app x protocol x cluster shape).
#ifndef CASHMERE_BENCH_BENCH_COMMON_HPP_
#define CASHMERE_BENCH_BENCH_COMMON_HPP_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cashmere/apps/app.hpp"

namespace cashmere::bench {

// Command-line knobs shared by the table generators.
struct BenchOptions {
  int size_class = kSizeBench;
  bool full = false;  // full sweep vs the quick default
  std::string csv_path;  // when set, also append machine-readable rows
  std::vector<AppKind> apps;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions opt;
    opt.apps.reserve(kNumApps);
    for (int a = 0; a < kNumApps; ++a) {
      opt.apps.push_back(static_cast<AppKind>(a));
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        opt.full = true;
        opt.size_class = kSizeLarge;
      } else if (std::strcmp(argv[i], "--small") == 0) {
        opt.size_class = kSizeTest;
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        opt.csv_path = argv[++i];
      } else if (std::strcmp(argv[i], "--app") == 0 && i + 1 < argc) {
        opt.apps.clear();
        const char* name = argv[++i];
        for (int a = 0; a < kNumApps; ++a) {
          if (std::strcmp(AppName(static_cast<AppKind>(a)), name) == 0) {
            opt.apps.push_back(static_cast<AppKind>(a));
          }
        }
      }
    }
    return opt;
  }
};

// The paper's protocol line-up for Tables 3 / Figures 6-7.
struct ProtocolColumn {
  const char* label;
  ProtocolVariant variant;
  bool home_opt;
};

inline std::vector<ProtocolColumn> PaperProtocols() {
  return {
      {"2L", ProtocolVariant::kTwoLevel, false},
      {"2LS", ProtocolVariant::kTwoLevelShootdown, false},
      {"1LD", ProtocolVariant::kOneLevelDiff, false},
      {"1L", ProtocolVariant::kOneLevelWriteDouble, false},
  };
}

// A Figure 7 cluster configuration "P:ppn".
struct ClusterShape {
  int total;
  int ppn;
  int nodes() const { return total / ppn; }
  std::string Label() const { return std::to_string(total) + ":" + std::to_string(ppn); }
};

inline std::vector<ClusterShape> PaperShapes(bool full) {
  if (full) {
    return {{4, 1}, {4, 4}, {8, 1}, {8, 2}, {8, 4}, {16, 2}, {16, 4}, {24, 3}, {32, 4}};
  }
  return {{4, 1}, {8, 2}, {16, 4}, {32, 4}};
}

inline AppRunResult RunExperiment(AppKind kind, const ProtocolColumn& column,
                                  ClusterShape shape, int size_class) {
  Config cfg;
  cfg.protocol = column.variant;
  cfg.home_opt = column.home_opt;
  cfg.nodes = shape.nodes();
  cfg.procs_per_node = shape.ppn;
  cfg.cost.scale = 0.0;  // auto: preserve the paper's compute/comm ratio
  return RunApp(kind, cfg, size_class);
}

// Appends one experiment row to a CSV file (header written when the file
// is empty/new): app, protocol, shape, verification, speedup, then the
// full StatsReport columns.
inline void AppendCsv(const std::string& path, AppKind kind, const char* protocol,
                      const ClusterShape& shape, const AppRunResult& result) {
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  if (std::ftell(f) == 0) {
    std::fprintf(f, "app,protocol,procs,ppn,verified,speedup,seq_alpha_s,%s\n",
                 StatsReport::CsvHeader().c_str());
  }
  std::fprintf(f, "%s,%s,%d,%d,%d,%.4f,%.6f,%s\n", AppName(kind), protocol, shape.total,
               shape.ppn, result.verified ? 1 : 0, result.speedup, result.seq_alpha_seconds,
               result.report.ToCsvRow().c_str());
  std::fclose(f);
}

// The suffix a row prints after its runs: "" when all verified, else
// "  (UNVERIFIED)". Failures are remembered so main() can print every row
// first and then exit nonzero through ExitStatus().
inline int& UnverifiedRows() {
  static int rows = 0;
  return rows;
}
inline const char* VerifiedTag(bool verified) {
  if (verified) {
    return "";
  }
  ++UnverifiedRows();
  return "  (UNVERIFIED)";
}
inline int ExitStatus() { return UnverifiedRows() == 0 ? 0 : 1; }

// Formatting helpers (rows like the paper's tables).
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void PrintHeader(const char* title) {
  std::printf("\n");
  PrintRule(78);
  std::printf("%s\n", title);
  PrintRule(78);
}

inline double Kilo(std::uint64_t n) { return static_cast<double>(n) / 1000.0; }
inline double Mega(std::uint64_t n) { return static_cast<double>(n) / (1024.0 * 1024.0); }

}  // namespace cashmere::bench

#endif  // CASHMERE_BENCH_BENCH_COMMON_HPP_
