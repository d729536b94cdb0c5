// Cost-model ablation: in-band diff run framing (ROADMAP open item).
//
// The wire protocol sends each diff as RLE runs; Config::diff
// charge_run_headers decides whether the 8-byte per-run framing words are
// billed as Memory Channel traffic (the paper's Table 3 "Data" row counts
// payload only; the real transport also moves the framing). This sweep runs
// the suite at the paper's 32-processor 2L configuration with framing
// charged and uncharged and records the traffic delta, so the cost of the
// modeling choice is a measured number instead of a guess. Results go to
// stdout and to BENCH_diffheaders.json.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"

namespace cashmere {
namespace {

AppRunResult RunOnce(AppKind kind, bool charge_run_headers, int size_class) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.diff.charge_run_headers = charge_run_headers;
  cfg.cost.scale = 1.0;  // traffic counters are cost-scale independent
  return RunApp(kind, cfg, size_class);
}

int RunSweep(const bench::BenchOptions& opt, const std::string& json_path) {
  bench::PrintHeader(
      "Diff run-header ablation: Table-3 traffic with/without in-band framing");
  std::printf("%-8s %14s %14s %10s %12s\n", "Program", "payload(MB)", "framed(MB)",
              "delta", "runs");
  bench::PrintRule(64);

  std::string rows;
  for (const AppKind kind : opt.apps) {
    const AppRunResult payload = RunOnce(kind, /*charge_run_headers=*/false,
                                         opt.size_class);
    const AppRunResult framed = RunOnce(kind, /*charge_run_headers=*/true,
                                        opt.size_class);
    const double payload_mb = bench::Mega(payload.report.total.Get(Counter::kDataBytes));
    const double framed_mb = bench::Mega(framed.report.total.Get(Counter::kDataBytes));
    const double delta_pct =
        payload_mb > 0 ? (framed_mb / payload_mb - 1.0) * 100.0 : 0.0;
    const unsigned long long runs = static_cast<unsigned long long>(
        payload.report.total.Get(Counter::kDiffRunsEmitted));
    std::printf("%-8s %14.3f %14.3f %9.2f%% %12llu%s\n", AppName(kind), payload_mb,
                framed_mb, delta_pct, runs,
                bench::VerifiedTag(payload.verified && framed.verified));
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"app\": \"%s\", \"payload_mb\": %.4f, \"framed_mb\": %.4f, "
                  "\"delta_pct\": %.3f, \"runs\": %llu}",
                  AppName(kind), payload_mb, framed_mb, delta_pct, runs);
    if (!rows.empty()) {
      rows += ",\n";
    }
    rows += row;
  }
  std::printf(
      "\nThe framing surcharge is bounded by 8 bytes per encoded run; apps with\n"
      "dense contiguous diffs (few long runs) sit near 0%%. Lock-based apps\n"
      "(Water, TSP) are scheduling-dependent: billing the framing shifts the\n"
      "virtual clocks, which shifts lock interleavings, so their delta also\n"
      "carries run-to-run traffic noise, not framing bytes alone.\n");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"protocol\": \"2L\",\n  \"procs\": 32,\n  \"ppn\": 4,\n"
               "  \"all_verified\": %s,\n  \"sweep\": [\n%s\n  ]\n}\n",
               bench::ExitStatus() == 0 ? "true" : "false", rows.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return bench::ExitStatus();
}

}  // namespace
}  // namespace cashmere

int main(int argc, char** argv) {
  auto opt = cashmere::bench::BenchOptions::Parse(argc, argv);
  std::string json_path = "BENCH_diffheaders.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  return cashmere::RunSweep(opt, json_path);
}
