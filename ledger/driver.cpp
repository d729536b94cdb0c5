// ledger_driver: runs one workload of the experiment ledger (README.md).
//
//   ledger_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   ledger_driver --describe
//
// A workload is one of the paper's applications at one size class under one
// protocol variant at 32:4. The driver sets it up through the library's
// public entry points (HostToAlphaTimeScale, SequentialBaseline,
// AutoCostScale), then calls RunApp back to back for `--seconds` seconds,
// one experiment at a time, checking each one. With `--trace 1` it adds one
// traced experiment and derives the per-layer metrics from its StatsReport
// and event stream. Progress goes to stderr; the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// No application takes a seed: each generates its input from its size
// class. `--seed` is accepted so every run names one, and is echoed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cashmere/apps/app.hpp"
#include "cashmere/common/calibration.hpp"
#include "cashmere/common/trace_check.hpp"
#include "cashmere/mc/transport.hpp"
#include "spans.hpp"

namespace {

using namespace cashmere;
using Clock = std::chrono::steady_clock;

// Each workload sets only the paper's parameters; every engineering toggle
// (async release, directory mode, mprotect batching, transport, fault mode)
// stays at its Config default.
struct Workload {
  const char* name;
  const char* app;  // registered application name
  int size_class;
  ProtocolVariant protocol;
  // The Table 3 counters repeat exactly from experiment to experiment.
  bool deterministic;
  // Non-null: a fault of the program makes every experiment fail
  // verification; such failures are counted, and `correct` stays true.
  const char* known_fault;
  // Non-null: runnable, but not one of the ledger's workloads, because its
  // experiments fail only now and then (README.md, "Left out").
  const char* left_out;
};

constexpr Workload kWorkloads[] = {
    {"gauss-1ld", "Gauss", kSizeBench, ProtocolVariant::kOneLevelDiff, false, nullptr, nullptr},
    {"gauss-2l-large", "Gauss", kSizeLarge, ProtocolVariant::kTwoLevel, false,
     "two-level Gauss with more than one node returns a wrong result at the large size",
     nullptr},
    {"sor-2l", "SOR", kSizeBench, ProtocolVariant::kTwoLevel, true, nullptr,
     "now and then an experiment changes its Table 3 counters or fails verification"},
    {"water-2ls", "Water", kSizeBench, ProtocolVariant::kTwoLevelShootdown, false, nullptr,
     "its timings move by up to half between runs (lock spinning at 32:4)"},
    {"water-2l", "Water", kSizeBench, ProtocolVariant::kTwoLevel, false, nullptr,
     "some experiments fail verification (the async-release race)"},
};

// Every workload runs on the paper's 32:4 cluster.
constexpr int kNodes = 8;
constexpr int kProcsPerNode = 4;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"speedup", "x"},
    {"wire_mb", "MB"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"setup.calibrate_ms", "ms"},
    {"setup.sequential_ms", "ms"},
    {"setup.cost_probe_ms", "ms"},
    {"runtime.span_ms", "ms"},
    {"runtime.tail_ms", "ms"},
    {"vm.read_faults", "count"},
    {"vm.write_faults", "count"},
    {"vm.mprotect_calls", "count"},
    {"vm.mprotect_pages_coalesced", "count"},
    {"vm.fault_us.p50", "us"},
    {"vm.fault_us.p99", "us"},
    {"protocol.page_transfers", "count"},
    {"protocol.twins", "count"},
    {"protocol.diff_runs", "count"},
    {"protocol.diff_blocks_scanned", "count"},
    {"protocol.incoming_diffs", "count"},
    {"protocol.write_notices", "count"},
    {"protocol.shootdowns", "count"},
    {"protocol.excl_transitions", "count"},
    {"directory.updates", "count"},
    {"coherence_log.publishes", "count"},
    {"coherence_log.publish_stalls", "count"},
    {"coherence_log.gate_waits", "count"},
    {"coherence_log.apply_lag_us.p50", "us"},
    {"coherence_log.apply_lag_us.p99", "us"},
    {"msg.requests", "count"},
    {"msg.polls", "count"},
    {"msg.request_us.p50", "us"},
    {"msg.request_us.p99", "us"},
    {"mc.writes", "count"},
    {"mc.data_mb", "MB"},
    {"mc.total_mb", "MB"},
    {"sync.lock_acquires", "count"},
    {"sync.flag_acquires", "count"},
    {"sync.barriers", "count"},
    {"sync.barrier_us.p50", "us"},
    {"sync.barrier_us.p99", "us"},
    {"trace.events", "count"},
    {"trace.overhead_pct", "%"},
};

// Set-up is sampled this many times per run and reported as the median.
constexpr int kSetupSamples = 5;
// A run makes at least this many untraced experiments, however short.
constexpr int kMinExperiments = 3;
// Per-processor ring of the traced experiment: large enough that no
// workload's busiest ring wraps (a drop fails the traced experiment).
constexpr std::uint32_t kTraceRingEvents = 1u << 15;
// The paper's Table 3 "Data (Mbytes)" and AutoCostScale count 2^20 bytes.
constexpr double kBytesPerMb = 1024.0 * 1024.0;

// Table 3's rows, in the paper's order.
constexpr Counter kTable3[] = {
    Counter::kLockAcquires,   Counter::kFlagAcquires,      Counter::kBarriers,
    Counter::kReadFaults,     Counter::kWriteFaults,       Counter::kPageTransfers,
    Counter::kDirectoryUpdates, Counter::kWriteNotices,    Counter::kExclTransitions,
    Counter::kDataBytes,
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

// User + system CPU time of every thread this process has run, joined
// threads included.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TimevalSeconds(ru.ru_utime) + TimevalSeconds(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Set-up ---------------------------------------------------------------

struct SetupTimes {
  double calibrate_s = 0.0;
  double sequential_s = 0.0;
  double cost_probe_s = 0.0;
  double time_scale = 0.0;  // HostToAlphaTimeScale()
  double seq_alpha_s = 0.0;  // SequentialBaseline(): Alpha-equivalent seconds
  double cost_scale = 0.0;  // AutoCostScale()
  double total() const { return calibrate_s + sequential_s + cost_probe_s; }
};

// The once-per-workload work before the first experiment. Each call fills a
// process-wide cache, so only the first call in a process measures it.
SetupTimes RunSetup(AppKind kind, int size_class) {
  SetupTimes t;
  auto t0 = Clock::now();
  t.time_scale = HostToAlphaTimeScale();
  t.calibrate_s = SecondsSince(t0);
  t0 = Clock::now();
  SequentialBaseline(kind, size_class, nullptr, &t.seq_alpha_s, nullptr);
  t.sequential_s = SecondsSince(t0);
  t0 = Clock::now();
  t.cost_scale = AutoCostScale(kind, size_class);  // a full 2L run at 32:4
  t.cost_probe_s = SecondsSince(t0);
  return t;
}

// Samples set-up in a forked child, which starts with the caches as empty
// as this process has them (it must still be single-threaded: no set-up or
// experiment has run yet). The child sends its times through a pipe.
bool SetupInChild(AppKind kind, int size_class, SetupTimes* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const SetupTimes t = RunSetup(kind, size_class);
    const ssize_t n = write(fds[1], &t, sizeof(t));
    _exit(n == static_cast<ssize_t>(sizeof(t)) ? 0 : 1);
  }
  close(fds[1]);
  std::size_t got = 0;
  char* dst = reinterpret_cast<char*>(out);
  while (got < sizeof(*out)) {
    const ssize_t n = read(fds[0], dst + got, sizeof(*out) - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == sizeof(*out) && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- Experiments ----------------------------------------------------------

struct Experiment {
  AppRunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t return_host_ns = 0;  // TraceHostNowNs() as RunApp returned
  std::vector<std::string> failures;  // names of the checks it failed
};

Experiment RunExperiment(const Workload& w, AppKind kind, bool traced) {
  Config cfg;
  cfg.protocol = w.protocol;
  cfg.nodes = kNodes;
  cfg.procs_per_node = kProcsPerNode;
  cfg.cost.scale = 0.0;  // AutoCostScale, as cashmere_run does
  if (traced) {
    cfg.trace.enabled = true;
    cfg.trace.ring_events = kTraceRingEvents;
  }
  Experiment e;
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  e.result = RunApp(kind, cfg, w.size_class);
  e.return_host_ns = TraceHostNowNs();
  e.wall_s = SecondsSince(t0);
  e.cpu_s = ProcessCpuSeconds() - cpu0;
  return e;
}

// Checks every experiment's outputs: the parallel checksum against the
// sequential reference (computed on private memory, apart from the
// protocol), and properties the protocol must have whatever the schedule.
// `reference` (deterministic workloads) holds the first experiment's
// counters, which every later experiment must repeat.
void CheckOutputs(const IApp& app, const Stats* reference, Experiment* e) {
  const AppRunResult& r = e->result;
  const double diff = std::fabs(r.parallel_checksum - r.sequential_checksum);
  const double ref = std::fabs(r.sequential_checksum);
  const double tol = app.Tolerance();
  const bool matches = tol == 0.0 ? diff == 0.0 : diff <= tol * (ref > 1.0 ? ref : 1.0);
  if (!matches || !r.verified) {
    e->failures.emplace_back("verification");
  }
  const Stats& s = r.report.total;
  if (s.Get(Counter::kDiffRunApplyBytes) != s.Get(Counter::kDiffRunBytes)) {
    e->failures.emplace_back("diff-run-apply-bytes");
  }
  if (s.Get(Counter::kCohLogApplies) != s.Get(Counter::kCohLogPublishes)) {
    e->failures.emplace_back("coh-log-applies");
  }
  if (reference != nullptr) {
    for (const Counter c : kTable3) {
      if (s.Get(c) != reference->Get(c)) {
        e->failures.emplace_back(std::string("table3-repeat:") + CounterName(c));
      }
    }
  }
}

// The traffic classes of Table 3's "Data" row (McHub::DataBytes).
std::vector<int> DataTrafficClasses() {
  return {static_cast<int>(Traffic::kPageData), static_cast<int>(Traffic::kDiffData),
          static_cast<int>(Traffic::kWriteNotice)};
}

// Extra checks on the traced experiment: a complete stream, the replay
// invariant checker, and the trace-derived counts against Stats.
void CheckTracedRun(const std::vector<TraceEvent>& merged, Experiment* e) {
  const AppRunResult& r = e->result;
  if (!r.trace->complete()) {
    e->failures.emplace_back("trace-drops");
  }
  const TraceCheckResult check = CheckTrace(merged, r.cfg, r.trace->TotalDropped());
  if (!check.ok) {
    std::fprintf(stderr, "%s", check.ToString().c_str());
    e->failures.emplace_back("trace-check");
  }
  const TraceBreakdown b = DeriveBreakdown(merged, r.cfg.total_procs(), DataTrafficClasses());
  const Stats& s = r.report.total;
  const struct {
    const char* name;
    std::uint64_t derived;
    Counter counter;
  } pairs[] = {
      {"read-faults", b.read_faults, Counter::kReadFaults},
      {"write-faults", b.write_faults, Counter::kWriteFaults},
      {"twins", b.twin_creates, Counter::kTwinCreations},
      {"directory-updates", b.dir_updates, Counter::kDirectoryUpdates},
      {"mprotect-calls", b.mprotect_calls, Counter::kMprotectCalls},
      {"mprotect-pages-coalesced", b.mprotect_pages_coalesced,
       Counter::kMprotectPagesCoalesced},
  };
  for (const auto& p : pairs) {
    if (p.derived != s.Get(p.counter)) {
      e->failures.push_back(std::string("breakdown:") + p.name);
    }
  }
}

// --- Metrics --------------------------------------------------------------

using Metrics = std::map<std::string, double>;

std::vector<double> Collect(const std::vector<Experiment>& runs,
                            double (*field)(const Experiment&)) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const Experiment& e : runs) {
    v.push_back(field(e));
  }
  return v;
}

Metrics EndToEndMetrics(const std::vector<SetupTimes>& setups,
                        const std::vector<Experiment>& runs) {
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total());
  }
  Metrics m;
  m["setup_s"] = ledger::Median(setup_s);
  m["speedup"] =
      ledger::Median(Collect(runs, [](const Experiment& e) { return e.result.speedup; }));
  m["wire_mb"] = ledger::Median(Collect(runs, [](const Experiment& e) {
    return static_cast<double>(e.result.report.total.Get(Counter::kDataBytes)) / kBytesPerMb;
  }));
  m["peak_rss_mb"] = PeakRssMb();
  return m;
}

Metrics LayerMetrics(const std::vector<SetupTimes>& setups, double untraced_wall_s,
                     const Experiment& traced, const std::vector<TraceEvent>& merged) {
  using ledger::Percentile;
  using ledger::TailP99;
  Metrics m;
  std::vector<double> calibrate;
  std::vector<double> sequential;
  std::vector<double> probe;
  for (const SetupTimes& t : setups) {
    calibrate.push_back(t.calibrate_s * 1e3);
    sequential.push_back(t.sequential_s * 1e3);
    probe.push_back(t.cost_probe_s * 1e3);
  }
  m["setup.calibrate_ms"] = ledger::Median(calibrate);
  m["setup.sequential_ms"] = ledger::Median(sequential);
  m["setup.cost_probe_ms"] = ledger::Median(probe);

  std::uint64_t first_ns = ~std::uint64_t{0};
  std::uint64_t last_ns = 0;
  std::uint64_t mc_writes = 0;
  std::uint64_t requests = 0;
  for (const TraceEvent& e : merged) {
    first_ns = std::min(first_ns, e.host_ns);
    last_ns = std::max(last_ns, e.host_ns);
    const auto kind = static_cast<EventKind>(e.kind);
    mc_writes += kind == EventKind::kMcWrite ? 1 : 0;
    requests += kind == EventKind::kReqSend ? 1 : 0;
  }
  const bool any = !merged.empty();
  m["runtime.span_ms"] = any ? static_cast<double>(last_ns - first_ns) / 1e6 : 0.0;
  m["runtime.tail_ms"] =
      any && traced.return_host_ns > last_ns
          ? static_cast<double>(traced.return_host_ns - last_ns) / 1e6
          : 0.0;

  const Stats& s = traced.result.report.total;
  const auto count = [&s](Counter c) { return static_cast<double>(s.Get(c)); };
  const ledger::Spans faults =
      ledger::PairPerProc(merged, EventKind::kFaultBegin, EventKind::kFaultEnd);
  m["vm.read_faults"] = count(Counter::kReadFaults);
  m["vm.write_faults"] = count(Counter::kWriteFaults);
  m["vm.mprotect_calls"] = count(Counter::kMprotectCalls);
  m["vm.mprotect_pages_coalesced"] = count(Counter::kMprotectPagesCoalesced);
  m["vm.fault_us.p50"] = Percentile(faults.us, 0.5);
  m["vm.fault_us.p99"] = TailP99(faults);

  m["protocol.page_transfers"] = count(Counter::kPageTransfers);
  m["protocol.twins"] = count(Counter::kTwinCreations);
  m["protocol.diff_runs"] = count(Counter::kDiffRunsEmitted);
  m["protocol.diff_blocks_scanned"] = count(Counter::kDiffBlocksScanned);
  m["protocol.incoming_diffs"] = count(Counter::kIncomingDiffs);
  m["protocol.write_notices"] = count(Counter::kWriteNotices);
  m["protocol.shootdowns"] = count(Counter::kShootdowns);
  m["protocol.excl_transitions"] = count(Counter::kExclTransitions);
  m["directory.updates"] = count(Counter::kDirectoryUpdates);

  const ledger::Spans lag =
      ledger::PairByUnitSeq(merged, EventKind::kCohPublish, EventKind::kCohApply);
  m["coherence_log.publishes"] = count(Counter::kCohLogPublishes);
  m["coherence_log.publish_stalls"] = count(Counter::kCohLogPublishStalls);
  m["coherence_log.gate_waits"] = count(Counter::kCohGateWaits);
  m["coherence_log.apply_lag_us.p50"] = Percentile(lag.us, 0.5);
  m["coherence_log.apply_lag_us.p99"] = TailP99(lag);

  const ledger::Spans req = ledger::PairByFlow(merged, EventKind::kReqSend, EventKind::kReqDone);
  m["msg.requests"] = static_cast<double>(requests);
  m["msg.polls"] = count(Counter::kPolls);
  m["msg.request_us.p50"] = Percentile(req.us, 0.5);
  m["msg.request_us.p99"] = TailP99(req);

  const TraceBreakdown b =
      DeriveBreakdown(merged, traced.result.cfg.total_procs(), DataTrafficClasses());
  m["mc.writes"] = static_cast<double>(mc_writes);
  m["mc.data_mb"] = static_cast<double>(b.data_bytes) / kBytesPerMb;
  m["mc.total_mb"] = static_cast<double>(b.total_bytes) / kBytesPerMb;

  const ledger::Spans barrier =
      ledger::PairPerProc(merged, EventKind::kBarrierArrive, EventKind::kBarrierDepart);
  m["sync.lock_acquires"] = count(Counter::kLockAcquires);
  m["sync.flag_acquires"] = count(Counter::kFlagAcquires);
  m["sync.barriers"] = count(Counter::kBarriers);
  m["sync.barrier_us.p50"] = Percentile(barrier.us, 0.5);
  m["sync.barrier_us.p99"] = TailP99(barrier);

  m["trace.events"] = static_cast<double>(merged.size());
  m["trace.overhead_pct"] =
      untraced_wall_s > 0 ? (traced.wall_s - untraced_wall_s) / untraced_wall_s * 100.0 : 0.0;
  return m;
}

// --- Output ---------------------------------------------------------------

template <std::size_t N>
bool PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const MetricDef (&defs)[N], const Metrics& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "ledger: metric %s was not measured\n", defs[i].name);
      return false;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, it->second, defs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return true;
}

void Describe() {
  for (const Workload& w : kWorkloads) {
    if (w.left_out == nullptr) {
      std::printf("workload %s\n", w.name);
    }
  }
  for (const MetricDef& d : kEndToEnd) {
    std::printf("end_to_end %s %s\n", d.name, d.unit);
  }
  for (const MetricDef& d : kPerLayer) {
    std::printf("per_layer %s %s\n", d.name, d.unit);
  }
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       %s --describe\n",
               argv0, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  long seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--describe") {
      Describe();
      return 0;
    }
    if (i + 1 >= argc) {
      Usage(argv[0]);
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          workload = &w;
        }
      }
    } else if (arg == "--seed") {
      seed = std::strtol(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else {
      Usage(argv[0]);
    }
  }
  if (workload == nullptr || !(seconds > 0.0) || trace < 0) {
    Usage(argv[0]);
  }
  const Workload& w = *workload;
  AppKind kind;
  if (!App::Lookup(w.app, &kind)) {
    std::fprintf(stderr, "ledger: application %s is not registered\n", w.app);
    return 1;
  }
  const std::unique_ptr<IApp> app = MakeApp(kind, w.size_class);
  std::fprintf(stderr, "ledger: %s (%s %s, %s at %d:%d), seed %ld, %.0f s, trace %d\n", w.name,
               w.app, app->ProblemSize().c_str(), ProtocolVariantName(w.protocol),
               kNodes * kProcsPerNode, kProcsPerNode, seed, seconds, trace);
  if (w.left_out != nullptr) {
    std::fprintf(stderr, "ledger: %s is left out of the ledger: %s\n", w.name, w.left_out);
  }

  std::vector<SetupTimes> setups(kSetupSamples - 1);
  for (SetupTimes& t : setups) {
    if (!SetupInChild(kind, w.size_class, &t)) {
      std::fprintf(stderr, "ledger: a set-up sample failed\n");
      return 1;
    }
  }
  setups.push_back(RunSetup(kind, w.size_class));  // fills this process's caches
  for (const SetupTimes& t : setups) {
    std::fprintf(stderr,
                 "ledger: set-up %.3f s, time scale %.4g, sequential %.4g s (Alpha), cost scale %.4g\n",
                 t.total(), t.time_scale, t.seq_alpha_s, t.cost_scale);
  }

  std::size_t failed = 0;
  bool correct = true;
  const auto tally = [&](const Experiment& e, const char* label) {
    std::string list;
    for (const std::string& f : e.failures) {
      list += " " + f;
    }
    std::fprintf(stderr,
                 "ledger: %s wall %.3f s cpu %.3f s virtual %.6f s speedup %.2f data %llu B%s%s\n",
                 label, e.wall_s, e.cpu_s, e.result.report.ExecTimeSec(), e.result.speedup,
                 static_cast<unsigned long long>(e.result.report.total.Get(Counter::kDataBytes)),
                 e.failures.empty() ? "" : " FAILED:", list.c_str());
    if (e.failures.empty()) {
      return;
    }
    ++failed;
    const bool known = w.known_fault != nullptr && e.failures.size() == 1 &&
                       e.failures[0] == "verification";
    correct = correct && known;
  };

  std::vector<Experiment> runs;
  std::unique_ptr<Stats> reference;
  const auto start = Clock::now();
  while (static_cast<int>(runs.size()) < kMinExperiments || SecondsSince(start) < seconds) {
    Experiment e = RunExperiment(w, kind, /*traced=*/false);
    CheckOutputs(*app, reference.get(), &e);
    if (w.deterministic && reference == nullptr) {
      reference = std::make_unique<Stats>(e.result.report.total);
    }
    tally(e, "experiment");
    runs.push_back(std::move(e));
  }
  std::size_t attempted = runs.size();
  if (trace == 0) {
    const Metrics e2e = EndToEndMetrics(setups, runs);
    return PrintResult(correct, attempted, failed, kEndToEnd, e2e) ? 0 : 1;
  }
  Experiment traced = RunExperiment(w, kind, /*traced=*/true);
  ++attempted;
  CheckOutputs(*app, reference.get(), &traced);
  const std::vector<TraceEvent> merged = traced.result.trace->Merged();
  CheckTracedRun(merged, &traced);
  tally(traced, "traced experiment");
  const double untraced_wall_s =
      ledger::Median(Collect(runs, [](const Experiment& e) { return e.wall_s; }));
  const Metrics layers = LayerMetrics(setups, untraced_wall_s, traced, merged);
  return PrintResult(correct, attempted, failed, kPerLayer, layers) ? 0 : 1;
}
