// lsdb_perfbench: the benchmark program for the lsdb engine.
//
//   lsdb_perfbench --workload range_2t|nearest_1t --seed N
//                  --seconds S [--trace 0|1] [--trace-out FILE]
//                  [--work-dir DIR] [--corrupt-response]
//
// Prints a human-readable summary to stderr and, as the last line of
// stdout, one JSON object: the host and build block, every metric the run
// measured as {"value", "unit"}, and the answer check (correct, attempted,
// failed). The exit code is 0 only if every answer passed the oracle.
// perfbench/run.py builds this binary and selects the metrics that
// BENCHMARK.json names.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "lsdb/data/county_generator.h"
#include "lsdb/simd/simd.h"
#include "lsdb/util/mutex.h"
#include "trace.h"
#include "workloads.h"

#ifndef LSDB_BENCH_BUILD_TYPE
#define LSDB_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: lsdb_perfbench --workload range_2t|nearest_1t "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE] "
               "[--work-dir DIR] [--corrupt-response]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-response") {
      o->corrupt_response = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o->workload = argv[++i];
    } else if (a == "--seed") {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out") {
      o->trace_out = argv[++i];
    } else if (a == "--work-dir") {
      o->work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options o;
  if (!ParseArgs(argc, argv, &o)) return Usage();
  void (*run)(const lsdb::PolygonalMap&, const Options&, Report*) = nullptr;
  if (o.workload == "range_2t") run = RunRange2t;
  if (o.workload == "nearest_1t") run = RunNearest1t;
  if (run == nullptr) return Usage();

  const auto ticks0 = CpuTicks();
  // The input: the Charles county map (46,546 segments, rural profile).
  lsdb::PolygonalMap map;
  for (const lsdb::CountyProfile& p : lsdb::MarylandProfiles()) {
    if (p.name == "Charles") map = lsdb::GenerateCounty(p, kWorldLog2);
  }
  if (map.segments.empty()) {
    std::fprintf(stderr, "perfbench: Charles county profile missing\n");
    return 2;
  }

  trace::SetRecording(o.trace);
  Report r;
  run(map, o, &r);
  trace::SetRecording(false);
  r.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  const double attempted = static_cast<double>(r.attempted);
  r.Add("ok_frac",
        attempted == 0 ? 0.0
                       : (attempted - static_cast<double>(r.failed)) /
                             attempted,
        "ratio");
  if (o.trace) {
    const auto spans = trace::Spans();
    for (const auto& [layer, ms] : trace::SelfTimeMs(spans)) {
      r.Add("self_ms." + layer, ms, "ms");
    }
    if (!o.trace_out.empty() && !trace::WriteJsonl(spans, o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.trace_out.c_str());
      return 2;
    }
  }
  const auto ticks1 = CpuTicks();
  const uint64_t steal = ticks1.first - ticks0.first;
  const uint64_t total = ticks1.second - ticks0.second;

  const bool correct = r.attempted > 0 && r.failed == 0;
  const std::string build_type = LSDB_BENCH_BUILD_TYPE;
  // A binary with the lock-order verifier armed measures the verifier.
  const bool counted = LSDB_LOCK_DEBUG == 0 && build_type == "Release";
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::ostringstream host;
  host << "{\"cpu_model\":" << JsonString(CpuModel())
       << ",\"nproc\":" << AvailableCpus()
       << ",\"compiler\":" << JsonString(kCompiler)
       << ",\"build_type\":" << JsonString(build_type)
       << ",\"lock_verifier\":" << LSDB_LOCK_DEBUG
       << ",\"asserts\":" << (asserts ? "true" : "false")
       << ",\"simd_isa\":"
       << JsonString(lsdb::simd::IsaName(lsdb::simd::ActiveIsa()))
       << ",\"steal_ticks\":" << steal << ",\"total_ticks\":" << total
       << ",\"counted\":" << (counted ? "true" : "false") << "}";

  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0);
  std::ostringstream metrics;
  metrics.precision(17);
  bool first = true;
  for (const Report::Metric& m : r.metrics()) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    metrics << (first ? "" : ",") << JsonString(m.name) << ":{\"value\":";
    if (std::isfinite(m.value)) {
      metrics << m.value;
    } else {
      metrics << "null";
    }
    metrics << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"host\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, host.str().c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.str().c_str());
  return correct ? 0 : 1;
}
