// Shared pieces of the lsdb benchmark: command-line options, the
// metric report, order statistics, and the answer oracle.
//
// Every number the benchmark reports is measured from outside the library:
// the benchmark times its own calls into the public API of each layer and
// reads counters through public accessors. Nothing in src/ is changed or
// instrumented for it.

#ifndef LSDB_PERFBENCH_BENCH_H_
#define LSDB_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lsdb/index/spatial_index.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSONL).
  std::string trace_out;
  /// Directory for files the run creates (snapshots); inside the checkout.
  std::string work_dir = ".";
  /// Test hook: alter one response after it is served, before the oracle
  /// sees it. The run must then report correct=false and exit non-zero.
  bool corrupt_response = false;
};

/// Named metrics with units, in the order they were added.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Aborts the run on a failed set-up step: a benchmark that measures past
/// a failed build reports garbage.
inline void CheckOk(const lsdb::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(2);
  }
}

// -- Answer oracle ----------------------------------------------------------

/// Order-independent digest of a segment-id set.
inline uint64_t HashIds(const std::vector<lsdb::SegmentHit>& hits) {
  std::vector<lsdb::SegmentId> ids;
  ids.reserve(hits.size());
  for (const lsdb::SegmentHit& h : hits) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  uint64_t h = 0xcbf29ce484222325ULL ^ ids.size();
  for (lsdb::SegmentId id : ids) {
    h ^= id;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of a nearest answer. Ties between equidistant segments are
/// arbitrary, so only the distance identifies the answer.
inline uint64_t HashDistance(double squared_distance) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(squared_distance));
  std::memcpy(&bits, &squared_distance, sizeof(bits));
  return bits * 0x9e3779b97f4a7c15ULL + 1;
}

/// Expected answer per query slot. The first structure to answer a slot
/// fixes the expectation; every later answer (any structure, any executor,
/// any pass) must match it, so the three structures are checked against
/// each other on every query the run serves.
class Oracle {
 public:
  explicit Oracle(size_t slots) : expected_(slots, 0), known_(slots, false) {}
  bool Check(size_t slot, uint64_t digest) {
    if (!known_[slot]) {
      known_[slot] = true;
      expected_[slot] = digest;
      return true;
    }
    return expected_[slot] == digest;
  }

 private:
  std::vector<uint64_t> expected_;
  std::vector<bool> known_;
};

// -- Per-structure counts ---------------------------------------------------

/// Deterministic counts of one structure over the count pass.
struct StructureCounts {
  lsdb::MetricCounters work;  ///< Everything the queries did (sink totals).
  uint64_t queries = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

inline const char* const kStructureKeys[3] = {"rstar", "rplus", "pmr"};

/// Adds the per-structure count metrics shared by every workload.
void AddCountMetrics(const StructureCounts (&c)[3], uint64_t seg_hits,
                     uint64_t seg_misses, Report* r);

}  // namespace perfbench

#endif  // LSDB_PERFBENCH_BENCH_H_
