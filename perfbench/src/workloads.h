// The benchmark workloads and the timed-loop machinery they share.
//
// A run alternates two executors over the same requests in rounds: the
// workload's own executor (primary) and one with the other executor count
// (secondary: 1 worker for range_2t, 2 for nearest_1t).
// Each round runs one slice on each, in alternating order; a slice runs
// the same requests on R*, R+ and PMR in a rotating order. Time-based
// end-to-end metrics pool the slices of kFixtures rounds into a group and
// report the median over the groups, so a burst of host noise moves a few
// groups and not the reported value.
//
// Two set-ups of the same service in one process can differ by 10-25% in
// throughput, as if by where their memory landed. The service workloads
// therefore keep kFixtures set-ups of each executor and rotate the rounds
// over them, so a run's medians cover many placements and not one.

#ifndef LSDB_PERFBENCH_WORKLOADS_H_
#define LSDB_PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <functional>
#include <vector>

#include "bench.h"
#include "lsdb/data/polygonal_map.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/request.h"

namespace perfbench {

/// One executor's pass over one slice of requests.
struct SliceRecord {
  bool primary = true;
  bool traced = false;
  uint32_t executors = 1;  ///< Service workers.
  double wall_s = 0;       ///< Whole slice, all three structures.
  uint64_t queries = 0;
  double busy_s = 0;  ///< Sum of per-query execution times.
  double struct_s[3] = {0, 0, 0};    ///< Time spent per structure.
  /// Per-query latency per structure, in request order. Requests alternate
  /// between the workload's two kinds, so the slot parity is the kind.
  std::vector<double> lat_us[3];
};

/// Runs rounds until `seconds` have elapsed, at least four.
/// `run(primary, round)` runs one slice. In traced runs, recording is on
/// for half of the rounds, so the same run also measures the untraced loop.
std::vector<SliceRecord> TimedRounds(
    double seconds, bool trace,
    const std::function<SliceRecord(bool primary, size_t round)>& run);

/// Adds the end-to-end metrics (qps, per-structure qps, p50, p99, scaling)
/// and the executor-overhead layer metrics computed from the slices.
void AddLoopMetrics(const std::vector<SliceRecord>& slices, bool trace,
                    Report* r);

/// Everything the per-layer probes run against: the workload's own
/// structures, segment table and a batch of its requests.
struct ProbeTargets {
  lsdb::SpatialIndex* index[3] = {nullptr, nullptr, nullptr};
  lsdb::PmrQuadtree* pmr = nullptr;
  lsdb::SegmentTable* segs = nullptr;
  std::vector<lsdb::QueryRequest> batch;
};

/// Times the benchmark's own calls into each layer's public functions and
/// adds the per-layer latency metrics. Failures are added to r->failed.
void RunLayerProbes(const lsdb::PolygonalMap& map, const ProbeTargets& t,
                    const Options& o, Report* r);

void RunRange2t(const lsdb::PolygonalMap& map, const Options& o, Report* r);
void RunNearest1t(const lsdb::PolygonalMap& map, const Options& o,
                  Report* r);

/// The map's world is 2^14 x 2^14 pixels, as in the paper.
inline constexpr uint32_t kWorldLog2 = 14;

/// Side of the paper's Range window: 0.01% of the map area.
inline lsdb::Coord WindowSide() {
  const double world = static_cast<double>(1u << kWorldLog2);
  return static_cast<lsdb::Coord>(std::lround(world * std::sqrt(0.0001)));
}

/// Set-ups repeated per run; setup_s is their median.
inline constexpr int kSetups = 11;
/// Set-ups of each executor kept and measured (the last ones made).
inline constexpr size_t kFixtures = 8;

}  // namespace perfbench

#endif  // LSDB_PERFBENCH_WORKLOADS_H_
