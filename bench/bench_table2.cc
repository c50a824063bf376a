// Reproduces Table 2 of Hoel & Samet (SIGMOD 1992): per-query averages of
// disk accesses, segment comparisons, and bounding box / bucket
// computations for Charles county (rural), over 1000 executions of each of
// the seven query workloads, for the PMR quadtree, R+-tree, and R*-tree.
//
// Paper values for orientation (PMR / R+ / R*):
//   Point1 disk accesses:      1.55 /  2.07 /  2.74
//   Nearest(2-stage) disk:     2.21 /  2.52 /  3.35
//   Nearest(1-stage) disk:     7.18 /  6.75 /  3.38
//   Polygon(2-stage) disk:    13.19 / 18.46 / 14.07
//   Range disk accesses:       2.93 /  3.24 /  3.50
//   bbox/bucket comps gap: PMR two orders of magnitude below the R-trees.

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/introspect/xray.h"
#include "lsdb/storage/buffer_pool.h"

using namespace lsdb;        // NOLINT
using namespace lsdb::bench; // NOLINT

int main(int argc, char** argv) {
  // --bulk builds the structures bottom-up (src/lsdb/build/); query
  // metrics then reflect the packed layout rather than the paper's
  // incrementally grown one.
  // --snapshot-out <prefix> serializes the built structures to
  // <prefix><county>.lsnap after the build; --snapshot-in <prefix> opens
  // that file instead of building (query metrics are produced the same
  // way either way — pages stream through the 16-frame LRU pools).
  // --introspect appends a query-path profile (each workload re-run with
  // profiling on) and a structure x-ray after the paper table. Purely
  // additive: without the flag the output is byte-identical.
  bool bulk = false;
  bool introspect = false;
  std::string county = "Charles";
  std::string snapshot_out, snapshot_in;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bulk") == 0) {
      bulk = true;
    } else if (std::strcmp(argv[i], "--introspect") == 0) {
      introspect = true;
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0 && i + 1 < argc) {
      snapshot_out = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-in") == 0 && i + 1 < argc) {
      snapshot_in = argv[++i];
    } else {
      county = argv[i];
    }
  }
  const PolygonalMap map = CountyMap(county);
  if (map.segments.empty()) {
    std::fprintf(stderr, "unknown county %s\n", county.c_str());
    return 1;
  }
  std::printf("Table 2: per-query metrics for %s county (%zu segments,"
              " 1000 queries per workload)%s%s\n\n",
              county.c_str(), map.segments.size(),
              bulk ? " [bulk-loaded]" : "",
              snapshot_in.empty() ? "" : " [opened from snapshot]");

  ExperimentOptions opt;  // paper defaults: 1K pages, 16 frames, 1000 q
  opt.bulk_build = bulk;
  if (!snapshot_out.empty()) {
    opt.snapshot_out = snapshot_out + county + ".lsnap";
  }
  if (!snapshot_in.empty()) {
    opt.snapshot_in = snapshot_in + county + ".lsnap";
  }
  Experiment exp(map, opt);
  Status st = exp.BuildAll();
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<QueryStats> stats;
  st = exp.RunAllQueries(&stats);
  if (!st.ok()) {
    std::fprintf(stderr, "queries failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto find = [&stats](StructureKind k, Workload w) {
    for (const QueryStats& qs : stats) {
      if (qs.kind == k && qs.workload == w) return qs;
    }
    return QueryStats{};
  };

  std::printf("%-17s %-22s %10s %10s %10s\n", "query", "metric", "PMR",
              "R+", "R*");
  PrintRule(75);
  for (Workload w : kAllWorkloads) {
    const QueryStats pmr = find(StructureKind::kPmr, w);
    const QueryStats rp = find(StructureKind::kRPlus, w);
    const QueryStats rs = find(StructureKind::kRStar, w);
    std::printf("%-17s %-22s %10.2f %10.2f %10.2f\n", WorkloadName(w),
                "disk accesses", pmr.disk_accesses, rp.disk_accesses,
                rs.disk_accesses);
    std::printf("%-17s %-22s %10.2f %10.2f %10.2f\n", "",
                "segment comps", pmr.segment_comps, rp.segment_comps,
                rs.segment_comps);
    std::printf("%-17s %-22s %10.2f %10.2f %10.2f\n", "",
                "bbox / bucket comps", pmr.bucket_comps, rp.bbox_comps,
                rs.bbox_comps);
    std::printf("%-17s %-22s %10.2f %10.2f %10.2f\n", "",
                "avg result size", pmr.avg_result_size, rp.avg_result_size,
                rs.avg_result_size);
    PrintRule(75);
  }

  // Cache behaviour over the whole run (build + all workloads): the
  // paper's disk-access averages above are per query; these lifetime hit
  // ratios show how much the 16-frame LRU pool absorbed.
  std::printf("%-17s %-22s %10.3f %10.3f %10.3f\n", "buffer pool",
              "hit ratio (lifetime)",
              exp.index(StructureKind::kPmr)->pool()->hit_ratio(),
              exp.index(StructureKind::kRPlus)->pool()->hit_ratio(),
              exp.index(StructureKind::kRStar)->pool()->hit_ratio());
  std::printf("%-17s %-22s %10.3f (shared across structures)\n", "",
              "segment table",
              exp.segment_table()->pool()->hit_ratio());

  if (introspect) {
    // Each workload is re-run with a thread-local profile installed; the
    // paper metrics above were computed first, so the extra traffic cannot
    // perturb them.
    std::printf("\nQuery-path profile (--introspect; per-query means over a "
                "profiled re-run):\n");
    std::printf("%-17s %-22s %10s %10s %10s\n", "query", "metric", "PMR",
                "R+", "R*");
    PrintRule(75);
    const StructureKind kinds[3] = {StructureKind::kPmr,
                                    StructureKind::kRPlus,
                                    StructureKind::kRStar};
    for (Workload w : kAllWorkloads) {
      introspect::QueryProfile profs[3];
      for (int i = 0; i < 3; ++i) {
        // Profile only: the paper counters keep their structure-owned
        // fallback, so the metric lines are unaffected.
        ScopedQueryContext scope({.profile = &profs[i]});
        QueryStats qs;
        st = exp.RunWorkload(kinds[i], w, &qs);
        if (!st.ok()) {
          std::fprintf(stderr, "profiled re-run failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      const double n = static_cast<double>(opt.num_queries);
      auto rate = [](uint64_t num, uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
      };
      std::printf("%-17s %-22s %10.2f %10.2f %10.2f\n", WorkloadName(w),
                  "nodes / query",
                  static_cast<double>(profs[0].nodes_visited) / n,
                  static_cast<double>(profs[1].nodes_visited) / n,
                  static_cast<double>(profs[2].nodes_visited) / n);
      std::printf("%-17s %-22s %10.4f %10.4f %10.4f\n", "",
                  "false leaf read rate",
                  rate(profs[0].false_leaf_reads, profs[0].leaves_visited),
                  rate(profs[1].false_leaf_reads, profs[1].leaves_visited),
                  rate(profs[2].false_leaf_reads, profs[2].leaves_visited));
      std::printf("%-17s %-22s %10.4f %10.4f %10.4f\n", "",
                  "false bucket read rate",
                  rate(profs[0].false_bucket_reads, profs[0].buckets_visited),
                  rate(profs[1].false_bucket_reads, profs[1].buckets_visited),
                  rate(profs[2].false_bucket_reads,
                       profs[2].buckets_visited));
      std::printf("%-17s %-22s %10.4f %10.4f %10.4f\n", "",
                  "entry prune rate",
                  rate(profs[0].entries_pruned(), profs[0].entries_scanned),
                  rate(profs[1].entries_pruned(), profs[1].entries_scanned),
                  rate(profs[2].entries_pruned(), profs[2].entries_scanned));
      PrintRule(75);
    }

    introspect::XRayReport xrs, xrp, xpm;
    st = introspect::XRayRStar(exp.rstar(), &xrs);
    if (st.ok()) st = introspect::XRayRPlus(exp.rplus(), &xrp);
    if (st.ok()) st = introspect::XRayPmr(exp.pmr(), &xpm);
    if (!st.ok()) {
      std::fprintf(stderr, "x-ray failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nStructure x-ray: R* overlap %.3f dead space %.3f | "
                "R+ duplication %.3fx | PMR mean depth %.1f\n",
                xrs.overlap_ratio, xrs.dead_space_ratio,
                xrp.duplication_factor, xpm.mean_quad_depth);
  }
  return 0;
}
