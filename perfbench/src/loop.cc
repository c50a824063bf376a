#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

std::vector<SliceRecord> TimedRounds(
    double seconds, bool trace,
    const std::function<SliceRecord(bool primary, size_t round)>& run) {
  std::vector<SliceRecord> slices;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  // At least four rounds, so even a short traced run has traced and
  // untraced rounds on both executors.
  for (size_t round = 0; round < 4 || NowNs() < deadline; ++round) {
    // Rounds are traced in pairs (both executor orders); the pattern flips
    // every kFixtures rounds so each fixture serves traced and untraced.
    const bool traced = trace && (round / 2 + round / kFixtures) % 2 == 0;
    trace::SetRecording(traced);
    trace::Span span("bench", "bench.round", round);
    const bool primary_first = round % 2 == 0;
    for (bool primary : {primary_first, !primary_first}) {
      SliceRecord rec = run(primary, round);
      rec.primary = primary;
      rec.traced = traced;
      slices.push_back(std::move(rec));
    }
  }
  trace::SetRecording(trace);
  return slices;
}

namespace {

double SliceQps(const SliceRecord& s) {
  return static_cast<double>(s.queries) / s.wall_s;
}

/// Ratio with an empty denominator read as "every access hit".
double HitRatio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 1.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

/// The slices of kFixtures consecutive rounds, pooled. A group serves every
/// fixture once, so its figures average over the fixtures' placements, and
/// each per-structure p99 rests on about 80 samples beyond it rather than
/// the 10 of one slice.
struct Group {
  uint64_t queries[2] = {0, 0};  ///< By executor: [0] primary, [1] secondary.
  double wall_s[2] = {0, 0};
  uint32_t executors[2] = {1, 1};
  double struct_s[3] = {0, 0, 0};      ///< Primary only, from here on.
  std::vector<double> lat_us[3];       ///< By structure.
  std::vector<double> kind_lat_us[2];  ///< By request kind (even, odd slot).

  void Add(const SliceRecord& s) {
    const int e = s.primary ? 0 : 1;
    queries[e] += s.queries;
    wall_s[e] += s.wall_s;
    executors[e] = s.executors;
    if (!s.primary) return;
    for (int k = 0; k < 3; ++k) {
      struct_s[k] += s.struct_s[k];
      const std::vector<double>& lat = s.lat_us[k];
      lat_us[k].insert(lat_us[k].end(), lat.begin(), lat.end());
      for (size_t i = 0; i < lat.size(); ++i) {
        kind_lat_us[i % 2].push_back(lat[i]);
      }
    }
  }
  double Qps(int e) const {
    return static_cast<double>(queries[e]) / wall_s[e];
  }
};

/// Pools the slices in groups of kFixtures rounds. A trailing partial group
/// is dropped unless there is no full one (short test runs).
std::vector<Group> GroupRounds(const std::vector<SliceRecord>& slices) {
  const size_t per_group = 2 * kFixtures;  // Two slices per round.
  const size_t full = slices.size() / per_group;
  const size_t n = std::max<size_t>(full, 1);
  std::vector<Group> groups(n);
  for (size_t i = 0; i < slices.size() && i / per_group < n; ++i) {
    groups[i / per_group].Add(slices[i]);
  }
  return groups;
}

}  // namespace

void AddLoopMetrics(const std::vector<SliceRecord>& slices, bool trace,
                    Report* r) {
  std::vector<double> qps, p50, per_qps[3], p99[3], scaling;
  for (const Group& g : GroupRounds(slices)) {
    qps.push_back(g.Qps(0));
    for (int k = 0; k < 3; ++k) {
      per_qps[k].push_back(static_cast<double>(g.lat_us[k].size()) /
                           g.struct_s[k]);
      p99[k].push_back(Quantile(g.lat_us[k], 0.99));
    }
    // Every workload mixes two request kinds 1:1 in alternate slots, and
    // their latencies differ. The median over all queries would sit on the
    // boundary between the kinds, so p50 is the mean of the kinds' medians.
    p50.push_back((Median(g.kind_lat_us[0]) + Median(g.kind_lat_us[1])) / 2);
    const int two = g.executors[0] == 2 ? 0 : 1;
    scaling.push_back(g.Qps(two) / g.Qps(1 - two));
  }
  std::vector<double> overhead, busy, traced_qps, untraced_qps;
  for (const SliceRecord& s : slices) {
    if (!s.primary) continue;
    (s.traced ? traced_qps : untraced_qps).push_back(SliceQps(s));
    const double capacity_s = s.wall_s * s.executors;
    overhead.push_back((capacity_s - s.busy_s) * 1e6 /
                       static_cast<double>(s.queries));
    busy.push_back(s.busy_s / capacity_s);
  }

  r->Add("qps", Median(qps), "1/s");
  for (int k = 0; k < 3; ++k) {
    r->Add(std::string(kStructureKeys[k]) + ".qps", Median(per_qps[k]),
           "1/s");
  }
  r->Add("p50_us", Median(p50), "us");
  for (int k = 0; k < 3; ++k) {
    r->Add(std::string(kStructureKeys[k]) + ".p99_us", Median(p99[k]), "us");
  }
  r->Add("scaling", Median(scaling), "ratio");
  r->Add("service.overhead_us", Median(overhead), "us");
  r->Add("service.busy_frac", Median(busy), "ratio");
  r->Add("loop.groups", static_cast<double>(qps.size()), "count");
  if (trace) {
    r->Add("trace.overhead_frac",
           Median(untraced_qps) / Median(traced_qps) - 1.0, "ratio");
  }
}

void AddCountMetrics(const StructureCounts (&c)[3], uint64_t seg_hits,
                     uint64_t seg_misses, Report* r) {
  for (int k = 0; k < 3; ++k) {
    const std::string key = kStructureKeys[k];
    const double q = static_cast<double>(c[k].queries);
    const lsdb::MetricCounters& w = c[k].work;
    r->Add(key + ".fetches_per_q", static_cast<double>(w.page_fetches) / q,
           "count");
    if (k == 2) {
      r->Add(key + ".bucket_per_q", static_cast<double>(w.bucket_comps) / q,
             "count");
    } else {
      r->Add(key + ".bbox_per_q", static_cast<double>(w.bbox_comps) / q,
             "count");
    }
    r->Add(key + ".segcomps_per_q", static_cast<double>(w.segment_comps) / q,
           "count");
    r->Add(key + ".disk_reads_per_q", static_cast<double>(w.disk_reads) / q,
           "count");
    r->Add(key + ".hit_ratio", HitRatio(c[k].pool_hits, c[k].pool_misses),
           "ratio");
  }
  r->Add("seg.hit_ratio", HitRatio(seg_hits, seg_misses), "ratio");
}

}  // namespace perfbench
