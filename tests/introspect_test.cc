// Tests for the introspection observatory (src/lsdb/introspect/): the
// query-path profiler, the profile accumulator, the page heat map, the
// structure x-ray, and — most importantly — the contract that turning
// introspection ON changes no query response and no paper metric.
//
// The IntrospectTest suite runs under TSan in scripts/ci.sh: the live
// toggle and the concurrent heat-map tests must be race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/introspect/page_heat.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/introspect/xray.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/random.h"
#include "lsdb/viz/svg.h"

namespace lsdb {
namespace {

using introspect::PageHeatMap;
using introspect::ProfileAccumulator;
using introspect::QueryProfile;

PolygonalMap SmallMap(uint64_t seed = 11) {
  CountyProfile p;
  p.name = "introspect-test";
  p.lattice = 20;
  p.meander_steps = 5;
  p.seed = seed;
  return GenerateCounty(p, /*world_log2=*/14);
}

std::vector<QueryRequest> MixedBatch(const PolygonalMap& map, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s =
        map.segments[rng.Uniform(static_cast<uint32_t>(map.segments.size()))];
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1: {
        const Coord x = static_cast<Coord>(rng.Uniform(15000));
        const Coord y = static_cast<Coord>(rng.Uniform(15000));
        batch.push_back(
            QueryRequest::WindowQ(Rect::Of(x, y, x + 700, y + 700)));
        break;
      }
      case 2:
        batch.push_back(QueryRequest::NearestQ(
            Point{static_cast<Coord>(rng.Uniform(16000)),
                  static_cast<Coord>(rng.Uniform(16000))}));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

// ---------------------------------------------------------------------------
// QueryProfile (thread-local plumbing, installed through ScopedQueryContext)

TEST(IntrospectTest, ProfilingIsOffByDefaultAndHooksAreNoops) {
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
  // The macro must be safe to execute with no profile installed: one TLS
  // load, untaken branch, nothing else.
  LSDB_INTROSPECT(OnNode(0, true, 10, 5, 1));
  LSDB_INTROSPECT(BeginBucket(2));
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
}

TEST(IntrospectTest, ScopedProfileInstallsNestsAndRestores) {
  QueryProfile outer, inner;
  {
    ScopedQueryContext s1({.profile = &outer});
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
    {
      ScopedQueryContext s2({.profile = &inner});
      EXPECT_EQ(introspect::ThreadProfile(), &inner);
      LSDB_INTROSPECT(OnNode(0, false, 4, 2, 0));
    }
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
    {
      // A null context forces profiling OFF even inside an active scope —
      // the service uses this to honor a live toggle per query.
      ScopedQueryContext s3(QueryContext{});
      EXPECT_EQ(introspect::ThreadProfile(), nullptr);
      LSDB_INTROSPECT(OnNode(0, false, 100, 100, 0));
    }
    LSDB_INTROSPECT(OnNode(1, true, 8, 3, 2));
  }
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
  EXPECT_EQ(inner.nodes_visited, 1u);
  EXPECT_EQ(inner.entries_scanned, 4u);
  EXPECT_EQ(outer.nodes_visited, 1u);  // the forced-off window recorded nowhere
  EXPECT_EQ(outer.entries_scanned, 8u);
  EXPECT_EQ(outer.results, 2u);
}

TEST(IntrospectTest, NodeHookAccountsLeavesAndFalseReads) {
  QueryProfile p;
  p.OnNode(0, /*leaf=*/false, 10, 4, 0);  // internal: never a false read
  p.OnNode(1, /*leaf=*/true, 5, 2, 0);    // leaf, no results -> false read
  p.OnNode(1, /*leaf=*/true, 6, 3, 2);    // leaf with results
  EXPECT_EQ(p.nodes_visited, 3u);
  EXPECT_EQ(p.leaves_visited, 2u);
  EXPECT_EQ(p.false_leaf_reads, 1u);
  EXPECT_EQ(p.entries_scanned, 21u);
  EXPECT_EQ(p.entries_matched, 9u);
  EXPECT_EQ(p.entries_pruned(), 12u);
  EXPECT_EQ(p.results, 2u);
  EXPECT_EQ(p.max_depth, 1u);
  EXPECT_EQ(p.levels[0].visits, 1u);
  EXPECT_EQ(p.levels[1].visits, 2u);
  EXPECT_EQ(p.levels[1].entries_scanned, 11u);
}

TEST(IntrospectTest, BucketHooksFlagResultlessProbes) {
  QueryProfile p;
  p.BeginBucket(3);
  p.EndBucket();  // no OnResult in between -> false bucket read
  p.BeginBucket(5);
  p.OnResult(2);
  p.EndBucket();
  EXPECT_EQ(p.buckets_visited, 2u);
  EXPECT_EQ(p.false_bucket_reads, 1u);
  EXPECT_EQ(p.results, 2u);
  EXPECT_EQ(p.max_quad_depth, 5u);
}

TEST(IntrospectTest, DeepDescentsClampToTheLastLevelSlot) {
  QueryProfile p;
  p.OnNode(QueryProfile::kMaxLevels + 7, /*leaf=*/true, 3, 1, 1);
  EXPECT_EQ(p.max_depth, QueryProfile::kMaxLevels + 7);  // exact, unclamped
  EXPECT_EQ(p.levels[QueryProfile::kMaxLevels - 1].visits, 1u);
}

// ---------------------------------------------------------------------------
// ProfileAccumulator

TEST(IntrospectTest, AccumulatorMergesShardsAndDerivesRates) {
  ProfileAccumulator acc(2);
  QueryProfile a;
  a.OnNode(0, false, 10, 5, 0);
  a.OnNode(1, true, 10, 5, 0);  // false leaf read
  QueryProfile b;
  b.OnNode(0, false, 10, 10, 0);
  b.OnNode(1, true, 10, 10, 4);
  acc.Record(0, a);
  acc.Record(1, b);
  const ProfileAccumulator::Summary s = acc.Merge();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.totals.nodes_visited, 4u);
  EXPECT_EQ(s.totals.leaves_visited, 2u);
  EXPECT_EQ(s.totals.false_leaf_reads, 1u);
  EXPECT_DOUBLE_EQ(s.nodes_per_query(), 2.0);
  EXPECT_DOUBLE_EQ(s.false_leaf_read_rate(), 0.5);
  EXPECT_DOUBLE_EQ(s.prune_rate(), 10.0 / 40.0);
  // Levels merged by depth.
  EXPECT_EQ(s.totals.levels[0].visits, 2u);
  EXPECT_EQ(s.totals.levels[1].visits, 2u);
  // Empty accumulator: all rates well-defined zeros.
  const ProfileAccumulator::Summary empty = ProfileAccumulator(1).Merge();
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_DOUBLE_EQ(empty.nodes_per_query(), 0.0);
  EXPECT_DOUBLE_EQ(empty.false_bucket_read_rate(), 0.0);
}

TEST(IntrospectTest, SummaryJsonCarriesTheHeadlineKeys) {
  ProfileAccumulator acc(1);
  QueryProfile p;
  p.OnNode(0, true, 4, 2, 1);
  acc.Record(0, p);
  const std::string json = acc.Merge().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"queries\":1", "\"nodes_visited\":1", "\"false_leaf_read_rate\":",
        "\"prune_rate\":", "\"levels\":[{\"depth\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---------------------------------------------------------------------------
// PageHeatMap

TEST(IntrospectTest, HeatMapCountsRanksAndOverflows) {
  PageHeatMap heat(4, /*shards=*/2);
  heat.Touch(1);
  heat.Touch(1);
  heat.Touch(1);
  heat.Touch(3);
  heat.Touch(3);
  heat.Touch(0);
  heat.Touch(99);  // beyond page_count: attributed to overflow, not lost
  EXPECT_EQ(heat.total(), 7u);  // total() includes the overflow access
  EXPECT_EQ(heat.overflow(), 1u);
  const std::vector<uint64_t> counts = heat.Merge();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 2u);
  const auto ranked = heat.Ranked();
  ASSERT_EQ(ranked.size(), 3u);  // untouched pages are not listed
  EXPECT_EQ(ranked[0].page, 1u);
  EXPECT_EQ(ranked[0].count, 3u);
  EXPECT_EQ(ranked[1].page, 3u);
  EXPECT_EQ(ranked[2].page, 0u);
  const std::string json = heat.ToJson(2);
  // JSON "accesses" counts per-page attributed touches; the overflow
  // access is reported separately.
  for (const char* key : {"\"pages\":4", "\"pages_touched\":3",
                          "\"accesses\":6", "\"overflow\":1", "\"top\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// Run under TSan by scripts/ci.sh: concurrent Touch from many threads with
// a racing Merge must be race-free (relaxed atomics throughout).
TEST(IntrospectTest, HeatMapConcurrentTouchesWithRacingReader) {
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  PageHeatMap heat(16, kThreads);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&heat] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        heat.Touch(static_cast<PageId>(i % 16));
      }
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t now = heat.total();
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(heat.total(), kThreads * kPerThread);
  EXPECT_EQ(heat.overflow(), 0u);
}

TEST(IntrospectTest, HeatmapSvgRendersEveryPageAsATile) {
  const std::string path = ::testing::TempDir() + "/lsdb_heat.svg";
  const Status st = WriteHeatmapSvg({0, 5, 100, 2, 0, 7}, path, 64.0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string svg = ss.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  size_t tiles = 0;
  for (size_t pos = 0;
       (pos = svg.find("<title>page", pos)) != std::string::npos; ++pos) {
    ++tiles;
  }
  EXPECT_EQ(tiles, 6u);
  EXPECT_NE(svg.find("page 2: 100"), std::string::npos);  // hover tooltip
}

// ---------------------------------------------------------------------------
// Structure x-ray over a real built service

class IntrospectServiceTest : public ::testing::Test {
 protected:
  void Build(uint32_t threads) {
    map_ = SmallMap();
    ServiceOptions opt;
    opt.num_threads = threads;
    auto svc = QueryService::Build(map_, opt);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    svc_ = std::move(*svc);
  }

  PolygonalMap map_;
  std::unique_ptr<QueryService> svc_;
};

TEST_F(IntrospectServiceTest, XRayExplainsAllThreeStructures) {
  Build(1);
  introspect::XRayReport rs, rp, pm;
  ASSERT_TRUE(introspect::XRayRStar(svc_->rstar(), &rs).ok());
  ASSERT_TRUE(introspect::XRayRPlus(svc_->rplus(), &rp).ok());
  ASSERT_TRUE(introspect::XRayPmr(svc_->pmr(), &pm).ok());

  const uint64_t n = map_.segments.size();
  EXPECT_EQ(rs.structure, "R*");
  EXPECT_EQ(rs.distinct_segments, n);
  EXPECT_EQ(rs.stored_entries, n);  // R* stores each segment exactly once
  EXPECT_GE(rs.height, 1u);
  EXPECT_TRUE(rs.has_rtree_geometry);
  EXPECT_GE(rs.coverage_ratio, 0.0);
  EXPECT_GE(rs.overlap_ratio, 0.0);
  EXPECT_LE(rs.dead_space_ratio, 1.0);
  EXPECT_GT(rs.leaf.pages, 0u);
  EXPECT_GT(rs.leaf.mean_fill(), 0.0);
  EXPECT_LE(rs.leaf.mean_fill(), 1.0);

  EXPECT_EQ(rp.structure, "R+");
  EXPECT_EQ(rp.distinct_segments, n);
  EXPECT_TRUE(rp.has_duplication);
  EXPECT_GE(rp.duplication_factor, 1.0);  // copies per distinct segment
  EXPECT_GE(rp.stored_entries, n);        // duplication only adds entries
  // The R+ partition is disjoint by construction: the defining property.
  EXPECT_TRUE(rp.has_rtree_geometry);
  EXPECT_LT(rp.overlap_ratio, 0.01);

  EXPECT_EQ(pm.structure, "PMR");
  EXPECT_EQ(pm.distinct_segments, n);
  EXPECT_TRUE(pm.has_quad_depths);
  EXPECT_GT(pm.leaf_blocks, 0u);
  EXPECT_GT(pm.mean_quad_depth, 0.0);
  uint64_t hist_total = 0;
  for (uint64_t c : pm.quad_depth_histogram) hist_total += c;
  EXPECT_EQ(hist_total, pm.leaf_blocks);

  // Both renderings carry the structure tag.
  EXPECT_NE(rs.ToJson().find("\"structure\":\"R*\""), std::string::npos);
  EXPECT_NE(rs.ToPrometheus().find("structure=\"R*\""), std::string::npos);
  EXPECT_NE(rp.ToJson().find("\"duplication_factor\""), std::string::npos);
  EXPECT_NE(pm.ToJson().find("\"quad_depths\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The headline contract: introspection changes observations, not behaviour.

TEST_F(IntrospectServiceTest, IntrospectionOffAndOnGiveIdenticalAnswers) {
  Build(1);  // single worker: pool traffic is deterministic run to run
  const auto batch = MixedBatch(map_, 256, 99);

  // Warm the pools so the paper metrics of the two measured runs below see
  // identical cache state.
  ASSERT_TRUE(svc_->ExecuteBatch(ServedIndex::kRStar, batch).ok());

  ASSERT_FALSE(svc_->introspection());
  auto off = svc_->ExecuteBatch(ServedIndex::kRStar, batch);
  ASSERT_TRUE(off.ok());

  svc_->set_introspection(true);
  auto on = svc_->ExecuteBatch(ServedIndex::kRStar, batch);
  ASSERT_TRUE(on.ok());

  // Responses identical, hit for hit.
  ASSERT_EQ(off->responses.size(), on->responses.size());
  for (size_t i = 0; i < off->responses.size(); ++i) {
    EXPECT_EQ(off->responses[i].status.ok(), on->responses[i].status.ok());
    ASSERT_EQ(off->responses[i].hits.size(), on->responses[i].hits.size())
        << "query " << i;
    for (size_t j = 0; j < off->responses[i].hits.size(); ++j) {
      EXPECT_EQ(off->responses[i].hits[j].id, on->responses[i].hits[j].id);
    }
  }
  // Paper metrics byte-identical: profiling never touches MetricCounters.
  EXPECT_EQ(off->metrics.ToString(), on->metrics.ToString());

  // The profiled run populated the accumulator; the unprofiled run did not.
  const auto summary =
      svc_->profile_summary(ServedIndex::kRStar, QueryType::kWindow);
  EXPECT_EQ(summary.queries, 64u);  // 256 mixed queries, 1 in 4 is a window
  EXPECT_GT(summary.totals.nodes_visited, 0u);

  // Toggling back off stops accumulation.
  svc_->set_introspection(false);
  ASSERT_TRUE(svc_->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  EXPECT_EQ(
      svc_->profile_summary(ServedIndex::kRStar, QueryType::kWindow).queries,
      64u);
}

// Run under TSan by scripts/ci.sh: flipping the introspection toggle while
// worker threads serve batches must be race-free — the toggle is a relaxed
// atomic read per query and the accumulators are single-writer sharded.
TEST_F(IntrospectServiceTest, LiveToggleWhileServingIsRaceFree) {
  Build(4);
  svc_->EnablePageHeat();  // heat counters active during the toggling too
  const auto batch = MixedBatch(map_, 512, 7);
  std::atomic<bool> stop{false};
  std::thread toggler([this, &stop] {
    bool on = false;
    while (!stop.load(std::memory_order_relaxed)) {
      on = !on;
      svc_->set_introspection(on);
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 8; ++round) {
    for (ServedIndex which : kAllServedIndexes) {
      auto res = svc_->ExecuteBatch(which, batch);
      ASSERT_TRUE(res.ok());
      for (const QueryResponse& r : res->responses) {
        EXPECT_TRUE(r.status.ok());
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  // Some queries ran profiled (the toggler spends ~half its time on), and
  // the heat maps saw every index page access of every round.
  const auto* heat = svc_->page_heat(ServedIndex::kRStar);
  ASSERT_NE(heat, nullptr);
  EXPECT_GT(heat->total(), 0u);
}

TEST_F(IntrospectServiceTest, PageHeatAttachesIdempotentlyAndRanksRoot) {
  Build(2);
  svc_->EnablePageHeat();
  const auto* before = svc_->page_heat(ServedIndex::kRStar);
  svc_->EnablePageHeat();  // second call must not replace the maps
  EXPECT_EQ(svc_->page_heat(ServedIndex::kRStar), before);

  const auto batch = MixedBatch(map_, 200, 3);
  ASSERT_TRUE(svc_->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  ASSERT_NE(svc_->segment_page_heat(), nullptr);
  const auto ranked = before->Ranked();
  ASSERT_FALSE(ranked.empty());
  // Every R* descent starts at the root: the hottest page must have been
  // touched at least once per query.
  EXPECT_GE(ranked[0].count, 200u);
  EXPECT_NE(before->RankedReport(3).find("page"), std::string::npos);
}

}  // namespace
}  // namespace lsdb
