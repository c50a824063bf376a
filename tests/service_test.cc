#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/service/query_service.h"
#include "lsdb/service/worker_pool.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

PolygonalMap SmallMap(uint64_t seed = 11) {
  CountyProfile p;
  p.name = "service-test";
  p.lattice = 20;
  p.meander_steps = 5;
  p.seed = seed;
  return GenerateCounty(p, /*world_log2=*/14);
}

/// Mixed batch of the four request kinds, derived from the map so point
/// and incident queries actually hit segments.
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

TEST(WorkerPoolTest, RunsEveryItemExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr uint64_t kItems = 10000;
  std::vector<std::atomic<uint32_t>> seen(kItems);
  pool.ParallelFor(kItems, [&](uint32_t, uint64_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "item " << i;
  }
}

TEST(WorkerPoolTest, ReusableAcrossJobsAndEmptyJobIsNoop) {
  WorkerPool pool(2);
  pool.ParallelFor(0, [](uint32_t, uint64_t) { FAIL(); });
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&](uint32_t, uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 5u * (99u * 100u / 2));
}

TEST(WorkerPoolTest, ZeroThreadsClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> n{0};
  pool.ParallelFor(7, [&](uint32_t w, uint64_t) {
    EXPECT_EQ(w, 0u);
    ++n;
  });
  EXPECT_EQ(n.load(), 7);
}

TEST(WorkerPoolTest, HugeThreadCountClampsToMax) {
  // A negative count pushed through uint32_t must not try to spawn ~4
  // billion OS threads.
  WorkerPool pool(static_cast<uint32_t>(-3));
  EXPECT_EQ(pool.size(), WorkerPool::kMaxThreads);
}

class QueryServiceTest : public ::testing::Test {
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

TEST_F(QueryServiceTest, IndexesAreFrozenAfterBuild) {
  Build(2);
  const Segment s = map_.segments[0];
  for (ServedIndex which : kAllServedIndexes) {
    SpatialIndex* idx = svc_->index(which);
    ASSERT_NE(idx, nullptr);
    EXPECT_TRUE(idx->frozen());
    EXPECT_FALSE(idx->Insert(999999, s).ok());
    EXPECT_FALSE(idx->Erase(0, s).ok());
  }
}

TEST_F(QueryServiceTest, FrozenIndexStillAnswersQueries) {
  Build(2);
  const Segment s = map_.segments[0];
  for (ServedIndex which : kAllServedIndexes) {
    std::vector<SegmentHit> hits;
    ASSERT_TRUE(svc_->index(which)->PointQueryEx(s.a, &hits).ok());
    bool found = false;
    for (const SegmentHit& h : hits) found |= (h.id == 0);
    EXPECT_TRUE(found) << ServedIndexName(which);
  }
}

TEST_F(QueryServiceTest, ThawReenablesMutation) {
  Build(1);
  SpatialIndex* idx = svc_->index(ServedIndex::kRStar);
  idx->Thaw();
  const Segment s = map_.segments[0];
  EXPECT_TRUE(idx->Erase(0, s).ok());
  EXPECT_TRUE(idx->Insert(0, s).ok());
  idx->Freeze();
}

TEST_F(QueryServiceTest, BatchMatchesDirectQueries) {
  Build(2);
  auto batch = MixedBatch(map_, 64, 3);
  for (ServedIndex which : kAllServedIndexes) {
    auto par = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(par.ok());
    ASSERT_EQ(par->responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const QueryResponse& r = par->responses[i];
      ASSERT_TRUE(r.status.ok() || batch[i].type == QueryType::kNearest)
          << r.status.ToString();
      if (batch[i].type == QueryType::kWindow) {
        // Cross-check against a direct window query on the same index.
        std::vector<SegmentHit> direct;
        ASSERT_TRUE(
            svc_->index(which)->WindowQueryEx(batch[i].window, &direct).ok());
        ASSERT_EQ(direct.size(), r.hits.size());
        for (size_t k = 0; k < direct.size(); ++k) {
          EXPECT_EQ(direct[k].id, r.hits[k].id);
        }
      }
    }
  }
}

TEST_F(QueryServiceTest, BatchMetricsAreMergedFromWorkers) {
  Build(4);
  auto batch = MixedBatch(map_, 200, 5);
  auto res = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->per_worker.size(), 4u);
  MetricCounters sum;
  for (const MetricCounters& c : res->per_worker) sum += c;
  EXPECT_EQ(sum.page_fetches, res->metrics.page_fetches);
  EXPECT_EQ(sum.segment_comps, res->metrics.segment_comps);
  // Queries did real work and it was attributed to the batch...
  EXPECT_GT(res->metrics.page_fetches, 0u);
  EXPECT_GT(res->metrics.segment_comps, 0u);
}

TEST_F(QueryServiceTest, ServingDoesNotPerturbIndexCounters) {
  Build(2);
  for (ServedIndex which : kAllServedIndexes) {
    const MetricCounters before = svc_->index(which)->metrics();
    auto res = svc_->ExecuteBatch(which, MixedBatch(map_, 50, 7));
    ASSERT_TRUE(res.ok());
    const MetricCounters after = svc_->index(which)->metrics();
    EXPECT_EQ((after - before).page_fetches, 0u) << ServedIndexName(which);
    EXPECT_EQ((after - before).segment_comps, 0u);
    EXPECT_EQ((after - before).bbox_comps, 0u);
    EXPECT_EQ((after - before).bucket_comps, 0u);
  }
}

// The tentpole stress test: 4 threads x 10k mixed queries per structure,
// checked element-for-element against sequential ground truth. Run under
// ThreadSanitizer by scripts/ci.sh.
TEST_F(QueryServiceTest, StressParallelMatchesSequentialGroundTruth) {
  Build(4);
  auto batch = MixedBatch(map_, 10000, 42);
  for (ServedIndex which : kAllServedIndexes) {
    auto seq = svc_->ExecuteBatchSequential(which, batch);
    ASSERT_TRUE(seq.ok());
    auto par = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(par.ok());
    EXPECT_TRUE(SameResponses(*par, *seq)) << ServedIndexName(which);
    // Same total logical work regardless of interleaving: segment and
    // bounding-box comparisons are storage-state independent.
    EXPECT_EQ(par->metrics.segment_comps, seq->metrics.segment_comps);
    EXPECT_EQ(par->metrics.bbox_comps, seq->metrics.bbox_comps);
    EXPECT_EQ(par->metrics.bucket_comps, seq->metrics.bucket_comps);
  }
}

// Observability: per-worker histogram shards must merge to the exact batch
// composition once the workers have joined (single-writer shards, merged
// with relaxed loads). Run under ThreadSanitizer by scripts/ci.sh.
TEST_F(QueryServiceTest, HistogramShardsMergeExactlyUnderFourWorkers) {
  Build(4);
  constexpr size_t kN = 800;  // kN / 4 queries of each kind
  auto batch = MixedBatch(map_, kN, 13);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(svc_->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  }
  uint64_t total = 0;
  for (QueryType type : kAllQueryTypes) {
    const LatencyHistogram::Snapshot s =
        svc_->latency_histogram(ServedIndex::kRStar, type).Merge();
    EXPECT_EQ(s.count, 3u * kN / 4) << QueryTypeName(type);
    uint64_t in_buckets = 0;
    for (uint64_t b : s.buckets) in_buckets += b;
    EXPECT_EQ(in_buckets, s.count) << "lost samples, kind "
                                   << QueryTypeName(type);
    total += s.count;
  }
  EXPECT_EQ(total, 3u * kN);
  // Other structures served nothing, so their histograms stay empty.
  EXPECT_EQ(
      svc_->latency_histogram(ServedIndex::kPmr, QueryType::kPoint).Merge()
          .count,
      0u);
  // Responses carry per-query wall time from the parallel path.
  auto res = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  ASSERT_TRUE(res.ok());
  uint64_t timed = 0;
  for (const QueryResponse& r : res->responses) timed += r.latency_ns > 0;
  EXPECT_GT(timed, 0u);
}

// Concurrent batches on *different* structures share the segment table's
// buffer pool; run them from two extra threads to cross-contend.
TEST_F(QueryServiceTest, ConcurrentCallersOnSharedSegmentTable) {
  Build(2);
  auto batch = MixedBatch(map_, 2000, 9);
  auto seq_rstar = svc_->ExecuteBatchSequential(ServedIndex::kRStar, batch);
  auto seq_pmr = svc_->ExecuteBatchSequential(ServedIndex::kPmr, batch);
  ASSERT_TRUE(seq_rstar.ok() && seq_pmr.ok());

  StatusOr<BatchResult> r1 = Status::Internal("unset");
  std::thread t([&] {
    // Direct sequential execution from a second thread, racing the pool.
    r1 = svc_->ExecuteBatchSequential(ServedIndex::kRStar, batch);
  });
  auto r2 = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  t.join();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(SameResponses(*r1, *seq_rstar));
  EXPECT_TRUE(SameResponses(*r2, *seq_pmr));
}

// -- Robustness --------------------------------------------------------------

bool IsTypedServingStatus(const Status& s) {
  return s.ok() || s.IsIoError() || s.IsCorruption() || s.IsUnavailable() ||
         s.IsNotFound();
}

class ServiceRobustnessTest : public ::testing::Test {
 protected:
  void Build(const ServiceOptions& base) {
    map_ = SmallMap();
    ServiceOptions opt = base;
    // Small serving pools so queries actually reach the (possibly faulty)
    // page files instead of being absorbed by a warm cache.
    opt.serving_buffer_frames = 16;
    auto svc = QueryService::Build(map_, opt);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    svc_ = std::move(*svc);
  }

  /// Full-world windows: each touches more pages than the 16-frame pool
  /// holds, so every query performs real reads.
  std::vector<QueryRequest> FullWindows(size_t n) {
    return std::vector<QueryRequest>(
        n, QueryRequest::WindowQ(Rect::Of(0, 0, 16383, 16383)));
  }

  PolygonalMap map_;
  std::unique_ptr<QueryService> svc_;
};

TEST_F(ServiceRobustnessTest, BreakerTripsWhileOtherStructuresKeepServing) {
  Build(ServiceOptions{});
  std::ostringstream trace;
  svc_->tracer().AttachStream(&trace);
  auto probe_batch = MixedBatch(map_, 100, 21);
  auto rstar_baseline =
      svc_->ExecuteBatchSequential(ServedIndex::kRStar, probe_batch);
  auto pmr_baseline =
      svc_->ExecuteBatchSequential(ServedIndex::kPmr, probe_batch);
  ASSERT_TRUE(rstar_baseline.ok() && pmr_baseline.ok());

  // Kill the R+-tree's storage outright.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(true);
  auto dead = svc_->ExecuteBatchSequential(ServedIndex::kRPlus,
                                           FullWindows(100));
  ASSERT_TRUE(dead.ok());
  size_t io_errors = 0, unavailable = 0;
  for (const QueryResponse& r : dead->responses) {
    ASSERT_TRUE(r.status.IsIoError() || r.status.IsUnavailable())
        << r.status.ToString();
    io_errors += r.status.IsIoError();
    unavailable += r.status.IsUnavailable();
  }
  EXPECT_TRUE(svc_->degraded(ServedIndex::kRPlus));
  EXPECT_GE(io_errors, svc_->breaker(ServedIndex::kRPlus)
                           .options().failure_threshold);
  EXPECT_GT(unavailable, 0u);  // breaker rejected the bulk without I/O
  EXPECT_GE(svc_->breaker(ServedIndex::kRPlus).times_opened(), 1u);
  EXPECT_NE(trace.str().find("\"state\":\"breaker_open\""), std::string::npos);

  // The sibling structures are untouched and still answer correctly.
  auto rstar_now =
      svc_->ExecuteBatchSequential(ServedIndex::kRStar, probe_batch);
  auto pmr_now = svc_->ExecuteBatchSequential(ServedIndex::kPmr, probe_batch);
  ASSERT_TRUE(rstar_now.ok() && pmr_now.ok());
  EXPECT_TRUE(SameResponses(*rstar_now, *rstar_baseline));
  EXPECT_TRUE(SameResponses(*pmr_now, *pmr_baseline));
  EXPECT_FALSE(svc_->degraded(ServedIndex::kRStar));
  EXPECT_FALSE(svc_->degraded(ServedIndex::kPmr));

  // Storage heals: a half-open probe succeeds and the breaker closes.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(false);
  auto healed = svc_->ExecuteBatchSequential(
      ServedIndex::kRPlus,
      FullWindows(2 * svc_->breaker(ServedIndex::kRPlus)
                          .options().probe_interval + 2));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(svc_->degraded(ServedIndex::kRPlus));
  EXPECT_TRUE(healed->responses.back().status.ok());
  EXPECT_NE(trace.str().find("\"state\":\"breaker_closed\""),
            std::string::npos);
  svc_->tracer().Close();
}

// The acceptance scenario from the issue: a seeded 1% transient-read +
// 0.1% bit-flip plan, 10k mixed queries per structure across 4 workers.
// The batch must complete with every response either ok or a typed
// kIoError / kCorruption / kUnavailable — no crashes, no untyped errors.
TEST_F(ServiceRobustnessTest, SeededFaultPlanTenThousandQueriesAllTyped) {
  ServiceOptions opt;
  opt.num_threads = 4;
  opt.inject_faults = true;
  opt.fault_plan.read_transient_rate = 0.01;
  opt.fault_plan.bitflip_rate = 0.001;
  Build(opt);
  auto batch = MixedBatch(map_, 10000, 42);
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    size_t ok = 0;
    for (const QueryResponse& r : res->responses) {
      ASSERT_TRUE(IsTypedServingStatus(r.status))
          << ServedIndexName(which) << ": " << r.status.ToString();
      ok += r.status.ok();
    }
    // Retries absorb most transient faults; the vast majority succeeds.
    EXPECT_GT(ok, batch.size() / 2) << ServedIndexName(which);
    EXPECT_GT(svc_->fault_injector(which)->stats().total_faults(), 0u)
        << ServedIndexName(which);
  }
  // The robustness metrics are exported through the /metrics snapshot.
  const std::string prom = svc_->stats().RenderPrometheus();
  for (const char* metric :
       {"lsdb_fault_reads", "lsdb_fault_read_transient", "lsdb_fault_bitflips",
        "lsdb_fault_total", "lsdb_degraded", "lsdb_breaker_rejected_total",
        "lsdb_pool_io_retries", "lsdb_pool_checksum_failures"}) {
    EXPECT_NE(prom.find(metric), std::string::npos) << metric;
  }
}

TEST_F(ServiceRobustnessTest, InjectionOffLeavesServingFaultFree) {
  Build(ServiceOptions{});
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatch(which, MixedBatch(map_, 200, 17));
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(svc_->fault_injector(which)->stats().total_faults(), 0u);
    EXPECT_FALSE(svc_->degraded(which));
    EXPECT_EQ(svc_->breaker(which).times_opened(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Every execution path answers and accounts the same way: the four entry
// points run their queries through one core, so each request gets exactly
// one trace span, one histogram sample and one lsdb_queries_total
// increment, whichever path served it.

enum class ServePath { kBatch, kThroughput, kSequential, kAdmitted };

const char* ServePathName(ServePath p) {
  switch (p) {
    case ServePath::kBatch:
      return "Batch";
    case ServePath::kThroughput:
      return "Throughput";
    case ServePath::kSequential:
      return "Sequential";
    case ServePath::kAdmitted:
      return "Admitted";
  }
  return "?";
}

using ServePathParam = std::tuple<ServePath, ServedIndex>;

std::string ServicePathTestName(
    const ::testing::TestParamInfo<ServePathParam>& info) {
  static constexpr const char* kIndexNames[] = {"RStar", "RPlus", "Pmr"};
  return std::string(ServePathName(std::get<0>(info.param))) + "_" +
         kIndexNames[static_cast<size_t>(std::get<1>(info.param))];
}

class ServicePathTest : public ::testing::TestWithParam<ServePathParam> {};

TEST_P(ServicePathTest, SameAnswersSpansSamplesAndCounts) {
  const auto [path, which] = GetParam();
  const PolygonalMap map = SmallMap();
  const auto batch = MixedBatch(map, 200, 17);
  uint64_t per_kind[std::size(kAllQueryTypes)] = {};
  for (const QueryRequest& q : batch) ++per_kind[static_cast<size_t>(q.type)];

  ServiceOptions opt;
  opt.num_threads = 2;
  opt.bulk_build = true;
  opt.introspect = true;
  // Ground truth: the sequential path on an identically built service.
  auto ref = QueryService::Build(map, opt);
  ASSERT_TRUE(ref.ok());
  auto truth = (*ref)->ExecuteBatchSequential(which, batch);
  ASSERT_TRUE(truth.ok());

  opt.throughput_mode = path == ServePath::kThroughput;
  auto svc = QueryService::Build(map, opt);
  ASSERT_TRUE(svc.ok());
  std::ostringstream trace;
  (*svc)->tracer().AttachStream(&trace);
  StatusOr<BatchResult> res = Status::Internal("unset");
  switch (path) {
    case ServePath::kBatch:
    case ServePath::kThroughput:
      res = (*svc)->ExecuteBatch(which, batch);
      break;
    case ServePath::kSequential:
      res = (*svc)->ExecuteBatchSequential(which, batch);
      break;
    case ServePath::kAdmitted:
      res = (*svc)->ExecuteBatchAdmitted(which, batch);
      break;
  }
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(SameResponses(*res, *truth));
  (*svc)->tracer().Close();

  size_t spans = 0;
  std::istringstream lines(trace.str());
  for (std::string line; std::getline(lines, line);) {
    spans += line.find("\"event\":\"span\"") != std::string::npos;
  }
  EXPECT_EQ(spans, batch.size());

  StatsRegistry& stats = (*svc)->stats();
  MetricCounters from_registry;
  const std::string index = std::string("{index=\"") + ServedIndexName(which);
  for (QueryType type : kAllQueryTypes) {
    const uint64_t n = per_kind[static_cast<size_t>(type)];
    EXPECT_EQ((*svc)->latency_histogram(which, type).Merge().count, n)
        << QueryTypeName(type);
    EXPECT_EQ(stats
                  .GetCounter("lsdb_queries_total" + index + "\",kind=\"" +
                              QueryTypeName(type) + "\"}")
                  ->value(),
              n)
        << QueryTypeName(type);
  }
  from_registry.segment_comps =
      stats.GetCounter("lsdb_segment_comps_total" + index + "\"}")->value();
  from_registry.bbox_comps =
      stats.GetCounter("lsdb_bbox_comps_total" + index + "\"}")->value();
  from_registry.bucket_comps =
      stats.GetCounter("lsdb_bucket_comps_total" + index + "\"}")->value();

  // The grouped path's shared descent counts nodes and comparisons once
  // for many windows (DESIGN.md §15), so only the per-query paths must
  // charge exactly what the sequential ground truth charges. disk_reads
  // is left out everywhere: it depends on the buffer pools' LRU state,
  // which differs between services and worker interleavings.
  if (path == ServePath::kThroughput) return;
  EXPECT_EQ(res->metrics.segment_comps, truth->metrics.segment_comps);
  EXPECT_EQ(res->metrics.bbox_comps, truth->metrics.bbox_comps);
  EXPECT_EQ(res->metrics.bucket_comps, truth->metrics.bucket_comps);
  EXPECT_EQ(from_registry.segment_comps, truth->metrics.segment_comps);
  EXPECT_EQ(from_registry.bbox_comps, truth->metrics.bbox_comps);
  EXPECT_EQ(from_registry.bucket_comps, truth->metrics.bucket_comps);
  MetricCounters per_worker_sum;
  for (const MetricCounters& c : res->per_worker) per_worker_sum += c;
  EXPECT_EQ(per_worker_sum.ToString(), res->metrics.ToString());
  for (QueryType type : kAllQueryTypes) {
    const auto got = (*svc)->profile_summary(which, type);
    const auto want = (*ref)->profile_summary(which, type);
    EXPECT_EQ(got.queries, per_kind[static_cast<size_t>(type)]);
    EXPECT_EQ(got.queries, want.queries);
    EXPECT_EQ(got.totals.nodes_visited, want.totals.nodes_visited)
        << QueryTypeName(type);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ServicePathTest,
    ::testing::Combine(::testing::Values(ServePath::kBatch,
                                         ServePath::kThroughput,
                                         ServePath::kSequential,
                                         ServePath::kAdmitted),
                       ::testing::ValuesIn(kAllServedIndexes)),
    ServicePathTestName);

}  // namespace
}  // namespace lsdb
