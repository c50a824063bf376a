// range_2t and nearest_1t: closed-loop batches through QueryService.

#include <cstdio>
#include <memory>
#include <string>

#include "lsdb/query/point_gen.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/random.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lsdb::QueryRequest;
using lsdb::QueryResponse;
using lsdb::QueryService;
using lsdb::ServedIndex;

constexpr size_t kBatch = 1024;
constexpr size_t kPoolBatches = 64;   ///< Distinct batches the loop cycles.
constexpr size_t kCountBatches = 4;   ///< Batches in the count pass.
constexpr size_t kVerifyBatches = 2;  ///< Parallel-vs-sequential batches.

lsdb::Point RandomEndpoint(const lsdb::PolygonalMap& map, lsdb::Rng* rng) {
  const lsdb::Segment& s = map.segments[rng->Uniform(map.segments.size())];
  return rng->Bernoulli(0.5) ? s.b : s.a;
}

uint64_t Digest(const QueryRequest& q, const QueryResponse& resp) {
  return q.type == lsdb::QueryType::kNearest
             ? HashDistance(resp.nearest.squared_distance)
             : HashIds(resp.hits);
}

/// Alters one served answer so the oracle must catch it.
void Corrupt(const QueryRequest& q, QueryResponse* resp) {
  if (q.type == lsdb::QueryType::kNearest) {
    resp->nearest.squared_distance += 1.0;
  } else if (!resp->hits.empty()) {
    resp->hits.pop_back();
  } else {
    resp->hits.push_back(lsdb::SegmentHit{0, lsdb::Segment{}});
  }
}

using Fixtures = std::vector<std::unique_ptr<QueryService>>;

struct ServiceRun {
  const Options* opt = nullptr;
  Report* report = nullptr;
  std::vector<std::vector<QueryRequest>> batches;
  std::unique_ptr<Oracle> oracle;
  bool corrupt_pending = false;

  /// Checks one executed batch; returns the number of failed queries.
  uint64_t Check(size_t b, lsdb::BatchResult* res) {
    const auto& batch = batches[b];
    uint64_t bad = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryResponse& resp = res->responses[i];
      if (corrupt_pending && resp.status.ok()) {
        Corrupt(batch[i], &resp);
        corrupt_pending = false;
      }
      if (!resp.status.ok() ||
          !oracle->Check(b * kBatch + i, Digest(batch[i], resp))) {
        ++bad;
      }
    }
    return bad;
  }

  /// Executes batch `b` on `which`, then checks the answers; failures
  /// land in the report. `*secs` gets the time of the ExecuteBatch call
  /// alone, without the check.
  bool Execute(QueryService* svc, ServedIndex which, size_t b,
               lsdb::BatchResult* out, double* secs = nullptr) {
    uint64_t elapsed_ns = 0;
    auto res = [&] {
      trace::Span span("service", "QueryService::ExecuteBatch", b);
      const uint64_t t0 = NowNs();
      auto r = svc->ExecuteBatch(which, batches[b]);
      elapsed_ns = NowNs() - t0;
      return r;
    }();
    if (secs != nullptr) *secs = static_cast<double>(elapsed_ns) / 1e9;
    report->attempted += kBatch;
    if (!res.ok()) {
      std::fprintf(stderr, "perfbench: ExecuteBatch: %s\n",
                   res.status().ToString().c_str());
      report->failed += kBatch;
      return false;
    }
    *out = std::move(*res);
    report->failed += Check(b, out);
    return true;
  }

  SliceRecord Slice(QueryService* svc, size_t round) {
    SliceRecord rec;
    rec.executors = svc->num_threads();
    const size_t b = round % batches.size();
    for (size_t k = 0; k < 3; ++k) {
      const size_t s = (k + round) % 3;
      lsdb::BatchResult res;
      double secs = 0;
      if (!Execute(svc, lsdb::kAllServedIndexes[s], b, &res, &secs)) continue;
      rec.struct_s[s] = secs;
      rec.wall_s += secs;
      rec.queries += kBatch;
      rec.lat_us[s].reserve(kBatch);
      for (const QueryResponse& resp : res.responses) {
        rec.lat_us[s].push_back(static_cast<double>(resp.latency_ns) / 1e3);
        rec.busy_s += static_cast<double>(resp.latency_ns) / 1e9;
      }
    }
    return rec;
  }

  /// Deterministic per-structure counts over the first batches, on a
  /// single-worker service whose pools have served nothing yet.
  void CountPass(QueryService* svc) {
    StructureCounts c[3];
    lsdb::BufferPool* seg_pool = svc->segment_table()->pool();
    const uint64_t seg_h0 = seg_pool->hits(), seg_m0 = seg_pool->misses();
    for (size_t k = 0; k < 3; ++k) {
      const ServedIndex which = lsdb::kAllServedIndexes[k];
      const lsdb::BufferPool* pool = svc->index(which)->pool();
      const uint64_t h0 = pool->hits(), m0 = pool->misses();
      for (size_t b = 0; b < kCountBatches; ++b) {
        lsdb::BatchResult res;
        if (!Execute(svc, which, b, &res)) continue;
        c[k].work += res.metrics;
        c[k].queries += kBatch;
      }
      c[k].pool_hits = pool->hits() - h0;
      c[k].pool_misses = pool->misses() - m0;
    }
    AddCountMetrics(c, seg_pool->hits() - seg_h0,
                    seg_pool->misses() - seg_m0, report);
  }

  /// ExecuteBatch must answer exactly as the sequential ground truth.
  void VerifyAgainstSequential(QueryService* svc) {
    for (size_t b = 0; b < kVerifyBatches; ++b) {
      for (ServedIndex which : lsdb::kAllServedIndexes) {
        lsdb::BatchResult par;
        if (!Execute(svc, which, b, &par)) continue;
        auto seq = [&] {
          trace::Span span("service", "QueryService::ExecuteBatchSequential",
                           b);
          return svc->ExecuteBatchSequential(which, batches[b]);
        }();
        report->attempted += kBatch;
        if (!seq.ok() || !lsdb::SameResponses(par, *seq)) {
          std::fprintf(stderr,
                       "perfbench: %s parallel and sequential answers differ\n",
                       lsdb::ServedIndexName(which));
          report->failed += kBatch;
          continue;
        }
        report->failed += Check(b, &*seq);
      }
    }
  }

  static uint64_t PinWaits(const Fixtures& services) {
    uint64_t n = 0;
    for (const auto& svc : services) {
      n += svc->segment_table()->pool()->pin_waits();
      for (ServedIndex which : lsdb::kAllServedIndexes) {
        n += svc->index(which)->pool()->pin_waits();
      }
    }
    return n;
  }

  /// Verification, timed rounds, probes and metrics, once every fixture
  /// is set up. `counted` is a single-worker service.
  void Serve(const lsdb::PolygonalMap& map, const Fixtures& primary,
             const Fixtures& secondary, QueryService* counted) {
    oracle = std::make_unique<Oracle>(batches.size() * kBatch);
    {
      trace::Span span("bench", "bench.count_pass");
      CountPass(counted);
    }
    {
      trace::Span span("bench", "bench.verify");
      VerifyAgainstSequential(primary[0].get());
      VerifyAgainstSequential(secondary[0].get());
    }
    corrupt_pending = opt->corrupt_response;
    const auto slices = TimedRounds(
        opt->seconds, opt->trace, [&](bool is_primary, size_t round) {
          trace::Span span("bench", "bench.slice", round);
          const auto& fixtures = is_primary ? primary : secondary;
          return Slice(fixtures[round % kFixtures].get(), round);
        });
    AddLoopMetrics(slices, opt->trace, report);
    report->Add("storage.pin_waits",
                static_cast<double>(PinWaits(primary) + PinWaits(secondary)),
                "count");
    if (opt->trace) {
      QueryService* svc = primary[0].get();
      ProbeTargets t;
      for (size_t k = 0; k < 3; ++k) {
        t.index[k] = svc->index(lsdb::kAllServedIndexes[k]);
      }
      t.pmr = svc->pmr();
      t.segs = svc->segment_table();
      t.batch = batches[0];
      RunLayerProbes(map, t, *opt, report);
    }
  }
};

lsdb::ServiceOptions ServiceOpts(uint32_t workers) {
  lsdb::ServiceOptions so;
  so.num_threads = workers;
  so.bulk_build = true;
  return so;
}

std::unique_ptr<QueryService> BuildService(const lsdb::PolygonalMap& map,
                                           uint32_t workers) {
  trace::Span span("build", "QueryService::Build");
  auto svc = QueryService::Build(map, ServiceOpts(workers));
  CheckOk(svc.status(), "QueryService::Build");
  return std::move(*svc);
}

std::unique_ptr<QueryService> OpenSnapshot(const std::string& path,
                                           uint32_t workers) {
  trace::Span span("snapshot", "QueryService::OpenFromSnapshot");
  auto svc = QueryService::OpenFromSnapshot(path, ServiceOpts(workers),
                                            /*zero_copy=*/true);
  CheckOk(svc.status(), "QueryService::OpenFromSnapshot");
  return std::move(*svc);
}

}  // namespace

void RunRange2t(const lsdb::PolygonalMap& map, const Options& o, Report* r) {
  std::vector<double> setup_s;
  Fixtures two;
  for (int i = 0; i < kSetups; ++i) {
    if (two.size() == kFixtures) two.erase(two.begin());
    trace::Span span("bench", "bench.setup", i);
    const uint64_t t0 = NowNs();
    two.push_back(BuildService(map, 2));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  r->Add("setup_s", Median(setup_s), "s");
  Fixtures one;
  for (size_t f = 0; f < kFixtures; ++f) one.push_back(BuildService(map, 1));

  ServiceRun run;
  run.opt = &o;
  run.report = r;
  lsdb::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 1);
  const lsdb::Coord side = WindowSide();
  const uint64_t span_xy = (uint64_t{1} << kWorldLog2) - side;
  for (size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<QueryRequest> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      if (i % 2 == 0) {
        const auto x = static_cast<lsdb::Coord>(rng.Uniform(span_xy));
        const auto y = static_cast<lsdb::Coord>(rng.Uniform(span_xy));
        batch.push_back(
            QueryRequest::WindowQ(lsdb::Rect::Of(x, y, x + side, y + side)));
      } else {
        batch.push_back(QueryRequest::PointQ(RandomEndpoint(map, &rng)));
      }
    }
    run.batches.push_back(std::move(batch));
  }
  run.Serve(map, two, one, one[0].get());
}

void RunNearest1t(const lsdb::PolygonalMap& map, const Options& o,
                  Report* r) {
  // One file per set-up: each 2-worker fixture maps the same file as the
  // 1-worker fixture it is compared with.
  auto path = [&](int i) {
    return o.work_dir + "/nearest_1t-" + std::to_string(o.seed) + "-" +
           std::to_string(i) + ".lsnap";
  };
  std::vector<double> setup_s;
  Fixtures one;
  for (int i = 0; i < kSetups; ++i) {
    if (one.size() == kFixtures) one.erase(one.begin());
    trace::Span span("bench", "bench.setup", i);
    const uint64_t t0 = NowNs();
    {
      std::unique_ptr<QueryService> built = BuildService(map, 1);
      trace::Span write("snapshot", "QueryService::WriteSnapshot");
      CheckOk(built->WriteSnapshot(path(i)), "QueryService::WriteSnapshot");
    }
    one.push_back(OpenSnapshot(path(i), 1));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  r->Add("setup_s", Median(setup_s), "s");
  Fixtures two;
  for (size_t f = 0; f < kFixtures; ++f) {
    two.push_back(OpenSnapshot(path(kSetups - kFixtures + f), 2));
  }
  // Every service keeps its own mapping; the files are no longer needed.
  for (int i = 0; i < kSetups; ++i) std::remove(path(i).c_str());

  ServiceRun run;
  run.opt = &o;
  run.report = r;
  lsdb::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 2);
  auto two_stage = lsdb::TwoStageQueryPointGenerator::Create(one[0]->pmr());
  CheckOk(two_stage.status(), "TwoStageQueryPointGenerator::Create");
  for (size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<QueryRequest> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      switch (i % 4) {
        case 0:
          batch.push_back(QueryRequest::NearestQ(
              lsdb::UniformQueryPoint(&rng, kWorldLog2)));
          break;
        case 2:
          batch.push_back(QueryRequest::NearestQ(two_stage->Next(&rng)));
          break;
        default:
          batch.push_back(QueryRequest::IncidentQ(RandomEndpoint(map, &rng)));
          break;
      }
    }
    run.batches.push_back(std::move(batch));
  }
  run.Serve(map, one, two, one[0].get());
}

}  // namespace perfbench
