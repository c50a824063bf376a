// Per-layer probes of the traced run. Each probe times the benchmark's own
// calls into one layer's public functions. A probe of a per-call cost runs
// a loop of calls under one span and reports the median over rounds of the
// loop's time per call; every loop runs for milliseconds, not microseconds.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "lsdb/build/bulk_loader.h"
#include "lsdb/obs/latency_histogram.h"
#include "lsdb/query/incident.h"
#include "lsdb/query/point_gen.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/service/query_service.h"
#include "lsdb/simd/simd.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/util/crc32c.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/random.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kRounds = 5;

/// Keeps probe results observable so the loops are not optimized away.
volatile uint64_t g_sink = 0;

/// Median over rounds of the ns per call of `loop(n)`, which makes n calls.
template <class Loop>
double NsPerCall(const char* layer, const char* name, uint64_t n, Loop loop) {
  std::vector<double> ns;
  for (int i = 0; i < kRounds; ++i) {
    trace::Span span(layer, name, i);
    const uint64_t t0 = NowNs();
    loop(n);
    ns.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(ns);
}

enum ProbeKind { kWindow, kPoint, kNearest, kIncident, kProbeKinds };

struct ProbeQuery {
  lsdb::Rect window;
  lsdb::Point endpoint;    ///< kPoint, kIncident.
  lsdb::Point free_point;  ///< kNearest.
};

/// One direct call; returns whether it succeeded, its answer digest and
/// the time of the lsdb call alone in *ns.
bool ProbeCall(lsdb::SpatialIndex* idx, ProbeKind kind, const ProbeQuery& q,
               uint64_t* digest, uint64_t* ns) {
  std::vector<lsdb::SegmentHit> hits;
  lsdb::Status st;
  const uint64_t t0 = NowNs();
  switch (kind) {
    case kWindow: {
      trace::Span span("index", "SpatialIndex::WindowQueryEx");
      st = idx->WindowQueryEx(q.window, &hits);
      break;
    }
    case kPoint: {
      trace::Span span("index", "SpatialIndex::PointQueryEx");
      st = idx->PointQueryEx(q.endpoint, &hits);
      break;
    }
    case kNearest: {
      trace::Span span("index", "SpatialIndex::Nearest");
      auto res = idx->Nearest(q.free_point);
      *ns = NowNs() - t0;
      if (!res.ok()) return false;
      *digest = HashDistance(res->squared_distance);
      return true;
    }
    default: {
      trace::Span span("query", "IncidentSegments");
      st = lsdb::IncidentSegments(idx, q.endpoint, &hits);
      break;
    }
  }
  *ns = NowNs() - t0;
  *digest = HashIds(hits);
  return st.ok();
}

/// Direct single-thread calls into each structure, per query kind.
void StructureProbe(const lsdb::PolygonalMap& map, const ProbeTargets& t,
                    uint64_t seed, Report* r) {
  constexpr size_t kPerKind = 256;
  const char* const kNames[kProbeKinds] = {"window", "point", "nearest",
                                           "incident"};
  auto two_stage = lsdb::TwoStageQueryPointGenerator::Create(t.pmr);
  CheckOk(two_stage.status(), "TwoStageQueryPointGenerator::Create");
  const lsdb::Coord world = lsdb::Coord{1} << kWorldLog2;
  const lsdb::Coord side = WindowSide();
  lsdb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  std::vector<ProbeQuery> queries(kPerKind);
  for (size_t i = 0; i < kPerKind; ++i) {
    const lsdb::Segment& seg = map.segments[rng.Uniform(map.segments.size())];
    const auto x = static_cast<lsdb::Coord>(rng.Uniform(world - side));
    const auto y = static_cast<lsdb::Coord>(rng.Uniform(world - side));
    queries[i].window = lsdb::Rect::Of(x, y, x + side, y + side);
    queries[i].endpoint = rng.Bernoulli(0.5) ? seg.b : seg.a;
    queries[i].free_point = i % 2 == 0
                                ? lsdb::UniformQueryPoint(&rng, kWorldLog2)
                                : two_stage->Next(&rng);
  }

  std::vector<double> lat[3][kProbeKinds];
  lsdb::MetricCounters local;
  lsdb::ScopedCounterSink sink(&local);
  // The first pass warms the caches with the same queries; only the
  // second is recorded.
  for (int pass = 0; pass < 2; ++pass) {
    for (int kind = 0; kind < kProbeKinds; ++kind) {
      for (size_t i = 0; i < kPerKind; ++i) {
        uint64_t expected = 0;
        for (size_t k = 0; k < 3; ++k) {
          const size_t s = (k + i) % 3;
          uint64_t digest = 0, ns = 0;
          const bool ok = ProbeCall(t.index[s], static_cast<ProbeKind>(kind),
                                    queries[i], &digest, &ns);
          if (pass == 1) lat[s][kind].push_back(static_cast<double>(ns) / 1e3);
          ++r->attempted;
          if (k == 0) expected = digest;
          if (!ok || digest != expected) ++r->failed;
        }
      }
    }
  }
  for (size_t s = 0; s < 3; ++s) {
    for (int kind = 0; kind < kProbeKinds; ++kind) {
      r->Add(std::string(kStructureKeys[s]) + "." + kNames[kind] + "_us",
             Median(lat[s][kind]), "us");
    }
  }
}

void StorageProbes(const ProbeTargets& t, Report* r) {
  lsdb::BufferPool* pool = t.index[0]->mutable_pool();
  constexpr uint64_t kFetches = 200000;
  auto fetch_loop = [pool](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      auto ref = pool->Fetch(0);
      CheckOk(ref.status(), "BufferPool::Fetch");
      g_sink = g_sink + ref->data()[0];
    }
  };
  r->Add("storage.fetch_ns.1t",
         NsPerCall("storage", "BufferPool::Fetch", kFetches, fetch_loop),
         "ns");
  r->Add("storage.fetch_ns.2t",
         NsPerCall("storage", "BufferPool::Fetch", kFetches,
                   [&](uint64_t n) {
                     const uint32_t parent = trace::CurrentSpan();
                     std::thread other([&] {
                       trace::AdoptParent adopt(parent);
                       fetch_loop(n);
                     });
                     fetch_loop(n);
                     other.join();
                   }),
         "ns");

  // Misses: cycle through more pages than a 16-frame pool holds, so every
  // fetch reads, verifies the page checksum and evicts a clean frame.
  constexpr uint32_t kPages = 64;
  lsdb::MemPageFile file(1024);
  std::vector<uint8_t> page(1024);
  lsdb::Rng rng(7);
  for (uint32_t i = 0; i < kPages; ++i) {
    for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Uniform(256));
    auto id = file.Allocate();
    CheckOk(id.status(), "MemPageFile::Allocate");
    CheckOk(file.Write(*id, page.data()), "MemPageFile::Write");
  }
  lsdb::BufferPool small(&file, 16, nullptr);
  uint64_t next = 0;
  r->Add("storage.miss_ns",
         NsPerCall("storage", "BufferPool::Fetch", 20000,
                   [&](uint64_t n) {
                     for (uint64_t i = 0; i < n; ++i) {
                       auto ref = small.Fetch(
                           static_cast<lsdb::PageId>(next++ % kPages));
                       CheckOk(ref.status(), "BufferPool::Fetch");
                       g_sink = g_sink + ref->data()[0];
                     }
                   }),
         "ns");

  lsdb::Segment seg;
  r->Add("seg.get_ns",
         NsPerCall("seg", "SegmentTable::Get", kFetches,
                   [&](uint64_t n) {
                     for (uint64_t i = 0; i < n; ++i) {
                       CheckOk(t.segs->Get(static_cast<lsdb::SegmentId>(i % 8),
                                           &seg),
                               "SegmentTable::Get");
                       g_sink = g_sink + static_cast<uint64_t>(seg.a.x);
                     }
                   }),
         "ns");
}

void UtilProbes(Report* r) {
  std::vector<uint8_t> page(1024);
  lsdb::Rng rng(11);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Uniform(256));
  r->Add("crc.ns_per_page",
         NsPerCall("util", "crc32c::Compute", 20000,
                   [&](uint64_t n) {
                     uint32_t c = 0;
                     for (uint64_t i = 0; i < n; ++i) {
                       page[0] = static_cast<uint8_t>(c);
                       c = lsdb::crc32c::Compute(page.data(), page.size());
                     }
                     g_sink = g_sink + c;
                   }),
         "ns");

  lsdb::Mutex mu("perfbench.mu");
  uint64_t guarded = 0;
  r->Add("mutex.lock_ns",
         NsPerCall("util", "Mutex::Lock", 2000000,
                   [&](uint64_t n) {
                     for (uint64_t i = 0; i < n; ++i) {
                       mu.Lock();
                       ++guarded;
                       mu.Unlock();
                     }
                     g_sink = g_sink + guarded;
                   }),
         "ns");

  // One paper-sized R-tree node: M = 50 entries on a 1K page.
  lsdb::simd::RectSoA node;
  node.Reset(50);
  auto random_rect = [&rng](lsdb::Coord extent) {
    const auto x = static_cast<lsdb::Coord>(rng.Uniform(16384 - extent));
    const auto y = static_cast<lsdb::Coord>(rng.Uniform(16384 - extent));
    return lsdb::Rect::Of(x, y, x + extent, y + extent);
  };
  for (size_t i = 0; i < 50; ++i) node.Set(i, random_rect(2048));
  std::vector<lsdb::Rect> windows;
  for (size_t i = 0; i < 1024; ++i) windows.push_back(random_rect(164));
  r->Add("simd.mask_ns",
         NsPerCall("simd", "simd::IntersectMask64", 1000000,
                   [&](uint64_t n) {
                     uint64_t acc = 0;
                     for (uint64_t i = 0; i < n; ++i) {
                       acc += lsdb::simd::IntersectMask64(node,
                                                          windows[i & 1023]);
                     }
                     g_sink = g_sink + acc;
                   }),
         "ns");

  lsdb::LatencyHistogram hist(1);
  r->Add("obs.record_ns",
         NsPerCall("obs", "LatencyHistogram::Record", 2000000,
                   [&](uint64_t n) {
                     for (uint64_t i = 0; i < n; ++i) {
                       hist.Record(0, (i * 2654435761u) & 0xfffff);
                     }
                   }),
         "ns");
}

/// BulkLoad of each structure into a fresh page file.
void BuildProbe(const lsdb::PolygonalMap& map, Report* r) {
  lsdb::BulkItems items;
  items.reserve(map.segments.size());
  for (lsdb::SegmentId id = 0; id < map.segments.size(); ++id) {
    items.emplace_back(id, map.segments[id]);
  }
  const lsdb::IndexOptions io;
  std::vector<double> secs[3];
  for (int rep = 0; rep < 3; ++rep) {
    lsdb::MemPageFile seg_file(io.page_size);
    lsdb::BufferPool seg_pool(&seg_file, io.buffer_frames, nullptr);
    lsdb::SegmentTable segs(&seg_pool, nullptr);
    for (const lsdb::Segment& s : map.segments) {
      CheckOk(segs.Append(s).status(), "SegmentTable::Append");
    }
    for (int k = 0; k < 3; ++k) {
      lsdb::MemPageFile file(io.page_size);
      std::unique_ptr<lsdb::SpatialIndex> idx;
      if (k == 0) {
        auto t = std::make_unique<lsdb::RStarTree>(io, &file, &segs);
        CheckOk(t->Init(), "RStarTree::Init");
        idx = std::move(t);
      } else if (k == 1) {
        auto t = std::make_unique<lsdb::RPlusTree>(io, &file, &segs);
        CheckOk(t->Init(), "RPlusTree::Init");
        idx = std::move(t);
      } else {
        auto t = std::make_unique<lsdb::PmrQuadtree>(io, &file, &segs);
        CheckOk(t->Init(), "PmrQuadtree::Init");
        idx = std::move(t);
      }
      trace::Span span("build", "BulkLoad", k);
      const uint64_t t0 = NowNs();
      CheckOk(lsdb::BulkLoad(idx.get(), items), "BulkLoad");
      secs[k].push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  }
  for (int k = 0; k < 3; ++k) {
    r->Add(std::string("build.") + kStructureKeys[k] + "_s", Median(secs[k]),
           "s");
  }
}

/// Snapshot write and zero-copy open of a freshly built service, and the
/// extra cost of the first batch after the open (pages verified on first
/// touch) over the same batch once every page is verified.
void SnapshotProbe(const lsdb::PolygonalMap& map, const ProbeTargets& t,
                   const Options& o, Report* r) {
  lsdb::ServiceOptions so;
  so.num_threads = 1;
  so.bulk_build = true;
  std::unique_ptr<lsdb::QueryService> built;
  {
    trace::Span span("build", "QueryService::Build");
    auto svc = lsdb::QueryService::Build(map, so);
    CheckOk(svc.status(), "QueryService::Build");
    built = std::move(*svc);
  }
  const std::string path =
      o.work_dir + "/probe-" + std::to_string(o.seed) + ".lsnap";
  std::vector<double> write_s, open_s, first_ms;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t t0 = NowNs();
    {
      trace::Span span("snapshot", "QueryService::WriteSnapshot", rep);
      CheckOk(built->WriteSnapshot(path), "QueryService::WriteSnapshot");
    }
    write_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    t0 = NowNs();
    auto opened = [&] {
      trace::Span span("snapshot", "QueryService::OpenFromSnapshot", rep);
      return lsdb::QueryService::OpenFromSnapshot(path, so, true);
    }();
    CheckOk(opened.status(), "QueryService::OpenFromSnapshot");
    open_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    double pass_ms[2] = {0, 0};
    for (double& ms : pass_ms) {
      for (lsdb::ServedIndex which : lsdb::kAllServedIndexes) {
        const uint64_t b0 = NowNs();
        auto res = [&] {
          trace::Span span("service", "QueryService::ExecuteBatch", rep);
          return (*opened)->ExecuteBatch(which, t.batch);
        }();
        ms += static_cast<double>(NowNs() - b0) / 1e6;
        r->attempted += t.batch.size();
        if (!res.ok()) {
          r->failed += t.batch.size();
          continue;
        }
        for (const lsdb::QueryResponse& resp : res->responses) {
          if (!resp.status.ok()) ++r->failed;
        }
      }
    }
    first_ms.push_back(pass_ms[0] - pass_ms[1]);
  }
  std::remove(path.c_str());
  r->Add("snapshot.write_s", Median(write_s), "s");
  r->Add("snapshot.open_s", Median(open_s), "s");
  r->Add("snapshot.first_pass_ms", Median(first_ms), "ms");
}

}  // namespace

void RunLayerProbes(const lsdb::PolygonalMap& map, const ProbeTargets& t,
                    const Options& o, Report* r) {
  trace::Span span("bench", "bench.probes");
  StructureProbe(map, t, o.seed, r);
  StorageProbes(t, r);
  UtilProbes(r);
  BuildProbe(map, r);
  SnapshotProbe(map, t, o, r);
}

}  // namespace perfbench
