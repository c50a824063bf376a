#include "lsdb/service/query_service.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <utility>

#include "lsdb/build/bulk_loader.h"
#include "lsdb/geom/morton.h"
#include "lsdb/query/incident.h"
#include "lsdb/snapshot/snapshot_writer.h"
#include "lsdb/util/mutex.h"

namespace lsdb {

const char* ServedIndexName(ServedIndex s) {
  static constexpr const char* kNames[] = {"R*", "R+", "PMR"};
  const size_t i = static_cast<size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* QueryTypeName(QueryType t) {
  static constexpr const char* kNames[] = {"point", "window", "nearest",
                                           "incident"};
  const size_t i = static_cast<size_t>(t);
  return i < std::size(kNames) ? kNames[i] : "?";
}

bool SameResponse(const QueryResponse& a, const QueryResponse& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id || !(a.hits[i].seg == b.hits[i].seg)) {
      return false;
    }
  }
  return a.nearest.id == b.nearest.id &&
         a.nearest.squared_distance == b.nearest.squared_distance &&
         a.nearest.seg == b.nearest.seg;
}

bool SameResponses(const BatchResult& a, const BatchResult& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (size_t i = 0; i < a.responses.size(); ++i) {
    if (!SameResponse(a.responses[i], b.responses[i])) return false;
  }
  return true;
}

namespace {
/// Cache-line-padded per-worker counters so concurrent increments on
/// neighbouring workers do not false-share.
struct alignas(64) PaddedCounters {
  MetricCounters c;
};

/// The window a groupable (window or point) request descends with.
Rect GroupedWindow(const QueryRequest& q) {
  return q.type == QueryType::kWindow ? q.window : Rect::AtPoint(q.point);
}

/// Spatial sort key for throughput-mode grouping: Hilbert index of the
/// request window's center, clamped to the 16-bit curve domain.
uint64_t GroupedWindowKey(const QueryRequest& q) {
  const Point c = GroupedWindow(q).Center();
  const uint32_t x = static_cast<uint32_t>(std::clamp<Coord>(c.x, 0, 65535));
  const uint32_t y = static_cast<uint32_t>(std::clamp<Coord>(c.y, 0, 65535));
  return HilbertEncode(16, x, y);
}

/// Constructs a typed tree over `file`: Open() re-reads a snapshot's
/// superblock, Init() starts an empty structure for the build.
template <typename Tree>
Status MakeTree(const IndexOptions& io, PageFile* file, SegmentTable* segs,
                bool open, std::unique_ptr<SpatialIndex>* out) {
  auto tree = std::make_unique<Tree>(io, file, segs);
  LSDB_RETURN_IF_ERROR(open ? tree->Open() : tree->Init());
  *out = std::move(tree);
  return Status::OK();
}

/// Runs one request against `idx`.
void Execute(SpatialIndex* idx, const QueryRequest& q, QueryResponse* r) {
  switch (q.type) {
    case QueryType::kPoint:
      r->status = idx->PointQueryEx(q.point, &r->hits);
      break;
    case QueryType::kWindow:
      r->status = idx->WindowQueryEx(q.window, &r->hits);
      break;
    case QueryType::kNearest: {
      auto n = idx->Nearest(q.point);
      if (n.ok()) r->nearest = *n;
      r->status = n.status();
      break;
    }
    case QueryType::kIncident:
      r->status = IncidentSegments(idx, q.point, &r->hits);
      break;
  }
}
}  // namespace

QueryService::QueryService(const ServiceOptions& options)
    : options_(options) {
  for (ServedIndex which : kAllServedIndexes) {
    served(which).name = ServedIndexName(which);
  }
}

QueryService::~QueryService() {
  // Shutdown order matters: close the admission queue first (future
  // Offers shed with kShutdown), complete every drained ticket, then
  // destroy the worker pool. The pool's destructor drains already-queued
  // dispatch tasks — they find the queue empty and no-op — so no ticket
  // is ever silently dropped and no dispatch task outlives admission_.
  if (admission_ != nullptr) {
    std::vector<AdmissionQueue::Ticket> drained;
    admission_->Close(&drained);
    for (AdmissionQueue::Ticket& t : drained) {
      admission_->OnFinished(t.request.type);
      QueryResponse r;
      r.status = Status::Cancelled("query service shutting down");
      if (t.done) t.done(std::move(r));
    }
  }
  workers_.reset();
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Build(
    const PolygonalMap& map, const ServiceOptions& options) {
  std::unique_ptr<QueryService> svc(new QueryService(options));
  LSDB_RETURN_IF_ERROR(svc->BuildIndexes(map));
  svc->workers_ = std::make_unique<WorkerPool>(options.num_threads);
  LSDB_RETURN_IF_ERROR(svc->SetUpObservability());
  return svc;
}

StatusOr<std::unique_ptr<QueryService>> QueryService::OpenFromSnapshot(
    const std::string& path, const ServiceOptions& options, bool zero_copy) {
  LSDB_ASSIGN_OR_RETURN(std::unique_ptr<snapshot::SnapshotReader> reader,
                        snapshot::SnapshotReader::Open(path));
  // The snapshot header is authoritative for the structure parameters: the
  // superblocks were written with them, and each index's Open() re-checks
  // its options against its superblock.
  ServiceOptions opts = options;
  const snapshot::Header& h = reader->header();
  opts.index.page_size = h.page_size;
  opts.index.world_log2 = h.world_log2;
  opts.index.pmr_split_threshold = h.pmr_split_threshold;
  opts.index.pmr_max_depth = h.pmr_max_depth;
  opts.index.pmr_store_bboxes = h.pmr_store_bboxes;
  std::unique_ptr<QueryService> svc(new QueryService(opts));
  svc->snapshot_ = std::move(reader);
  svc->snapshot_zero_copy_ = zero_copy;
  LSDB_RETURN_IF_ERROR(svc->OpenIndexesFromSnapshot(zero_copy));
  svc->workers_ = std::make_unique<WorkerPool>(opts.num_threads);
  LSDB_RETURN_IF_ERROR(svc->SetUpObservability());
  svc->stats_.GetCounter("lsdb_snapshot_opens_total")->Add(1);
  return svc;
}

Status QueryService::WriteSnapshot(const std::string& path) {
  // Writable backends may hold dirty pages in the pools and stale
  // superblocks; flush so the backend files are byte-complete. Read-only
  // backends (a service itself opened from a snapshot) are durable by
  // definition and would reject the writes.
  if (!seg_file_->read_only()) {
    LSDB_RETURN_IF_ERROR(segs_->Flush());
    for (ServedStructure& s : served_) {
      LSDB_RETURN_IF_ERROR(s.index->Flush());
    }
  }
  snapshot::SnapshotParams params;
  params.page_size = options_.index.page_size;
  params.world_log2 = options_.index.world_log2;
  params.pmr_split_threshold = options_.index.pmr_split_threshold;
  params.pmr_max_depth = options_.index.pmr_max_depth;
  params.pmr_store_bboxes = options_.index.pmr_store_bboxes;
  params.segment_count = segs_->size();
  // Stream from the raw backends, below the injectors, so an armed fault
  // plan cannot perturb the serialized bytes.
  return snapshot::WriteSnapshot(path, params, seg_file_.get(),
                                 served_[0].file.get(), served_[1].file.get(),
                                 served_[2].file.get());
}

Status QueryService::SetUpObservability() {
  // Created after the worker pool: one single-writer shard per worker,
  // plus one for ExecuteBatchSequential's calling thread.
  const uint32_t shards = workers_->size() + 1;
  for (ServedStructure& s : served_) {
    const std::string index = std::string("index=\"") + s.name + "\"";
    const auto counter = [&](const char* name) {
      return stats_.GetCounter(std::string(name) + "{" + index + "}");
    };
    for (QueryType type : kAllQueryTypes) {
      const size_t k = static_cast<size_t>(type);
      const std::string labels =
          index + ",kind=\"" + QueryTypeName(type) + "\"";
      s.histograms[k] = std::make_unique<LatencyHistogram>(shards);
      stats_.RegisterHistogram("lsdb_query_latency_ns", labels,
                               s.histograms[k].get());
      s.profiles[k] = std::make_unique<introspect::ProfileAccumulator>(shards);
      s.queries_total[k] =
          stats_.GetCounter("lsdb_queries_total{" + labels + "}");
    }
    s.disk_reads_total = counter("lsdb_disk_reads_total");
    s.segment_comps_total = counter("lsdb_segment_comps_total");
    s.bbox_comps_total = counter("lsdb_bbox_comps_total");
    s.bucket_comps_total = counter("lsdb_bucket_comps_total");
    s.batches_total = counter("lsdb_batches_total");
  }
  introspect_on_.store(options_.introspect, std::memory_order_relaxed);
  if (!options_.trace_path.empty()) {
    TracerOptions topt;
    topt.pool_event_sample_every = options_.trace_pool_sample_every;
    topt.max_bytes = options_.trace_max_bytes;
    LSDB_RETURN_IF_ERROR(tracer_.OpenFile(options_.trace_path, topt));
  }
  admission_ = std::make_unique<AdmissionQueue>(options_.admission);
  // Pool events flow to the service tracer (no-ops while it is disabled).
  // The index-owned pools are private to each structure; their cache
  // behaviour reaches the registry via RefreshGauges() instead.
  seg_pool_->SetTracer(&tracer_, "segments");
  return Status::OK();
}

StatsRegistry& QueryService::stats() {
  RefreshGauges();
  return stats_;
}

const LatencyHistogram& QueryService::latency_histogram(
    ServedIndex which, QueryType type) const {
  return *served(which).histograms[static_cast<size_t>(type)];
}

introspect::ProfileAccumulator::Summary QueryService::profile_summary(
    ServedIndex which, QueryType type) const {
  return served(which).profiles[static_cast<size_t>(type)]->Merge();
}

void QueryService::EnablePageHeat() {
  const auto attach = [this](std::unique_ptr<introspect::PageHeatMap>& heat,
                             BufferPool* pool, const PageFile* file) {
    if (heat != nullptr) return;  // idempotent; keep existing counts
    // Served structures are frozen, so page_count() is final: no accesses
    // land in the overflow bucket.
    heat = std::make_unique<introspect::PageHeatMap>(file->page_count(),
                                                     workers_->size());
    pool->SetPageHeat(heat.get());
  };
  attach(seg_heat_, seg_pool_.get(), seg_file_.get());
  for (ServedStructure& s : served_) {
    attach(s.heat, s.index->mutable_pool(), s.file.get());
  }
}

void QueryService::RefreshGauges() {
  using Values = std::initializer_list<std::pair<const char*, double>>;
  const auto set = [this](const std::string& labels, Values values) {
    for (const auto& [name, v] : values) stats_.GetGauge(name + labels)->Set(v);
  };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  // Pool, page-heat and snapshot-section gauges of one paged file.
  const auto pool_gauges = [&](const char* name, const BufferPool* pool,
                               const introspect::PageHeatMap* heat,
                               const PageFile* file) {
    const std::string labels = std::string("{pool=\"") + name + "\"}";
    set(labels, {{"lsdb_bufferpool_hit_ratio", pool->hit_ratio()},
                 {"lsdb_bufferpool_hits", d(pool->hits())},
                 {"lsdb_bufferpool_misses", d(pool->misses())},
                 {"lsdb_bufferpool_evictions", d(pool->evictions())},
                 {"lsdb_bufferpool_pin_waits", d(pool->pin_waits())},
                 {"lsdb_pool_io_retries", d(pool->io_retries())},
                 {"lsdb_pool_checksum_failures", d(pool->checksum_failures())}});
    if (heat != nullptr) {
      set(labels, {{"lsdb_page_heat_touches", d(heat->total())}});
    }
    // Snapshot sections are the only mapped files a service serves.
    if (const auto* view = dynamic_cast<const MmapPageFile*>(file)) {
      set(std::string("{section=\"") + name + "\"}",
          {{"lsdb_snapshot_pages_verified", d(view->pages_verified())},
           {"lsdb_snapshot_section_pages", d(view->page_count())}});
    }
  };
  pool_gauges("segments", seg_pool_.get(), seg_heat_.get(), seg_file_.get());
  for (const ServedStructure& s : served_) {
    pool_gauges(s.name, s.index->pool(), s.heat.get(), s.file.get());
    const FaultStats& fs = s.injector->stats();
    set(std::string("{index=\"") + s.name + "\"}",
        {{"lsdb_degraded", s.breaker.open() ? 1.0 : 0.0},
         {"lsdb_breaker_rejected_total", d(s.breaker.rejected())},
         {"lsdb_breaker_times_opened", d(s.breaker.times_opened())},
         {"lsdb_fault_reads", d(fs.reads.load())},
         {"lsdb_fault_read_transient", d(fs.transient_read_faults.load())},
         {"lsdb_fault_read_permanent", d(fs.permanent_read_faults.load())},
         {"lsdb_fault_bitflips", d(fs.bitflips.load())},
         {"lsdb_fault_total", d(fs.total_faults())}});
    for (QueryType type : kAllQueryTypes) {
      const introspect::ProfileAccumulator::Summary p =
          s.profiles[static_cast<size_t>(type)]->Merge();
      if (p.queries == 0) continue;  // gauges appear once data exists
      set(std::string("{index=\"") + s.name + "\",kind=\"" +
              QueryTypeName(type) + "\"}",
          {{"lsdb_introspect_queries", d(p.queries)},
           {"lsdb_introspect_nodes_per_query", p.nodes_per_query()},
           {"lsdb_introspect_false_leaf_read_rate", p.false_leaf_read_rate()},
           {"lsdb_introspect_false_bucket_read_rate",
            p.false_bucket_read_rate()},
           {"lsdb_introspect_prune_rate", p.prune_rate()}});
    }
  }
  for (uint32_t w = 0; w < workers_->size(); ++w) {
    set("{worker=\"" + std::to_string(w) + "\"}",
        {{"lsdb_worker_items_processed", d(workers_->items_processed(w))}});
  }
  const AdmissionStats a = admission_->Snapshot();
  set("", {{"lsdb_admission_queue_depth", d(a.depth)},
           {"lsdb_admission_queue_max_depth", d(a.max_depth)},
           {"lsdb_admission_admitted_total", d(a.admitted)},
           {"lsdb_admission_executed_total", d(a.executed)},
           {"lsdb_admission_timeouts_total", d(a.timeouts)},
           {"lsdb_admission_cancelled_total", d(a.cancelled)},
           {"lsdb_admission_last_queue_delay_ns", d(a.last_queue_delay_ns)},
           {"lsdb_worker_tasks_pending", d(workers_->tasks_pending())},
           {"lsdb_introspect_enabled", introspection() ? 1.0 : 0.0},
           {"lsdb_trace_lines_emitted", d(tracer_.lines_emitted())},
           {"lsdb_trace_lines_dropped", d(tracer_.lines_dropped())}});
  for (size_t i = 0; i < kNumShedReasons; ++i) {
    if (a.shed[i] == 0) continue;  // gauges appear once sheds exist
    set(std::string("{reason=\"") +
            ShedReasonName(static_cast<ShedReason>(i)) + "\"}",
        {{"lsdb_admission_shed_total", d(a.shed[i])}});
  }
  if (snapshot_ != nullptr) {
    set("", {{"lsdb_snapshot_zero_copy", snapshot_zero_copy_ ? 1.0 : 0.0}});
  }
}

Status QueryService::OpenSegments(bool open) {
  // Shared segment table. Its metrics pointer is null, as in the harness:
  // segment comparisons are counted by the per-query contexts while
  // serving. On a snapshot its Fetches borrow mapped bytes like the
  // indexes'.
  seg_pool_ = std::make_unique<BufferPool>(
      seg_file_.get(), options_.serving_buffer_frames, nullptr);
  segs_ = std::make_unique<SegmentTable>(seg_pool_.get(), nullptr);
  return open ? segs_->Open() : Status::OK();
}

Status QueryService::MakeStructures(bool open) {
  IndexOptions io = options_.index;
  io.buffer_frames = options_.serving_buffer_frames;
  // Each structure's pool talks to its file through a fault injector. The
  // injectors stay transparent (no plan) until FreezeForServing, so
  // structure layout and paper metrics are byte-identical with or without
  // them.
  for (ServedStructure& s : served_) {
    s.injector = std::make_unique<FaultInjectingPageFile>(s.file.get());
    s.breaker.set_options(options_.breaker);
  }
  ServedStructure* s = served_;
  SegmentTable* segs = segs_.get();
  LSDB_RETURN_IF_ERROR(MakeTree<RStarTree>(io, s[0].injector.get(), segs,
                                           open, &s[0].index));
  LSDB_RETURN_IF_ERROR(MakeTree<RPlusTree>(io, s[1].injector.get(), segs,
                                           open, &s[1].index));
  return MakeTree<PmrQuadtree>(io, s[2].injector.get(), segs, open,
                               &s[2].index);
}

Status QueryService::FreezeForServing() {
  for (ServedStructure& s : served_) {
    s.index->Freeze();
    // Throughput mode: rematerialize the frozen tree into the SoA scan
    // cache (no-op for structures without one). On a snapshot open this
    // re-derives the cache from the mapping, since the file carries only
    // the paged images (verify-on-first-touch runs during this walk).
    if (options_.throughput_mode) {
      LSDB_RETURN_IF_ERROR(s.index->BuildScanCache());
    }
  }
  // Refinement reads segments far more often than nodes; throughput mode
  // flattens the frozen table too so Get() skips the pool mutex + decode.
  if (options_.throughput_mode) {
    LSDB_RETURN_IF_ERROR(segs_->BuildFlatCache());
  }
  // Arm only once everything is frozen and cached, so no cache absorbs an
  // injected fault. Decorrelate the per-structure streams so one
  // structure's fault draw sequence does not mirror another's.
  if (options_.inject_faults) {
    for (ServedIndex which : kAllServedIndexes) {
      FaultPlan plan = options_.fault_plan;
      plan.seed += 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(which) + 1);
      served(which).injector->set_plan(plan);
    }
  }
  return Status::OK();
}

Status QueryService::BuildIndexes(const PolygonalMap& map) {
  seg_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
  LSDB_RETURN_IF_ERROR(OpenSegments(/*open=*/false));
  for (const Segment& s : map.segments) {
    LSDB_ASSIGN_OR_RETURN([[maybe_unused]] const SegmentId id,
                          segs_->Append(s));
  }
  for (ServedStructure& s : served_) {
    s.file = std::make_unique<MemPageFile>(options_.index.page_size);
  }
  LSDB_RETURN_IF_ERROR(MakeStructures(/*open=*/false));
  BulkItems items;
  if (options_.bulk_build) {
    items.reserve(map.segments.size());
    for (SegmentId id = 0; id < map.segments.size(); ++id) {
      items.emplace_back(id, map.segments[id]);
    }
  }
  for (ServedStructure& s : served_) {
    if (options_.bulk_build) {
      LSDB_RETURN_IF_ERROR(lsdb::BulkLoad(s.index.get(), items));
    } else {
      for (SegmentId id = 0; id < map.segments.size(); ++id) {
        LSDB_RETURN_IF_ERROR(s.index->Insert(id, map.segments[id]));
      }
    }
    LSDB_RETURN_IF_ERROR(s.index->Flush());
  }
  return FreezeForServing();
}

Status QueryService::OpenIndexesFromSnapshot(bool zero_copy) {
  using snapshot::SectionKind;
  LSDB_ASSIGN_OR_RETURN(
      seg_file_, snapshot_->OpenSection(SectionKind::kSegments, zero_copy));
  LSDB_RETURN_IF_ERROR(OpenSegments(/*open=*/true));
  if (segs_->size() != snapshot_->header().segment_count) {
    return Status::Corruption(
        "segment count mismatch between snapshot header and segment table");
  }
  const SectionKind kinds[] = {SectionKind::kRStar, SectionKind::kRPlus,
                               SectionKind::kPmr};
  for (size_t i = 0; i < std::size(served_); ++i) {
    LSDB_ASSIGN_OR_RETURN(served_[i].file,
                          snapshot_->OpenSection(kinds[i], zero_copy));
  }
  LSDB_RETURN_IF_ERROR(MakeStructures(/*open=*/true));
  return FreezeForServing();
}

SpatialIndex* QueryService::index(ServedIndex which) {
  ServedStructure* s = find(which);
  return s != nullptr ? s->index.get() : nullptr;
}

void QueryService::Run(ServedStructure& s, uint32_t shard,
                       MetricCounters* counters, Job* jobs, size_t n) {
  // Per-query descent profile, installed only when introspection is on (a
  // null profile keeps the descent hooks on their one-branch disabled
  // path). The toggle is re-read per query, so a live flip takes effect at
  // the next query boundary. A grouped descent works for many requests at
  // once and has no per-request profile to record.
  const bool prof_on =
      n == 1 && introspect_on_.load(std::memory_order_relaxed);
  introspect::QueryProfile prof;
  // Deadline/cancel token. Requests carrying neither leave it null, so the
  // descent checkpoints stay on their one-load untaken-branch path and
  // paper metrics are byte-identical. Grouped requests carry neither.
  CancelToken token;
  const QueryRequest& q0 = *jobs[0].request;
  QueryContext ctx{counters, prof_on ? &prof : nullptr, jobs[0].token};
  if (ctx.cancel == nullptr && (q0.deadline_ns > 0 || q0.cancel != nullptr)) {
    if (q0.deadline_ns > 0) token.ArmBudget(q0.deadline_ns);
    token.LinkParent(q0.cancel);
    ctx.cancel = &token;
  }
  // Snapshot the counters so the run's exact metric deltas can be
  // attributed to its spans. Admitted jobs time from submit: queueing
  // delay is the overload signal.
  const MetricCounters before = *counters;
  const auto t0 = jobs[0].token != nullptr ? jobs[0].enqueued
                                           : std::chrono::steady_clock::now();
  // Breaker ticket. A ticket whose budget ran out while queued times out
  // without costing a descent; a request that already consumed a
  // half-open probe ticket at submit must not consume a second one.
  const auto admit = [&s](const Job& j) {
    if (j.token != nullptr) j.response->status = j.token->StatusNow();
    if (!j.response->status.ok()) return false;
    if (j.breaker_preapproved || s.breaker.AllowRequest()) return true;
    j.response->status = Status::Unavailable(std::string(s.name) +
                                             " index degraded: breaker open");
    return false;
  };
  {
    ScopedQueryContext scope(ctx);
    if (n == 1) {
      if (admit(jobs[0])) Execute(s.index.get(), q0, jobs[0].response);
    } else {
      // Throughput mode: one shared descent answers every admitted window.
      std::vector<Rect> ws;
      std::vector<QueryResponse*> rs;
      ws.reserve(n);
      rs.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (!admit(jobs[k])) continue;
        ws.push_back(GroupedWindow(*jobs[k].request));
        rs.push_back(jobs[k].response);
      }
      std::vector<std::vector<SegmentHit>> hits;
      const Status st =
          ws.empty() ? Status::OK() : s.index->WindowQueryBatch(ws, &hits);
      for (size_t k = 0; k < rs.size(); ++k) {
        rs[k]->status = st;
        if (st.ok()) rs[k]->hits = std::move(hits[k]);
      }
    }
  }
  // A grouped run executed as one descent: each request is charged the
  // amortized share of its time and metrics (DESIGN.md §15).
  const uint64_t ns =
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()) /
      n;
  const MetricCounters d =
      tracer_.enabled() ? *counters - before : MetricCounters{};
  for (size_t k = 0; k < n; ++k) {
    const QueryType type = jobs[k].request->type;
    QueryResponse& r = *jobs[k].response;
    r.latency_ns = ns;
    if (CircuitBreaker::IsFailure(r.status)) {
      if (s.breaker.RecordFailure()) {
        tracer_.EmitHealthEvent(s.name, "breaker_open");
      }
    } else if (CircuitBreaker::IsSuccess(r.status)) {
      if (s.breaker.RecordSuccess()) {
        tracer_.EmitHealthEvent(s.name, "breaker_closed");
      }
    }
    s.histograms[static_cast<size_t>(type)]->Record(shard, ns);
    if (prof_on) s.profiles[static_cast<size_t>(type)]->Record(shard, prof);
    if (!tracer_.enabled()) continue;
    QuerySpan span;
    span.query_id = jobs[k].id;
    span.kind = QueryTypeName(type);
    span.structure = s.name;
    span.latency_ns = ns;
    span.disk_reads = d.disk_reads / n;
    span.segment_comps = d.segment_comps / n;
    span.bbox_comps = d.bbox_comps / n;
    span.bucket_comps = d.bucket_comps / n;
    span.worker = shard;
    if (prof_on) {
      span.has_introspect = true;
      span.nodes_visited = prof.nodes_visited;
      span.nodes_pruned = prof.entries_pruned();
      span.false_leaf_reads = prof.false_leaf_reads;
      span.false_bucket_reads = prof.false_bucket_reads;
      span.max_depth = prof.max_depth;
    }
    tracer_.EmitQuerySpan(span);
  }
}

void QueryService::Tally(ServedStructure& s, const QueryRequest* requests,
                         size_t n, const MetricCounters& m) {
  uint64_t per_kind[std::size(kAllQueryTypes)] = {};
  for (size_t i = 0; i < n; ++i) {
    ++per_kind[static_cast<size_t>(requests[i].type)];
  }
  for (size_t k = 0; k < std::size(kAllQueryTypes); ++k) {
    if (per_kind[k] != 0) s.queries_total[k]->Add(per_kind[k]);
  }
  s.disk_reads_total->Add(m.disk_reads);
  s.segment_comps_total->Add(m.segment_comps);
  s.bbox_comps_total->Add(m.bbox_comps);
  s.bucket_comps_total->Add(m.bucket_comps);
}

StatusOr<BatchResult> QueryService::ExecuteBatch(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  return RunBatch(which, batch, /*on_caller=*/false);
}

StatusOr<BatchResult> QueryService::ExecuteBatchSequential(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  return RunBatch(which, batch, /*on_caller=*/true);
}

StatusOr<BatchResult> QueryService::RunBatch(
    ServedIndex which, const std::vector<QueryRequest>& batch,
    bool on_caller) {
  ServedStructure* s = find(which);
  if (s == nullptr) return Status::InvalidArgument("unknown index");
  BatchResult out;
  out.responses.resize(batch.size());
  std::vector<PaddedCounters> locals(on_caller ? 1 : workers_->size());
  const uint64_t id_base =
      next_query_id_.fetch_add(batch.size(), std::memory_order_relaxed);
  const auto run_one = [&](uint32_t worker, uint64_t i) {
    Job job{&batch[i], &out.responses[i], id_base + i};
    Run(*s, worker, &locals[on_caller ? 0 : worker].c, &job, 1);
  };
  if (on_caller) {
    MutexLock lk(caller_mu_);
    for (size_t i = 0; i < batch.size(); ++i) run_one(workers_->size(), i);
  } else if (!options_.throughput_mode) {
    workers_->ParallelFor(batch.size(), run_one);
  } else {
    // Throughput mode: window and point queries without deadline/cancel
    // tokens are grouped into shared multi-window descents; everything
    // else (nearest, incident, token-carrying requests) keeps the
    // per-query path so cancellation checkpoints fire exactly as in the
    // default mode.
    std::vector<Job> grouped;
    std::vector<uint32_t> solo;
    grouped.reserve(batch.size());
    for (uint32_t i = 0; i < batch.size(); ++i) {
      const QueryRequest& q = batch[i];
      if ((q.type == QueryType::kWindow || q.type == QueryType::kPoint) &&
          q.deadline_ns == 0 && q.cancel == nullptr) {
        grouped.push_back(Job{&q, &out.responses[i], id_base + i});
      } else {
        solo.push_back(i);
      }
    }
    // Sort by the Hilbert index of the window center: windows close on the
    // curve descend the same subtrees, so the contiguous chunk each worker
    // takes shares node visits.
    std::stable_sort(grouped.begin(), grouped.end(),
                     [](const Job& a, const Job& b) {
                       return GroupedWindowKey(*a.request) <
                              GroupedWindowKey(*b.request);
                     });
    const uint32_t nchunks = static_cast<uint32_t>(
        std::min<size_t>(workers_->size(), grouped.size()));
    workers_->ParallelFor(nchunks, [&](uint32_t worker, uint64_t c) {
      const size_t begin = grouped.size() * c / nchunks;
      const size_t end = grouped.size() * (c + 1) / nchunks;
      Run(*s, worker, &locals[worker].c, &grouped[begin], end - begin);
    });
    workers_->ParallelFor(solo.size(), [&](uint32_t worker, uint64_t k) {
      run_one(worker, solo[k]);
    });
  }
  out.per_worker.reserve(locals.size());
  for (const PaddedCounters& pc : locals) {
    out.per_worker.push_back(pc.c);
    out.metrics += pc.c;
  }
  // One registry rollup per batch, not per query, so the per-item hot
  // path never contends on shared counters.
  s->batches_total->Add(1);
  Tally(*s, batch.data(), batch.size(), out.metrics);
  return out;
}

void QueryService::CompleteShed(AdmissionQueue::Shed&& shed) {
  // kEvicted / kCoDel tickets were admitted (Offer counted their kind
  // slot); the other reasons reject before admission.
  if (shed.reason == ShedReason::kEvicted ||
      shed.reason == ShedReason::kCoDel) {
    admission_->OnFinished(shed.ticket.request.type);
  }
  if (tracer_.enabled()) {
    tracer_.EmitAdmissionEvent(ServedIndexName(shed.ticket.which),
                               ShedReasonName(shed.reason));
  }
  QueryResponse r;
  r.status = shed.reason == ShedReason::kShutdown
                 ? Status::Cancelled("shed: query service shutting down")
                 : Status::Unavailable(std::string("shed: ") +
                                       ShedReasonName(shed.reason));
  if (shed.ticket.done) shed.ticket.done(std::move(r));
}

void QueryService::SubmitQuery(ServedIndex which, const QueryRequest& q,
                               std::function<void(QueryResponse)> done) {
  Submit(which, q, std::move(done), nullptr);
}

void QueryService::Submit(ServedIndex which, const QueryRequest& q,
                          std::function<void(QueryResponse)> done,
                          MetricCounters* per_worker) {
  // Brownout: while the structure's breaker is open, shed at submit
  // instead of occupying queue space behind requests that will fail
  // anyway. AllowRequest() still lets half-open probes through — those
  // carry their grant into execution via breaker_preapproved.
  bool preapproved = false;
  CircuitBreaker& b = breaker(which);
  if (options_.admission.brownout_on_breaker && b.open()) {
    if (!b.AllowRequest()) {
      admission_->RecordShed(ShedReason::kBrownout);
      if (tracer_.enabled()) {
        tracer_.EmitAdmissionEvent(ServedIndexName(which),
                                   ShedReasonName(ShedReason::kBrownout));
      }
      QueryResponse r;
      r.status = Status::Unavailable(std::string("shed: ") +
                                     ServedIndexName(which) +
                                     " degraded (breaker open)");
      if (done) done(std::move(r));
      return;
    }
    preapproved = true;
  }
  AdmissionQueue::Ticket t;
  t.which = which;
  t.request = q;
  t.done = std::move(done);
  t.token = std::make_unique<CancelToken>();
  const uint64_t budget = q.deadline_ns > 0
                              ? q.deadline_ns
                              : options_.admission.default_deadline_ns;
  if (budget > 0) t.token->ArmBudget(budget);
  t.token->LinkParent(q.cancel);
  t.enqueued = CancelToken::Clock::now();
  t.breaker_preapproved = preapproved;
  t.per_worker = per_worker;
  std::vector<AdmissionQueue::Shed> shed;
  const bool enqueued = admission_->Offer(std::move(t), &shed);
  for (AdmissionQueue::Shed& s : shed) CompleteShed(std::move(s));
  if (!enqueued) return;
  // One dispatch task per admitted ticket. Submit only fails while the
  // pool destructor runs, which ~QueryService sequences after Close() —
  // but complete inline rather than strand a ticket if it ever happens.
  if (!workers_->Submit([this](uint32_t w) { DispatchOne(w); })) {
    DispatchOne(0);
  }
}

void QueryService::DispatchOne(uint32_t worker) {
  AdmissionQueue::Ticket t;
  std::vector<AdmissionQueue::Shed> shed;
  const bool have = admission_->Take(&t, &shed);
  for (AdmissionQueue::Shed& s : shed) CompleteShed(std::move(s));
  // Drained by Close() or shed by CoDel before this task ran: nothing to
  // execute (the ticket was completed elsewhere).
  if (!have) return;
  ServedStructure& s = served(t.which);
  QueryResponse r;
  MetricCounters m;  // This query's counters alone.
  Job job{&t.request, &r,
          next_query_id_.fetch_add(1, std::memory_order_relaxed),
          t.token.get(), t.enqueued, t.breaker_preapproved};
  Run(s, worker, &m, &job, 1);
  Tally(s, &t.request, 1, m);
  if (t.per_worker != nullptr) t.per_worker[worker] += m;
  if (tracer_.enabled()) {
    if (r.status.IsDeadlineExceeded()) {
      tracer_.EmitAdmissionEvent(s.name, "timeout");
    } else if (r.status.IsCancelled()) {
      tracer_.EmitAdmissionEvent(s.name, "cancelled");
    }
  }
  admission_->OnExecuted(t.request.type, r.status);
  if (t.done) t.done(std::move(r));
}

StatusOr<BatchResult> QueryService::ExecuteBatchAdmitted(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  if (find(which) == nullptr) {
    return Status::InvalidArgument("unknown index");
  }
  BatchResult out;
  out.responses.resize(batch.size());
  out.per_worker.resize(workers_->size());
  Mutex mu("QueryService.batch_done");
  CondVar all_done;
  size_t remaining = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto done = [&, i](QueryResponse r) {
      MutexLock lk(mu);
      out.responses[i] = std::move(r);
      if (--remaining == 0) all_done.NotifyOne();
    };
    Submit(which, batch[i], done, out.per_worker.data());
  }
  {
    MutexLock lk(mu);
    // Bounded by construction, not by a wait deadline: every submitted
    // ticket is completed exactly once (executed, shed, or drained at
    // shutdown), so `remaining` always reaches zero.
    // NOLINTNEXTLINE(lsdb-unbounded-wait)
    all_done.Wait(mu, [&] { return remaining == 0; });
  }
  // Each admitted query already reached the registry as it completed.
  for (const MetricCounters& c : out.per_worker) out.metrics += c;
  return out;
}

}  // namespace lsdb
