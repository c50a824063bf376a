// Concurrent read-query service over the three paper structures.
//
// QueryService owns a built index set — R*-tree, R+-tree, PMR quadtree —
// over one shared disk-resident segment table, all frozen after the build,
// plus a fixed pool of worker threads. ExecuteBatch spreads a vector of
// heterogeneous requests (point / window / nearest / incident) across the
// pool and returns per-request responses plus aggregated per-worker
// metrics.
//
// Concurrency model: the build is single-threaded; serving is read-only.
// Frozen indexes reject Insert/Erase, the thread-safe BufferPool serializes
// page access, and every query runs under a ScopedQueryContext that sends
// its metric increments to a thread-private MetricCounters — the
// index-owned counters are not touched while serving, and the sequential
// paper harness is unaffected. Every entry point (ExecuteBatch, its
// throughput-mode grouping, ExecuteBatchSequential, SubmitQuery) runs its
// queries through one private core, so breaker tickets, timing,
// histograms, profiles, spans and registry counters are charged the same
// way on every path.
//
// The paper-replication numbers (Table 1 / Table 2) are still produced by
// the sequential harness in lsdb/harness; this subsystem is the
// throughput-oriented serving layer on top of the same structures.

#ifndef LSDB_SERVICE_QUERY_SERVICE_H_
#define LSDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "lsdb/data/polygonal_map.h"
#include "lsdb/index/spatial_index.h"
#include "lsdb/introspect/page_heat.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/obs/latency_histogram.h"
#include "lsdb/obs/stats_registry.h"
#include "lsdb/obs/tracer.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/admission.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/service/request.h"
#include "lsdb/service/worker_pool.h"
#include "lsdb/snapshot/snapshot_reader.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/fault_injection.h"
#include "lsdb/storage/mmap_page_file.h"
#include "lsdb/storage/page_file.h"

namespace lsdb {

struct ServiceOptions {
  /// Structure parameters (page size, PMR threshold, ...). The
  /// buffer_frames field is overridden by serving_buffer_frames below.
  IndexOptions index;
  /// Worker threads executing batches.
  uint32_t num_threads = 4;
  /// Buffer frames per structure while serving. Larger than the paper's 16
  /// so concurrent queries rarely contend on evictions; the paper harness
  /// keeps its own 16-frame pools and is not affected.
  uint32_t serving_buffer_frames = 256;
  /// Build the served structures with the bottom-up bulk builders
  /// (src/lsdb/build/) instead of one-at-a-time insertion. Served query
  /// results are identical; startup is much faster on large maps.
  bool bulk_build = false;
  /// Throughput mode (SIMD node scans + grouped batch execution). After
  /// Freeze() — including snapshot opens, where the sidecar is rebuilt over
  /// the mapping — every R*/R+ node is rematerialized into an in-memory
  /// structure-of-arrays scan cache (rtree/node_cache.h): descents skip the
  /// buffer pool and test child MBRs with one SIMD IntersectMask per node.
  /// ExecuteBatch additionally groups a batch's window/point queries by
  /// spatial locality and runs each group down the tree in one shared
  /// descent, so a node is materialized once for many windows. Responses
  /// are identical to the default path (pinned by equivalence tests);
  /// requests carrying deadlines or cancel tokens keep the per-query path
  /// so their cancellation checkpoints behave identically. Off by default:
  /// the default path keeps every query on the buffer pool, which the
  /// paper-metric accounting and fault-injection machinery rely on (a
  /// cached descent would never see an injected page fault).
  bool throughput_mode = false;

  /// If non-empty, the service opens a Tracer on this file and emits one
  /// JSONL span per served query plus sampled buffer-pool events. Empty
  /// (default) leaves tracing disabled: the per-query cost is one relaxed
  /// atomic load.
  std::string trace_path;
  /// 1-in-N sampling for buffer-pool trace events (1 = every event,
  /// 0 = none). Query spans are never sampled.
  uint64_t trace_pool_sample_every = 100;
  /// Byte budget for the trace file (0 = unlimited). Past it, further
  /// lines are dropped and counted in Tracer::lines_dropped().
  uint64_t trace_max_bytes = 0;

  /// Start with query-path introspection on (see set_introspection()).
  /// Off by default: the per-hook cost is one thread-local load and an
  /// untaken branch, and the paper metrics never depend on this either way.
  bool introspect = false;

  // -- Robustness ----------------------------------------------------------

  /// Arm `fault_plan` on every index's fault injector once the build is
  /// frozen. The build itself always runs fault-free, so structures and
  /// paper metrics are unaffected; only serving reads see faults.
  bool inject_faults = false;
  /// The seeded plan to arm (per-index injectors derive decorrelated seeds
  /// from plan.seed so the three structures fail independently).
  FaultPlan fault_plan;
  /// Per-structure circuit-breaker thresholds.
  CircuitBreaker::Options breaker;

  // -- Overload protection -------------------------------------------------

  /// Admission queue bound, shedding policy, per-kind outstanding limits,
  /// default deadline budget, and brownout behaviour for the
  /// SubmitQuery/ExecuteBatchAdmitted path (see admission.h). The batch
  /// paths (ExecuteBatch*) bypass admission but still honor per-request
  /// deadlines and cancel tokens.
  AdmissionOptions admission;
};

class QueryService {
 public:
  /// Builds the segment table and all three structures over `map`
  /// (single-threaded), freezes them, and spins up the worker pool.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryService>> Build(
      const PolygonalMap& map, const ServiceOptions& options);

  /// Opens a service directly from a *.lsnap snapshot — zero index builds.
  /// Structure options recorded in the snapshot header (page size, world
  /// extent, PMR parameters) override the corresponding fields of
  /// `options.index` so superblock validation matches the frozen state.
  /// With `zero_copy` (the default) index pages are served straight from
  /// the mapping; with it off, pages are copied through the buffer pool,
  /// reproducing the paper's LRU disk-access accounting exactly.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryService>> OpenFromSnapshot(
      const std::string& path, const ServiceOptions& options,
      bool zero_copy = true);

  /// Serializes the (frozen) service into a single-file snapshot at
  /// `path`, published atomically via write-to-temp + rename.
  [[nodiscard]] Status WriteSnapshot(const std::string& path);

  /// True when this service was opened from a snapshot rather than built.
  bool from_snapshot() const { return snapshot_ != nullptr; }

  ~QueryService();

  /// Executes `batch` on `which` across the worker pool. Response i
  /// corresponds to request i; per-request errors are reported in
  /// QueryResponse::status (the call itself only fails on empty service
  /// misuse). Responses are identical to ExecuteBatchSequential.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatch(ServedIndex which,
                                     const std::vector<QueryRequest>& batch);

  /// Ground-truth execution of `batch` on the calling thread, in order:
  /// the same core as ExecuteBatch, recorded in the caller-thread shard.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatchSequential(
      ServedIndex which, const std::vector<QueryRequest>& batch);

  // -- Overload-protected path ---------------------------------------------

  /// Submits one query through the admission queue; `done` is invoked
  /// exactly once — on a worker thread with the response, or inline with
  /// Status::Unavailable when the request is shed (and Status::Cancelled
  /// at shutdown). Per-query deadline = request.deadline_ns if set, else
  /// AdmissionOptions::default_deadline_ns; request.cancel (if any) is
  /// linked so the caller can abort mid-descent. Unlike ExecuteBatch,
  /// QueryResponse::latency_ns here is submit-to-completion (queueing
  /// included) — that is the latency an overloaded caller experiences.
  void SubmitQuery(ServedIndex which, const QueryRequest& q,
                   std::function<void(QueryResponse)> done);

  /// Convenience synchronous wrapper over SubmitQuery: submits the whole
  /// batch through admission and blocks until every response (executed or
  /// shed) lands. Response i corresponds to request i. `metrics` and
  /// `per_worker` hold the executed queries' counters, merged per worker
  /// like the other batch calls.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatchAdmitted(
      ServedIndex which, const std::vector<QueryRequest>& batch);

  /// Scoreboard of the admission queue (depth, sheds by reason, timeouts).
  AdmissionStats admission_stats() const { return admission_->Snapshot(); }

  SpatialIndex* index(ServedIndex which);
  SegmentTable* segment_table() { return segs_.get(); }
  uint32_t num_threads() const { return workers_->size(); }
  uint32_t segment_count() const { return segs_->size(); }

  // -- Robustness ----------------------------------------------------------

  /// The fault injector wrapping `which`'s page file. Always present (a
  /// transparent pass-through unless a plan is armed); tests use it to arm
  /// plans or kill a structure outright (FailAllReads).
  FaultInjectingPageFile* fault_injector(ServedIndex which) {
    return served(which).injector.get();
  }
  /// The circuit breaker guarding `which`.
  CircuitBreaker& breaker(ServedIndex which) { return served(which).breaker; }
  /// True while `which`'s breaker is open (requests fail fast with
  /// kUnavailable except half-open probes).
  bool degraded(ServedIndex which) { return breaker(which).open(); }

  // -- Observability ------------------------------------------------------

  /// Per-service metric registry (no globals anywhere in the obs layer).
  /// Query counts, per-query metric totals, latency summaries, and
  /// buffer-pool gauges, all named lsdb_*. Pool/worker gauges are
  /// refreshed on every stats() call, so render from this accessor.
  StatsRegistry& stats();

  /// Latency histogram for one structure x query kind, fed by every
  /// execution path: one shard per worker plus one for the calling thread
  /// of ExecuteBatchSequential. Merge() for percentiles.
  const LatencyHistogram& latency_histogram(ServedIndex which,
                                            QueryType type) const;

  /// The service's tracer (disabled unless ServiceOptions::trace_path was
  /// set; tests may AttachStream before issuing batches).
  Tracer& tracer() { return tracer_; }

  // -- Introspection ------------------------------------------------------

  /// Toggles query-path profiling for queries that start after the store
  /// becomes visible. Safe to flip live while batches run: each query
  /// installs a thread-local recording target and aggregates land in
  /// sharded relaxed atomics. Responses and paper metrics are identical
  /// either way; when off, every descent hook costs one thread-local load
  /// and an untaken branch.
  void set_introspection(bool on) {
    introspect_on_.store(on, std::memory_order_relaxed);
  }
  bool introspection() const {
    return introspect_on_.load(std::memory_order_relaxed);
  }

  /// Merged query-path profile for one structure x query kind, aggregated
  /// since service start. Empty (queries == 0) unless introspection was on
  /// while batches ran.
  introspect::ProfileAccumulator::Summary profile_summary(
      ServedIndex which, QueryType type) const;

  /// Attaches a per-page heat map to every structure's buffer pool plus
  /// the shared segment pool. Idempotent. Call before issuing the batches
  /// whose page traffic should be recorded.
  void EnablePageHeat();
  /// Heat map over `which`'s index pages; null until EnablePageHeat().
  const introspect::PageHeatMap* page_heat(ServedIndex which) const {
    return served(which).heat.get();
  }
  /// Heat map over the shared segment-table pages; null until enabled.
  const introspect::PageHeatMap* segment_page_heat() const {
    return seg_heat_.get();
  }

  /// Concrete structure accessors for offline walkers (structure x-ray,
  /// lsdb_inspect). The served structures are frozen, so walking them is
  /// safe alongside read batches.
  RStarTree* rstar() {
    return static_cast<RStarTree*>(index(ServedIndex::kRStar));
  }
  RPlusTree* rplus() {
    return static_cast<RPlusTree*>(index(ServedIndex::kRPlus));
  }
  PmrQuadtree* pmr() {
    return static_cast<PmrQuadtree*>(index(ServedIndex::kPmr));
  }

 private:
  /// Everything the service keeps for one served structure.
  struct ServedStructure {
    const char* name = nullptr;      ///< ServedIndexName: labels, spans.
    /// Raw backend below the injector: in memory after a build, a
    /// snapshot section view after OpenFromSnapshot.
    std::unique_ptr<PageFile> file;
    /// Fault injector between the structure's pool and `file`;
    /// transparent until a plan is armed.
    std::unique_ptr<FaultInjectingPageFile> injector;
    std::unique_ptr<SpatialIndex> index;
    CircuitBreaker breaker;
    /// [query kind] latency histograms and profile aggregates, one shard
    /// per worker plus the caller-thread shard.
    std::unique_ptr<LatencyHistogram> histograms[std::size(kAllQueryTypes)];
    std::unique_ptr<introspect::ProfileAccumulator>
        profiles[std::size(kAllQueryTypes)];
    /// Page heat over the index pages; null until EnablePageHeat().
    std::unique_ptr<introspect::PageHeatMap> heat;
    /// Registry counters, resolved once by SetUpObservability.
    StatsRegistry::Counter* queries_total[std::size(kAllQueryTypes)] = {};
    StatsRegistry::Counter* disk_reads_total = nullptr;
    StatsRegistry::Counter* segment_comps_total = nullptr;
    StatsRegistry::Counter* bbox_comps_total = nullptr;
    StatsRegistry::Counter* bucket_comps_total = nullptr;
    StatsRegistry::Counter* batches_total = nullptr;
  };

  /// One request as the execution core sees it. The admission path also
  /// hands over what its ticket already settled.
  struct Job {
    const QueryRequest* request;
    QueryResponse* response;
    uint64_t id;  ///< Trace span id.
    /// Admitted path: the token armed at submit, also the signal that
    /// latency runs from `enqueued` (submit-to-completion).
    CancelToken* token = nullptr;
    CancelToken::Clock::time_point enqueued{};
    bool breaker_preapproved = false;
  };

  explicit QueryService(const ServiceOptions& options);

  ServedStructure& served(ServedIndex which) {
    return served_[static_cast<size_t>(which)];
  }
  const ServedStructure& served(ServedIndex which) const {
    return served_[static_cast<size_t>(which)];
  }
  /// Null for an out-of-range `which` (callers report InvalidArgument).
  ServedStructure* find(ServedIndex which) {
    const size_t i = static_cast<size_t>(which);
    return i < std::size(served_) ? &served_[i] : nullptr;
  }

  [[nodiscard]] Status BuildIndexes(const PolygonalMap& map);
  [[nodiscard]] Status OpenIndexesFromSnapshot(bool zero_copy);
  /// Puts the shared segment table's pool over `seg_file_` (and Open()s
  /// the table on a snapshot).
  [[nodiscard]] Status OpenSegments(bool open);
  /// Wraps each structure's `file` in its injector and constructs the
  /// typed trees on them (Open() on a snapshot, Init() on a build).
  [[nodiscard]] Status MakeStructures(bool open);
  /// Freezes every structure, builds the throughput-mode caches, and arms
  /// the fault injectors — the shared tail of both startup paths.
  [[nodiscard]] Status FreezeForServing();
  [[nodiscard]] Status SetUpObservability();
  void RefreshGauges();

  /// The execution core. Runs `jobs[0..n)` on the calling thread as
  /// histogram/profile shard `shard`, with metric increments sent to
  /// `*counters`: one job runs as its own query, several as one shared
  /// grouped descent (throughput mode). Takes each job's breaker ticket,
  /// installs its QueryContext, times it, settles the breaker, and
  /// records its histogram sample, profile and trace span.
  void Run(ServedStructure& s, uint32_t shard, MetricCounters* counters,
           Job* jobs, size_t n);
  /// ExecuteBatch across the workers, or (`on_caller`)
  /// ExecuteBatchSequential on the calling thread.
  [[nodiscard]] StatusOr<BatchResult> RunBatch(
      ServedIndex which, const std::vector<QueryRequest>& batch,
      bool on_caller);
  /// SubmitQuery with the caller's per-worker metric slots (see
  /// AdmissionQueue::Ticket::per_worker).
  void Submit(ServedIndex which, const QueryRequest& q,
              std::function<void(QueryResponse)> done,
              MetricCounters* per_worker);
  /// Runs one admission ticket through the core on `worker`.
  void DispatchOne(uint32_t worker);
  /// Completes a shed ticket with Unavailable (Cancelled for kShutdown)
  /// and settles its admission accounting.
  void CompleteShed(AdmissionQueue::Shed&& shed);
  /// Adds `requests[0..n)` to the query counts and `m` to the metric
  /// totals in the registry.
  static void Tally(ServedStructure& s, const QueryRequest* requests,
                    size_t n, const MetricCounters& m);

  ServiceOptions options_;

  /// Set only on the OpenFromSnapshot path. Declared before every page
  /// file: the files are views into the reader's mapping, so the reader
  /// must be destroyed last (members destruct in reverse order).
  std::unique_ptr<snapshot::SnapshotReader> snapshot_;
  bool snapshot_zero_copy_ = false;

  std::unique_ptr<PageFile> seg_file_;
  std::unique_ptr<BufferPool> seg_pool_;
  std::unique_ptr<SegmentTable> segs_;
  std::unique_ptr<introspect::PageHeatMap> seg_heat_;

  /// [ServedIndex] the served structures.
  ServedStructure served_[std::size(kAllServedIndexes)];

  std::unique_ptr<WorkerPool> workers_;
  /// Bounded admission queue for the SubmitQuery path. Closed and drained
  /// explicitly in ~QueryService BEFORE workers_ is reset, because
  /// dispatch tasks queued in the pool dereference it.
  std::unique_ptr<AdmissionQueue> admission_;
  /// Serializes ExecuteBatchSequential callers: the caller-thread
  /// histogram shard is single-writer like the worker shards.
  Mutex caller_mu_{"QueryService.caller_mu"};

  // Observability state (per service instance; see SetUpObservability).
  StatsRegistry stats_;
  Tracer tracer_;
  std::atomic<uint64_t> next_query_id_{0};  ///< Trace span ids.

  // Introspection state (see set_introspection / EnablePageHeat).
  std::atomic<bool> introspect_on_{false};
};

}  // namespace lsdb

#endif  // LSDB_SERVICE_QUERY_SERVICE_H_
