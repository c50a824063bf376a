// Metric counters for the paper's three measured quantities, and the
// per-query context that redirects them.
//
// The SIGMOD'92 study reports, per query workload and per structure:
//   * disk accesses        — buffer-pool read misses + dirty write-backs,
//   * segment comparisons  — accesses to the disk-resident segment table,
//   * bounding box / bucket computations — entry rectangles examined in
//     R-tree nodes, or quadtree block regions computed.
//
// Counters stay plain (non-atomic): the paper harness is single-threaded,
// matching the original study. Concurrent serving (lsdb/service) instead
// installs a ScopedQueryContext around each query, which redirects every
// increment made by that thread into a thread-private MetricCounters that
// the service merges after the batch. With no redirect installed,
// increments go to the structure-owned counters exactly as before.

#ifndef LSDB_UTIL_COUNTERS_H_
#define LSDB_UTIL_COUNTERS_H_

#include <cstdint>
#include <string>

namespace lsdb {

/// Aggregate metrics accumulated by one index structure (and its attached
/// storage). Snapshot-and-diff around a workload to get per-workload costs.
struct MetricCounters {
  uint64_t disk_reads = 0;    ///< Buffer-pool read misses.
  uint64_t disk_writes = 0;   ///< Dirty page write-backs (evict or flush).
  uint64_t page_fetches = 0;  ///< Logical page requests (hit or miss).
  uint64_t segment_comps = 0; ///< Segment-table accesses ("segment comps").
  uint64_t bbox_comps = 0;    ///< R-tree entry rectangles examined.
  uint64_t bucket_comps = 0;  ///< Quadtree block regions computed/tested.

  /// Total potential disk activity as reported in the paper's tables.
  uint64_t disk_accesses() const { return disk_reads + disk_writes; }

  /// Per-field saturating subtract (clamps to 0 instead of wrapping when a
  /// counter was reset between the two snapshots being diffed).
  MetricCounters operator-(const MetricCounters& rhs) const;
  MetricCounters& operator+=(const MetricCounters& rhs);

  std::string ToString() const;
};

namespace introspect {
struct QueryProfile;  // introspect/profiler.h
}  // namespace introspect
class CancelToken;  // service/cancel.h

/// Per-query state a thread redirects while it runs one query: where the
/// metric increments land, what the descent profile records into, and the
/// token the cancellation checkpoints poll. It is kept apart from the
/// structures, which every query shares (audioDB's adb_qstate_internal
/// split). A null field means no redirect: increments go to the
/// structure-owned counters, profiling is off, checkpoints are untaken.
struct QueryContext {
  MetricCounters* counters = nullptr;
  introspect::QueryProfile* profile = nullptr;
  CancelToken* cancel = nullptr;
};

namespace internal {
/// The calling thread's active context, held by value so every hook
/// (CounterSink, ThreadProfile, ThreadCancelToken) is one thread-local
/// load and one branch. Owned by ScopedQueryContext; never touch it
/// directly outside the three accessors.
inline constinit thread_local QueryContext tls_query_context;
}  // namespace internal

/// Resolves the counter target for the calling thread: the installed
/// context's counters if any, else `fallback` (which may be null, meaning
/// "drop the increment").
inline MetricCounters* CounterSink(MetricCounters* fallback) {
  MetricCounters* t = internal::tls_query_context.counters;
  return t != nullptr ? t : fallback;
}

/// Reference flavour for structures that own their counters by value.
inline MetricCounters& CounterSink(MetricCounters& fallback) {
  return *CounterSink(&fallback);
}

/// RAII install of a QueryContext on the constructing thread: while alive,
/// every metric increment, profiler hook and cancellation checkpoint on
/// this thread — across all indexes, buffer pools and segment tables it
/// touches — uses the installed context. Scopes nest (the innermost wins,
/// and destruction restores the enclosing context whole) and must be
/// destroyed on the thread that created them.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext& ctx)
      : prev_(internal::tls_query_context) {
    internal::tls_query_context = ctx;
  }
  /// Counters-only redirect: keeps the enclosing profile and token.
  explicit ScopedQueryContext(MetricCounters* counters)
      : prev_(internal::tls_query_context) {
    internal::tls_query_context.counters = counters;
  }
  ~ScopedQueryContext() { internal::tls_query_context = prev_; }

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext prev_;
};

/// The counters-only spelling, for build-time scratch redirects.
using ScopedCounterSink = ScopedQueryContext;

}  // namespace lsdb

#endif  // LSDB_UTIL_COUNTERS_H_
