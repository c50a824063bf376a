// Query-path profiler: opt-in, per-query recording of what a descent
// actually did — nodes visited vs. pruned, false-positive leaf and bucket
// reads (pages touched that contributed no results), descent depth, and
// per-level fanout utilization.
//
// The paper's MetricCounters (util/counters.h) answer *how much* disk and
// comparison work each structure does; this profiler answers *why* — which
// levels fan out, which leaves are read for nothing, how deep the PMR
// quadrant decomposition goes per query. The two are entirely separate:
// nothing here touches MetricCounters, so Table 1/2 metrics are
// byte-identical whether profiling is on or off.
//
// Cost model when off: every hook site in a descent loop goes through the
// LSDB_INTROSPECT(...) macro below, which compiles to one thread-local
// pointer load and an untaken branch. No counters are maintained, nothing
// shared is written, no allocation happens. When on, a query records into
// a caller-owned QueryProfile installed as the `profile` field of its
// QueryContext (util/counters.h).

#ifndef LSDB_INTROSPECT_PROFILER_H_
#define LSDB_INTROSPECT_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "lsdb/util/counters.h"

namespace lsdb {
namespace introspect {

/// What one query's descent did, recorded at node granularity. Levels are
/// depths from the root (root = 0), clamped to kMaxLevels-1.
struct QueryProfile {
  static constexpr uint32_t kMaxLevels = 16;

  uint64_t nodes_visited = 0;    ///< Index nodes loaded (R-tree + B-tree).
  uint64_t leaves_visited = 0;   ///< Leaf nodes among those.
  uint64_t false_leaf_reads = 0; ///< Leaves that contributed no results.
  uint64_t entries_scanned = 0;  ///< Entry rects / keys examined in nodes.
  uint64_t entries_matched = 0;  ///< Entries passing the node-level test.
  uint64_t entries_pruned() const {
    return entries_scanned - entries_matched;
  }
  uint64_t buckets_visited = 0;    ///< PMR leaf blocks probed.
  uint64_t false_bucket_reads = 0; ///< Blocks that contributed no results.
  uint64_t results = 0;            ///< Hits the query produced.
  uint32_t max_depth = 0;          ///< Deepest node depth reached.
  uint32_t max_quad_depth = 0;     ///< Deepest PMR quadrant depth probed.

  /// Per-level fanout utilization: of the entries scanned at this depth,
  /// how many survived the window/prune test.
  struct Level {
    uint64_t visits = 0;
    uint64_t entries_scanned = 0;
    uint64_t entries_matched = 0;
  };
  Level levels[kMaxLevels] = {};

  /// One index node processed: `scanned` entries examined, `matched` of
  /// them passed the node-level test, `results_added` hits appended while
  /// processing it (leaves only; used to flag false-positive leaf reads).
  void OnNode(uint32_t depth, bool leaf, uint64_t scanned, uint64_t matched,
              uint64_t results_added);

  /// One B-tree page processed during a PMR descent/scan. Feeds the node
  /// and level counters only — false-positive accounting for the PMR runs
  /// at bucket granularity (Begin/EndBucket), not at page granularity.
  void OnBtreeNode(uint32_t depth, bool leaf, uint64_t scanned,
                   uint64_t matched);

  /// PMR bucket probes: BeginBucket marks the result count before the
  /// block's segment list is scanned; EndBucket compares against it to
  /// decide whether the bucket read was a false positive. Calls do not
  /// nest (descents visit one bucket at a time).
  void BeginBucket(uint32_t quad_depth);
  void EndBucket();

  /// A query hit was produced (refinement passed). Drives the false-read
  /// accounting for buckets.
  void OnResult(uint64_t n);

  QueryProfile& operator+=(const QueryProfile& rhs);

 private:
  uint64_t bucket_results_mark_ = 0;
};

/// The profile the calling thread is recording into, or null when off.
/// Installed by ScopedQueryContext (util/counters.h).
inline QueryProfile* ThreadProfile() {
  return ::lsdb::internal::tls_query_context.profile;
}

/// Lock-free aggregate of many QueryProfiles, sharded per worker like
/// LatencyHistogram: each shard is single-writer (its worker), readers
/// Merge() concurrently, every field is a relaxed atomic so a live toggle
/// under the worker pool is race-free.
class ProfileAccumulator {
 public:
  explicit ProfileAccumulator(uint32_t shards);

  /// Fold one finished query's profile into shard `shard` (the worker
  /// index). Single writer per shard.
  void Record(uint32_t shard, const QueryProfile& p);

  /// Merged totals, readable while workers record.
  struct Summary {
    uint64_t queries = 0;
    QueryProfile totals;

    /// Mean per-query derived rates; zero when no queries recorded.
    double nodes_per_query() const;
    double false_leaf_read_rate() const;   ///< false leaf reads / leaf visits
    double false_bucket_read_rate() const; ///< false bucket reads / buckets
    double prune_rate() const;             ///< pruned / scanned entries

    std::string ToJson() const;
  };
  Summary Merge() const;

  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> nodes_visited{0};
    std::atomic<uint64_t> leaves_visited{0};
    std::atomic<uint64_t> false_leaf_reads{0};
    std::atomic<uint64_t> entries_scanned{0};
    std::atomic<uint64_t> entries_matched{0};
    std::atomic<uint64_t> buckets_visited{0};
    std::atomic<uint64_t> false_bucket_reads{0};
    std::atomic<uint64_t> results{0};
    std::atomic<uint32_t> max_depth{0};
    std::atomic<uint32_t> max_quad_depth{0};
    struct Level {
      std::atomic<uint64_t> visits{0};
      std::atomic<uint64_t> entries_scanned{0};
      std::atomic<uint64_t> entries_matched{0};
    };
    Level levels[QueryProfile::kMaxLevels];
  };
  std::vector<Shard> shards_;
};

}  // namespace introspect
}  // namespace lsdb

/// The only sanctioned way to touch profiling state from inside an index
/// descent loop (enforced by the lsdb-hot-counter-in-descent lint rule):
/// expands to a thread-local load plus a branch when profiling is off.
///
///   LSDB_INTROSPECT(OnNode(depth, node.leaf(), scanned, matched, added));
#define LSDB_INTROSPECT(stmt)                              \
  do {                                                     \
    ::lsdb::introspect::QueryProfile* lsdb_prof_ =         \
        ::lsdb::introspect::ThreadProfile();               \
    if (lsdb_prof_ != nullptr) {                           \
      lsdb_prof_->stmt;                                    \
    }                                                      \
  } while (0)

#endif  // LSDB_INTROSPECT_PROFILER_H_
