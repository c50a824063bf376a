// Bounded admission queue and load-shedding policies for the query
// service.
//
// The admission queue sits in front of the worker pool on the
// SubmitQuery() path: every request is either enqueued as a Ticket or
// shed immediately with a typed reason. Three policies cover the classic
// overload trade-offs:
//
//   * kFifoReject    — serve oldest-first; when the queue is full the NEW
//                      request is rejected. Fair, but under sustained
//                      overload every admitted request has already aged a
//                      full queue before it runs.
//   * kAdaptiveLifo  — serve oldest-first while the backlog is shallow,
//                      newest-first once it exceeds half the bound (fresh
//                      requests still have callers waiting; stale ones
//                      likely timed out upstream). When full, the OLDEST
//                      ticket is evicted to admit the new one.
//   * kCoDel         — serve oldest-first, but shed at dequeue using
//                      CoDel-style sojourn control: once queue delay has
//                      stayed above `codel_target_ns` for a full
//                      `codel_interval_ns`, tickets whose sojourn exceeds
//                      the target are shed until delay recovers. Bounds
//                      queue delay instead of queue length.
//
// Per-kind outstanding limits cap queued+executing requests of one
// QueryType (a window-query flood cannot starve point lookups), and the
// service layers a brownout check on top: an open circuit breaker sheds
// at submit instead of occupying queue space (see QueryService).
//
// Accounting contract: every ticket accepted by Offer() is eventually
// handed back exactly once — through Take() (execute it), through a shed
// list (complete it as Unavailable), or through Close() (complete it as
// Cancelled). The caller must call OnFinished()/OnExecuted() for each
// such ticket so outstanding-per-kind counts return to zero; nothing is
// ever dropped silently.

#ifndef LSDB_SERVICE_ADMISSION_H_
#define LSDB_SERVICE_ADMISSION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lsdb/service/cancel.h"
#include "lsdb/service/request.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

struct AdmissionOptions {
  enum class Policy : uint8_t { kFifoReject, kAdaptiveLifo, kCoDel };
  Policy policy = Policy::kFifoReject;

  /// Queue bound. 0 disables queuing entirely (every request that cannot
  /// start immediately is shed) — mostly useful in tests.
  uint32_t max_queue = 1024;

  /// Cap on outstanding (queued + executing) requests per QueryType,
  /// indexed by static_cast<size_t>(type). 0 = unlimited.
  std::array<uint32_t, 4> max_outstanding_per_kind = {0, 0, 0, 0};

  /// CoDel sojourn target and control interval (kCoDel only).
  uint64_t codel_target_ns = 5'000'000;     ///< 5 ms
  uint64_t codel_interval_ns = 100'000'000; ///< 100 ms

  /// Deadline budget armed at submit for requests that carry none.
  /// 0 = no default deadline.
  uint64_t default_deadline_ns = 0;

  /// Shed at submit while the target structure's circuit breaker is open
  /// (breaker probes still pass through). Checked by QueryService.
  bool brownout_on_breaker = true;
};

const char* AdmissionPolicyName(AdmissionOptions::Policy p);

/// Why a request was shed instead of executed.
enum class ShedReason : uint8_t {
  kQueueFull = 0,  ///< Bounded queue full (the new request was rejected).
  kEvicted = 1,    ///< Adaptive LIFO evicted this oldest ticket on full.
  kKindLimit = 2,  ///< Per-kind outstanding cap reached.
  kBrownout = 3,   ///< Circuit breaker open; shed at submit.
  kCoDel = 4,      ///< Sojourn stayed above the CoDel target too long.
  kShutdown = 5,   ///< Service shutting down.
};
inline constexpr size_t kNumShedReasons = 6;
const char* ShedReasonName(ShedReason r);

/// Aggregate scoreboard, exported as service gauges.
struct AdmissionStats {
  uint64_t depth = 0;          ///< Tickets queued right now.
  uint64_t max_depth = 0;      ///< High-water mark.
  uint64_t admitted = 0;       ///< Offers that enqueued.
  uint64_t executed = 0;       ///< Tickets that ran to a response.
  uint64_t timeouts = 0;       ///< Responses with DeadlineExceeded.
  uint64_t cancelled = 0;      ///< Responses with Cancelled.
  std::array<uint64_t, kNumShedReasons> shed = {};
  uint64_t shed_total = 0;
  uint64_t last_queue_delay_ns = 0;  ///< Sojourn of the last Take().
};

class AdmissionQueue {
 public:
  /// One admitted request in flight through the overload layer.
  struct Ticket {
    ServedIndex which = ServedIndex::kRStar;
    QueryRequest request;
    std::function<void(QueryResponse)> done;
    /// Owned per-query token: deadline armed at submit, optionally linked
    /// to a caller token. unique_ptr because CancelToken is address-
    /// stable (worker threads poll it through TLS while the ticket sits
    /// in the queue).
    std::unique_ptr<CancelToken> token;
    CancelToken::Clock::time_point enqueued{};
    /// The breaker already granted this request as a probe at submit;
    /// execution must not consume a second AllowRequest ticket.
    bool breaker_preapproved = false;
    /// ExecuteBatchAdmitted's per-worker metric slots, indexed by the
    /// executing worker; null for a lone SubmitQuery.
    MetricCounters* per_worker = nullptr;
  };

  /// A ticket the queue handed back unexecuted, with its reason.
  struct Shed {
    Ticket ticket;
    ShedReason reason = ShedReason::kQueueFull;
  };

  explicit AdmissionQueue(const AdmissionOptions& options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Offers one ticket. Returns true when enqueued — adaptive LIFO may
  /// additionally evict the oldest ticket into *shed_out. Returns false
  /// when the ticket itself was shed (it is then appended to *shed_out
  /// with its reason). Either way the caller completes every entry of
  /// *shed_out and calls OnFinished() for entries that were admitted
  /// (reason kEvicted / kCoDel); kQueueFull / kKindLimit / kShutdown
  /// entries were never admitted.
  bool Offer(Ticket&& ticket, std::vector<Shed>* shed_out)
      LSDB_EXCLUDES(mu_);

  /// Pops the next runnable ticket per policy into *out; CoDel sheds
  /// stale tickets into *shed_out on the way. Returns false when empty.
  bool Take(Ticket* out, std::vector<Shed>* shed_out) LSDB_EXCLUDES(mu_);

  /// Closes the queue: concurrent and future Offers shed with kShutdown,
  /// and every queued ticket is moved into *drained (complete them as
  /// Cancelled and call OnFinished()).
  void Close(std::vector<Ticket>* drained) LSDB_EXCLUDES(mu_);

  /// Terminal accounting for an admitted ticket that did NOT execute
  /// (evicted / CoDel-shed / drained): releases its per-kind slot.
  void OnFinished(QueryType kind);

  /// Counts a shed that happened upstream of Offer() — the service's
  /// brownout check rejects at submit without constructing a ticket.
  void RecordShed(ShedReason reason);

  /// Terminal accounting for an executed ticket: releases its per-kind
  /// slot and classifies the response status (ok/timeout/cancelled).
  void OnExecuted(QueryType kind, const Status& status);

  AdmissionStats Snapshot() const LSDB_EXCLUDES(mu_);

  const AdmissionOptions& options() const { return options_; }

 private:
  bool AboveKindLimit(QueryType kind) const;

  const AdmissionOptions options_;

  mutable Mutex mu_{"AdmissionQueue.mu"};
  std::deque<Ticket> q_ LSDB_GUARDED_BY(mu_);
  bool closed_ LSDB_GUARDED_BY(mu_) = false;
  uint64_t max_depth_ LSDB_GUARDED_BY(mu_) = 0;  ///< High-water mark.

  /// CoDel control state: has sojourn been continuously at/above target,
  /// and since when.
  bool above_target_ LSDB_GUARDED_BY(mu_) = false;
  CancelToken::Clock::time_point above_since_ LSDB_GUARDED_BY(mu_){};

  std::array<std::atomic<uint32_t>, 4> outstanding_ = {};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::array<std::atomic<uint64_t>, kNumShedReasons> shed_ = {};
  std::atomic<uint64_t> last_queue_delay_ns_{0};
};

}  // namespace lsdb

#endif  // LSDB_SERVICE_ADMISSION_H_
