// Deadlines and cooperative cancellation for served queries.
//
// A CancelToken pairs a monotonic deadline with an atomic cancel flag.
// The service arms one per admitted query (deadline = submit time +
// budget) and installs it as the `cancel` field of the query's
// QueryContext (util/counters.h) for the duration of the query. Index
// descents poll the token at node-load granularity through
// LSDB_RETURN_IF_CANCELLED(): when no token is installed — every paper-harness and default serving path — the
// checkpoint is one thread-local load and an untaken branch, so Table 1/2
// metrics stay byte-identical with the layer compiled in.
//
// Cancellation is cooperative: Cancel() may be called from any thread (an
// admission drain, a client disconnect); the query observes it at its next
// checkpoint and unwinds with Status::Cancelled. Deadline expiry surfaces
// as Status::DeadlineExceeded. Neither code is classified as a failure or
// a success by the circuit breaker (circuit_breaker.h), so shedding and
// timeouts never trip or heal a breaker.
//
// The header is deliberately dependency-light (status.h, counters.h,
// <atomic>, <chrono>) so storage-layer waits (BufferPool frame
// exhaustion) can honor the token without depending on the rest of
// service/.

#ifndef LSDB_SERVICE_CANCEL_H_
#define LSDB_SERVICE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"

namespace lsdb {

/// Deadline + cancel flag observed cooperatively by one query's descent.
///
/// Threading: Cancel() and cancel_requested() are safe from any thread.
/// ArmDeadline/ArmBudget/LinkParent must happen before the token is
/// installed (they are plain writes read by the executing thread). Poll()
/// is called only by the executing thread.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative cancellation. Safe from any thread; the query
  /// unwinds with Status::Cancelled at its next checkpoint.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms an absolute monotonic deadline. Call before installing.
  void ArmDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Arms a relative budget from now. Call before installing.
  void ArmBudget(uint64_t budget_ns) {
    ArmDeadline(Clock::now() + std::chrono::nanoseconds(budget_ns));
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Links a caller-owned parent token (e.g. a per-connection token shared
  /// by many requests): cancelling the parent cancels this query too.
  void LinkParent(const CancelToken* parent) { parent_ = parent; }

  /// Full check — atomic flags, parent, and the clock. Used by waits and
  /// at admission/dispatch boundaries where one clock read is fine.
  Status StatusNow() const {
    if (cancel_requested() || (parent_ != nullptr && parent_->cancel_requested())) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// Descent checkpoint. The cancel flags are tested on every call; the
  /// clock only every kClockStride calls, because checkpoints sit at
  /// node-load granularity in hot loops and a steady_clock read is an
  /// order of magnitude costlier than an atomic load. Executing thread
  /// only (polls_ is deliberately unsynchronized).
  Status Poll() {
    if (cancel_requested() || (parent_ != nullptr && parent_->cancel_requested())) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline_ && ++polls_ >= kClockStride) {
      polls_ = 0;
      if (Clock::now() >= deadline_) {
        return Status::DeadlineExceeded("query deadline exceeded");
      }
    }
    return Status::OK();
  }

 private:
  /// A page fetch under the descent costs microseconds; checking the clock
  /// every 8th node keeps deadline overshoot well under a millisecond
  /// while amortizing the clock read away.
  static constexpr uint32_t kClockStride = 8;

  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
  uint32_t polls_ = 0;  ///< Touched only by the executing thread.
};

/// The token installed on this thread by ScopedQueryContext, or nullptr.
inline CancelToken* ThreadCancelToken() {
  return internal::tls_query_context.cancel;
}

}  // namespace lsdb

/// Cooperative checkpoint for Status-returning descent code. Placed at
/// node-load granularity (once per page fetched); when no token is
/// installed this is a thread-local load and an untaken branch.
#define LSDB_RETURN_IF_CANCELLED()                        \
  do {                                                    \
    ::lsdb::CancelToken* lsdb_tok_ =                      \
        ::lsdb::ThreadCancelToken();                      \
    if (lsdb_tok_ != nullptr) {                           \
      ::lsdb::Status lsdb_cst_ = lsdb_tok_->Poll();       \
      if (!lsdb_cst_.ok()) return lsdb_cst_;              \
    }                                                     \
  } while (0)

#endif  // LSDB_SERVICE_CANCEL_H_
