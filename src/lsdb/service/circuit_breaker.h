// Per-structure circuit breaker for graceful degradation.
//
// The QueryService keeps one CircuitBreaker per served index. Every query
// outcome is classified: corruption and I/O errors count as failures,
// successful reads (including clean NotFound / InvalidArgument) reset the
// streak. After `failure_threshold` consecutive failures the breaker
// opens: requests are rejected fast with Status::Unavailable, without
// touching the failing structure's pages, while the other structures keep
// serving. An open breaker stays half-open: every `probe_interval`-th
// request is let through as a probe, so a structure whose fault was
// transient (or whose storage was repaired) closes the breaker again on
// the first probe that succeeds.
//
// Lock-free: workers record outcomes concurrently; all state is atomics,
// including the two option knobs, so set_options() is safe while the
// breaker is serving (a live reconfiguration applies to the next
// request/outcome that reads the knob — there is no torn read). The
// consecutive-failure count is monotonic enough for the purpose — an
// interleaved success resets it, which errs toward keeping the structure
// in service (the conservative direction for a read-only workload).

#ifndef LSDB_SERVICE_CIRCUIT_BREAKER_H_
#define LSDB_SERVICE_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>

#include "lsdb/util/status.h"

namespace lsdb {

class CircuitBreaker {
 public:
  struct Options {
    /// Consecutive failures that open the breaker.
    uint32_t failure_threshold = 5;
    /// While open, let every Nth request through as a half-open probe
    /// (the rest are rejected fast). Must be >= 1.
    uint32_t probe_interval = 64;
  };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const Options& options) { set_options(options); }

  /// True if the request should be executed; false to fail it fast with
  /// kUnavailable. While open, every probe_interval-th caller is admitted
  /// as a probe.
  bool AllowRequest() {
    if (!open_.load(std::memory_order_acquire)) return true;
    const uint64_t ticket =
        probe_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (ticket % probe_interval_.load(std::memory_order_relaxed) == 0) {
      return true;
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Classifies a query outcome. Failures are the storage-level error
  /// codes — corruption and I/O; logical outcomes (ok, NotFound,
  /// InvalidArgument) are successes. kUnavailable (our own fast-fail) and
  /// anything else leave the streak untouched.
  static bool IsFailure(const Status& s) {
    return s.IsCorruption() || s.IsIoError();
  }
  static bool IsSuccess(const Status& s) {
    return s.ok() || s.IsNotFound() || s.IsInvalidArgument();
  }

  /// Records a failed execution. Returns true iff this call opened the
  /// breaker (for one-shot trace/log events).
  bool RecordFailure() {
    const uint32_t streak =
        1 + consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
    if (streak >= failure_threshold_.load(std::memory_order_relaxed) &&
        !open_.exchange(true, std::memory_order_acq_rel)) {
      times_opened_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Records a successful execution. Returns true iff this call closed a
  /// previously open breaker (a probe succeeded). Reads before it writes:
  /// on a healthy breaker every worker records a success per query, and a
  /// store or exchange there would make the workers trade the breaker's
  /// cache line; two loads leave it shared.
  bool RecordSuccess() {
    if (consecutive_failures_.load(std::memory_order_relaxed) != 0) {
      consecutive_failures_.store(0, std::memory_order_relaxed);
    }
    return open_.load(std::memory_order_acquire) &&
           open_.exchange(false, std::memory_order_acq_rel);
  }

  bool open() const { return open_.load(std::memory_order_acquire); }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t times_opened() const {
    return times_opened_.load(std::memory_order_relaxed);
  }
  /// By value: the knobs may be reconfigured live.
  Options options() const {
    Options o;
    o.failure_threshold = failure_threshold_.load(std::memory_order_relaxed);
    o.probe_interval = probe_interval_.load(std::memory_order_relaxed);
    return o;
  }
  /// Reconfigures thresholds. Safe while the breaker is shared across
  /// threads: each knob is a single atomic, applied to the next request
  /// or outcome that reads it. probe_interval is clamped to >= 1 (the
  /// modulo in AllowRequest must never divide by zero).
  void set_options(const Options& options) {
    failure_threshold_.store(options.failure_threshold,
                             std::memory_order_relaxed);
    probe_interval_.store(options.probe_interval < 1 ? 1
                                                     : options.probe_interval,
                          std::memory_order_relaxed);
  }

  /// Administrative reset to the closed state (streak cleared).
  void Reset() {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    open_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<uint32_t> failure_threshold_{Options{}.failure_threshold};
  std::atomic<uint32_t> probe_interval_{Options{}.probe_interval};
  std::atomic<bool> open_{false};
  std::atomic<uint32_t> consecutive_failures_{0};
  std::atomic<uint64_t> probe_ticket_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> times_opened_{0};
};

}  // namespace lsdb

#endif  // LSDB_SERVICE_CIRCUIT_BREAKER_H_
