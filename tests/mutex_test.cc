// Tests for the concurrency-contract layer: the lock-order verifier
// behind lsdb::Mutex, the CondVar held-stack bookkeeping, the TLS
// redirect guards' nesting discipline, and live CircuitBreaker
// reconfiguration.
//
// The LockRegistry tests drive the registry with synthetic ids (and, for
// one end-to-end case, real single-threaded lock sequences), so they
// exercise inversion detection without constructing an actual deadlock.
// They require LSDB_LOCK_DEBUG builds — which is every build type except
// Release — and are skipped otherwise.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsdb/introspect/profiler.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/mutex.h"

// TSan ships its own lock-order-inversion detector, which (correctly)
// flags the tests that invert REAL mutexes on purpose. Those tests skip
// under TSan; the synthetic-id registry tests don't touch pthread
// mutexes, so they run everywhere.
#if defined(__SANITIZE_THREAD__)
#define LSDB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LSDB_TSAN_BUILD 1
#endif
#endif
#ifndef LSDB_TSAN_BUILD
#define LSDB_TSAN_BUILD 0
#endif

namespace lsdb {
namespace {

#if LSDB_LOCK_DEBUG

using lock_debug::LockRegistry;
using lock_debug::Report;
using lock_debug::ScopedRecordMode;

TEST(LockRegistryTest, TwoLockInversionDetected) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("inv2.A");
  const uint32_t b = reg.RegisterMutex("inv2.B");

  // Establish the order A -> B.
  reg.NoteAcquiring(a, "inv2.A");
  reg.NoteAcquired(a, "inv2.A");
  reg.NoteAcquiring(b, "inv2.B");
  reg.NoteAcquired(b, "inv2.B");
  reg.NoteReleased(b);
  reg.NoteReleased(a);
  EXPECT_TRUE(reg.TakeReports().empty());

  // Acquire in the inverted order: B held, then A closes the cycle.
  reg.NoteAcquiring(b, "inv2.B");
  reg.NoteAcquired(b, "inv2.B");
  reg.NoteAcquiring(a, "inv2.A");
  reg.NoteAcquired(a, "inv2.A");
  reg.NoteReleased(a);
  reg.NoteReleased(b);

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].reentrant);
  EXPECT_NE(std::find(reports[0].ids.begin(), reports[0].ids.end(), a),
            reports[0].ids.end());
  EXPECT_NE(std::find(reports[0].ids.begin(), reports[0].ids.end(), b),
            reports[0].ids.end());
  EXPECT_NE(reports[0].text.find("inv2.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv2.B"), std::string::npos);
}

TEST(LockRegistryTest, ThreeLockCycleDetected) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("inv3.A");
  const uint32_t b = reg.RegisterMutex("inv3.B");
  const uint32_t c = reg.RegisterMutex("inv3.C");

  auto pair = [&reg](uint32_t first, const char* fn, uint32_t second,
                     const char* sn) {
    reg.NoteAcquiring(first, fn);
    reg.NoteAcquired(first, fn);
    reg.NoteAcquiring(second, sn);
    reg.NoteAcquired(second, sn);
    reg.NoteReleased(second);
    reg.NoteReleased(first);
  };
  pair(a, "inv3.A", b, "inv3.B");  // A -> B
  pair(b, "inv3.B", c, "inv3.C");  // B -> C
  EXPECT_TRUE(reg.TakeReports().empty());
  pair(c, "inv3.C", a, "inv3.A");  // C -> A closes the 3-cycle

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].reentrant);
  EXPECT_GE(reports[0].ids.size(), 3u);
  EXPECT_NE(reports[0].text.find("inv3.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv3.B"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv3.C"), std::string::npos);
}

TEST(LockRegistryTest, ReentrantAcquisitionReported) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("reent.A");

  EXPECT_TRUE(reg.NoteAcquiring(a, "reent.A"));
  reg.NoteAcquired(a, "reent.A");
  // Second acquisition of the same non-recursive mutex on this thread.
  EXPECT_FALSE(reg.NoteAcquiring(a, "reent.A"));
  reg.NoteReleased(a);

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].reentrant);
  ASSERT_EQ(reports[0].ids.size(), 1u);
  EXPECT_EQ(reports[0].ids[0], a);
}

TEST(LockRegistryTest, HierarchicalOrderIsNotAFalsePositive) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t hi = reg.RegisterMutex("hier.hi");
  const uint32_t mid = reg.RegisterMutex("hier.mid");
  const uint32_t lo = reg.RegisterMutex("hier.lo");

  // A strict hierarchy (hi -> mid -> lo), exercised repeatedly and with
  // skipping (hi -> lo), never reports.
  for (int round = 0; round < 8; ++round) {
    reg.NoteAcquiring(hi, "hier.hi");
    reg.NoteAcquired(hi, "hier.hi");
    reg.NoteAcquiring(mid, "hier.mid");
    reg.NoteAcquired(mid, "hier.mid");
    reg.NoteAcquiring(lo, "hier.lo");
    reg.NoteAcquired(lo, "hier.lo");
    reg.NoteReleased(lo);
    reg.NoteReleased(mid);
    reg.NoteReleased(hi);

    reg.NoteAcquiring(hi, "hier.hi");
    reg.NoteAcquired(hi, "hier.hi");
    reg.NoteAcquiring(lo, "hier.lo");
    reg.NoteAcquired(lo, "hier.lo");
    reg.NoteReleased(lo);
    reg.NoteReleased(hi);
  }
  EXPECT_TRUE(reg.TakeReports().empty());
}

TEST(LockRegistryTest, CycleReportedOnce) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("once.A");
  const uint32_t b = reg.RegisterMutex("once.B");

  auto invert = [&reg, a, b]() {
    reg.NoteAcquiring(a, "once.A");
    reg.NoteAcquired(a, "once.A");
    reg.NoteAcquiring(b, "once.B");
    reg.NoteAcquired(b, "once.B");
    reg.NoteReleased(b);
    reg.NoteReleased(a);
    reg.NoteAcquiring(b, "once.B");
    reg.NoteAcquired(b, "once.B");
    reg.NoteAcquiring(a, "once.A");
    reg.NoteAcquired(a, "once.A");
    reg.NoteReleased(a);
    reg.NoteReleased(b);
  };
  invert();
  EXPECT_EQ(reg.TakeReports().size(), 1u);
  // The same inversion again is already known: no duplicate report.
  invert();
  EXPECT_TRUE(reg.TakeReports().empty());
}

TEST(LockRegistryTest, RealMutexInversionSingleThread) {
  // End-to-end: real lsdb::Mutex objects, a single thread, no deadlock —
  // the verifier still catches the ordering violation.
  if (LSDB_TSAN_BUILD) {
    GTEST_SKIP() << "deliberate real-mutex inversion trips TSan's own "
                    "lock-order detector";
  }
  ScopedRecordMode record;
  auto& reg = LockRegistry::Instance();
  Mutex a("real.A");
  Mutex b("real.B");

  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  EXPECT_TRUE(reg.TakeReports().empty());

  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].text.find("real.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("real.B"), std::string::npos);
}

TEST(LockRegistryTest, CondVarWaitKeepsHeldStackBalanced) {
  Mutex mu("cvdepth.mu");
  CondVar cv;
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 0u);
  mu.Lock();
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 1u);
  // Timed wait with an always-false predicate: releases and reacquires
  // internally, times out, and must leave the held stack at depth 1.
  const bool ok = cv.WaitFor(mu, std::chrono::milliseconds(1),
                             []() { return false; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 1u);
  mu.Unlock();
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 0u);
}

TEST(LockRegistryTest, TryLockFeedsOrderGraph) {
  if (LSDB_TSAN_BUILD) {
    GTEST_SKIP() << "deliberate real-mutex inversion trips TSan's own "
                    "lock-order detector";
  }
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  Mutex a("try.A");
  Mutex b("try.B");

  a.Lock();
  ASSERT_TRUE(b.TryLock());  // records try.A -> try.B
  b.Unlock();
  a.Unlock();
  EXPECT_TRUE(reg.TakeReports().empty());

  b.Lock();
  a.Lock();  // inverts against the try-lock edge
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(reg.TakeReports().size(), 1u);
}

#endif  // LSDB_LOCK_DEBUG

// ScopedQueryContext saves its thread's whole previous context and
// restores it on destruction; nested scopes must restore the *outer*
// counters, profile and token, not null. These pins back the
// lsdb-tls-redirect-pairing lint rule with runtime evidence: one per
// redirected slot, then all three together.

TEST(TlsRedirectGuardTest, CounterSinkNestingRestoresPrevious) {
  MetricCounters fallback;
  MetricCounters outer;
  MetricCounters inner;
  EXPECT_EQ(CounterSink(&fallback), &fallback);
  {
    ScopedCounterSink s1(&outer);
    EXPECT_EQ(CounterSink(&fallback), &outer);
    {
      ScopedCounterSink s2(&inner);
      EXPECT_EQ(CounterSink(&fallback), &inner);
    }
    // The inner scope must restore the outer redirect, not null.
    EXPECT_EQ(CounterSink(&fallback), &outer);
    {
      // A null redirect re-exposes the fallback...
      ScopedCounterSink s3(nullptr);
      EXPECT_EQ(CounterSink(&fallback), &fallback);
    }
    // ...and unwinding it still restores the outer redirect.
    EXPECT_EQ(CounterSink(&fallback), &outer);
  }
  EXPECT_EQ(CounterSink(&fallback), &fallback);
}

TEST(TlsRedirectGuardTest, QueryProfileNestingRestoresPrevious) {
  introspect::QueryProfile outer;
  introspect::QueryProfile inner;
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
  {
    ScopedQueryContext s1({.profile = &outer});
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
    {
      ScopedQueryContext s2({.profile = &inner});
      EXPECT_EQ(introspect::ThreadProfile(), &inner);
    }
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
  }
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
}

TEST(TlsRedirectGuardTest, CancelScopeNestingRestoresPrevious) {
  CancelToken outer;
  CancelToken inner;
  EXPECT_EQ(ThreadCancelToken(), nullptr);
  {
    ScopedQueryContext s1({.cancel = &outer});
    EXPECT_EQ(ThreadCancelToken(), &outer);
    {
      ScopedQueryContext s2({.cancel = &inner});
      EXPECT_EQ(ThreadCancelToken(), &inner);
    }
    EXPECT_EQ(ThreadCancelToken(), &outer);
  }
  EXPECT_EQ(ThreadCancelToken(), nullptr);
}

TEST(TlsRedirectGuardTest, NestedScopeRestoresOuterContext) {
  MetricCounters fallback, outer_c, inner_c;
  introspect::QueryProfile outer_p, inner_p;
  CancelToken outer_t, inner_t;
  const auto expect_context = [&](MetricCounters* c,
                                  introspect::QueryProfile* p,
                                  CancelToken* t) {
    EXPECT_EQ(CounterSink(&fallback), c);
    EXPECT_EQ(introspect::ThreadProfile(), p);
    EXPECT_EQ(ThreadCancelToken(), t);
  };
  expect_context(&fallback, nullptr, nullptr);
  {
    ScopedQueryContext outer({&outer_c, &outer_p, &outer_t});
    expect_context(&outer_c, &outer_p, &outer_t);
    LSDB_INTROSPECT(OnNode(1, true, 8, 3, 2));
    {
      ScopedQueryContext inner({&inner_c, &inner_p, &inner_t});
      expect_context(&inner_c, &inner_p, &inner_t);
      LSDB_INTROSPECT(OnNode(0, false, 4, 2, 0));
    }
    expect_context(&outer_c, &outer_p, &outer_t);
    {
      // A null context turns every redirect off: increments reach the
      // fallback, hooks record nowhere, checkpoints are untaken...
      ScopedQueryContext off(QueryContext{});
      expect_context(&fallback, nullptr, nullptr);
      LSDB_INTROSPECT(OnNode(0, false, 100, 100, 0));
    }
    expect_context(&outer_c, &outer_p, &outer_t);
    {
      // ...and the counters-only form keeps the enclosing profile and
      // token.
      ScopedCounterSink counters_only(&inner_c);
      expect_context(&inner_c, &outer_p, &outer_t);
    }
    // Unwinding every nested scope still restores the outer context.
    expect_context(&outer_c, &outer_p, &outer_t);
  }
  expect_context(&fallback, nullptr, nullptr);
  EXPECT_EQ(inner_p.nodes_visited, 1u);
  EXPECT_EQ(inner_p.entries_scanned, 4u);
  EXPECT_EQ(outer_p.nodes_visited, 1u);  // the null window recorded nowhere
  EXPECT_EQ(outer_p.entries_scanned, 8u);
  EXPECT_EQ(outer_p.results, 2u);
}

TEST(TlsRedirectGuardTest, GuardsAreThreadLocal) {
  // A redirect installed on one thread must be invisible on another.
  MetricCounters fallback;
  MetricCounters redirected;
  ScopedCounterSink sink(&redirected);
  ASSERT_EQ(CounterSink(&fallback), &redirected);
  MetricCounters* seen = nullptr;
  std::thread other([&]() { seen = CounterSink(&fallback); });
  other.join();
  EXPECT_EQ(seen, &fallback);
}

// Pins the fix for the CircuitBreaker reconfiguration race: options()
// and set_options() now go through per-knob atomics, so a live
// reconfigure while workers classify outcomes can neither tear nor trip
// TSan (this test runs under the full-suite TSan tier).

TEST(BreakerReconfigTest, LiveReconfigureWhileServing) {
  CircuitBreaker breaker(CircuitBreaker::Options{.failure_threshold = 3,
                                                 .probe_interval = 4});
  std::atomic<bool> stop{false};
  std::thread reconfig([&]() {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      CircuitBreaker::Options o;
      o.failure_threshold = 1 + (i % 7);
      o.probe_interval = 1 + (i % 5);
      breaker.set_options(o);
      ++i;
    }
  });
  for (int i = 0; i < 20000; ++i) {
    (void)breaker.AllowRequest();
    if (i % 3 == 0) {
      (void)breaker.RecordFailure();
    } else {
      (void)breaker.RecordSuccess();
    }
    const CircuitBreaker::Options seen = breaker.options();
    ASSERT_GE(seen.probe_interval, 1u);
    ASSERT_LE(seen.failure_threshold, 7u);
  }
  stop.store(true, std::memory_order_relaxed);
  reconfig.join();
  // Leave the breaker closed and deterministic for good measure.
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
}

TEST(BreakerReconfigTest, ProbeIntervalClampedToOne) {
  CircuitBreaker breaker;
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.probe_interval = 0;  // would divide by zero in AllowRequest
  breaker.set_options(o);
  EXPECT_GE(breaker.options().probe_interval, 1u);
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
  // Division-by-zero would crash here without the clamp.
  (void)breaker.AllowRequest();
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreakerTest, RecordSuccessReportsTheCloseExactlyOnce) {
  CircuitBreaker breaker(CircuitBreaker::Options{.failure_threshold = 2,
                                                 .probe_interval = 1});
  // Closed: a success has nothing to close.
  EXPECT_FALSE(breaker.RecordSuccess());
  EXPECT_FALSE(breaker.RecordSuccess());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.RecordFailure());  // trips
  ASSERT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.RecordSuccess());   // the probe that closes it
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.RecordSuccess());
  // The streak was reset: one failure alone does not trip it again.
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.open());

  // Concurrent successes after a trip: exactly one reports the close.
  ASSERT_TRUE(breaker.RecordFailure());
  constexpr int kThreads = 4;
  std::atomic<int> closes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 1000; ++i) {
        if (breaker.RecordSuccess()) closes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(closes.load(), 1);
  EXPECT_FALSE(breaker.open());
}

}  // namespace
}  // namespace lsdb
