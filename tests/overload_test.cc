// Overload-protection tests: deadlines, cooperative cancellation,
// admission control, and graceful shutdown.
//
// The cancellation-race and drain tests are exercised under
// ThreadSanitizer by scripts/ci.sh: tokens are cancelled from a second
// thread while queries are mid-descent through all four structures
// (R*-tree, R+-tree, PMR quadtree directly; the segment table's B-tree
// through point/incident result materialization).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/service/admission.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/service/query_service.h"
#include "lsdb/service/worker_pool.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/page_file.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

PolygonalMap SmallMap(uint64_t seed = 11) {
  CountyProfile p;
  p.name = "overload-test";
  p.lattice = 20;
  p.meander_steps = 5;
  p.seed = seed;
  return GenerateCounty(p, /*world_log2=*/14);
}

std::vector<QueryRequest> MixedBatch(const PolygonalMap& map, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s =
        map.segments[rng.Uniform(static_cast<uint32_t>(map.segments.size()))];
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1: {
        const Coord x = static_cast<Coord>(rng.Uniform(15000));
        const Coord y = static_cast<Coord>(rng.Uniform(15000));
        batch.push_back(
            QueryRequest::WindowQ(Rect::Of(x, y, x + 700, y + 700)));
        break;
      }
      case 2:
        batch.push_back(QueryRequest::NearestQ(
            Point{static_cast<Coord>(rng.Uniform(16000)),
                  static_cast<Coord>(rng.Uniform(16000))}));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

/// Full-world windows: each one descends through far more than
/// CancelToken's clock stride worth of pages, so an expired deadline or a
/// set cancel flag is guaranteed to be observed mid-descent.
std::vector<QueryRequest> FullWindows(size_t n) {
  return std::vector<QueryRequest>(
      n, QueryRequest::WindowQ(Rect::Of(0, 0, 16383, 16383)));
}

// -- CancelToken -------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken tok;
  EXPECT_TRUE(tok.StatusNow().ok());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(tok.Poll().ok());
  EXPECT_FALSE(tok.has_deadline());
}

TEST(CancelTokenTest, CancelIsObservedByPollAndStatusNow) {
  CancelToken tok;
  tok.Cancel();
  EXPECT_TRUE(tok.Poll().IsCancelled());
  EXPECT_TRUE(tok.StatusNow().IsCancelled());
}

TEST(CancelTokenTest, ExpiredDeadlineSurfacesWithinOneClockStride) {
  CancelToken tok;
  tok.ArmBudget(0);  // already expired
  EXPECT_TRUE(tok.StatusNow().IsDeadlineExceeded());
  // Poll amortizes the clock read; the expiry must surface within one
  // stride of checkpoints (8 at the time of writing, asserted loosely).
  Status got = Status::OK();
  for (int i = 0; i < 64 && got.ok(); ++i) got = tok.Poll();
  EXPECT_TRUE(got.IsDeadlineExceeded()) << got.ToString();
}

TEST(CancelTokenTest, LinkedParentCancelPropagates) {
  CancelToken parent;
  CancelToken child;
  child.LinkParent(&parent);
  EXPECT_TRUE(child.Poll().ok());
  parent.Cancel();
  EXPECT_TRUE(child.Poll().IsCancelled());
  EXPECT_TRUE(child.StatusNow().IsCancelled());
  EXPECT_FALSE(child.cancel_requested());  // the child itself is untouched
}

TEST(CancelTokenTest, ScopedCancelScopeInstallsAndRestoresNested) {
  EXPECT_EQ(ThreadCancelToken(), nullptr);
  CancelToken outer, inner;
  {
    ScopedQueryContext a({.cancel = &outer});
    EXPECT_EQ(ThreadCancelToken(), &outer);
    {
      ScopedQueryContext b({.cancel = &inner});
      EXPECT_EQ(ThreadCancelToken(), &inner);
      // A null context disables checkpoints for a nested region.
      ScopedQueryContext c(QueryContext{});
      EXPECT_EQ(ThreadCancelToken(), nullptr);
    }
    EXPECT_EQ(ThreadCancelToken(), &outer);
  }
  EXPECT_EQ(ThreadCancelToken(), nullptr);
}

// Shedding and timeouts must never trip or heal a circuit breaker: the
// overload codes are classified as neither failure nor success.
TEST(CancelTokenTest, OverloadStatusesAreBreakerNeutral) {
  const Status cancelled = Status::Cancelled("x");
  const Status expired = Status::DeadlineExceeded("x");
  EXPECT_FALSE(CircuitBreaker::IsFailure(cancelled));
  EXPECT_FALSE(CircuitBreaker::IsSuccess(cancelled));
  EXPECT_FALSE(CircuitBreaker::IsFailure(expired));
  EXPECT_FALSE(CircuitBreaker::IsSuccess(expired));
}

// -- AdmissionQueue ----------------------------------------------------------

AdmissionQueue::Ticket MakeTicket(QueryType kind, Coord marker = 0) {
  AdmissionQueue::Ticket t;
  switch (kind) {
    case QueryType::kPoint:
      t.request = QueryRequest::PointQ(Point{marker, 0});
      break;
    case QueryType::kWindow:
      t.request = QueryRequest::WindowQ(Rect::Of(0, 0, 10, 10));
      break;
    case QueryType::kNearest:
      t.request = QueryRequest::NearestQ(Point{marker, 0});
      break;
    case QueryType::kIncident:
      t.request = QueryRequest::IncidentQ(Point{marker, 0});
      break;
  }
  t.enqueued = CancelToken::Clock::now();
  return t;
}

Coord Marker(const AdmissionQueue::Ticket& t) { return t.request.point.x; }

TEST(AdmissionQueueTest, FifoRejectsNewestOnFullAndServesOldestFirst) {
  AdmissionOptions opt;
  opt.policy = AdmissionOptions::Policy::kFifoReject;
  opt.max_queue = 2;
  AdmissionQueue q(opt);
  std::vector<AdmissionQueue::Shed> shed;
  EXPECT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 1), &shed));
  EXPECT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 2), &shed));
  EXPECT_TRUE(shed.empty());
  // Full: the NEW request is the one rejected.
  EXPECT_FALSE(q.Offer(MakeTicket(QueryType::kPoint, 3), &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].reason, ShedReason::kQueueFull);
  EXPECT_EQ(Marker(shed[0].ticket), 3);

  AdmissionQueue::Ticket t;
  std::vector<AdmissionQueue::Shed> takes;
  ASSERT_TRUE(q.Take(&t, &takes));
  EXPECT_EQ(Marker(t), 1);  // oldest first
  q.OnExecuted(t.request.type, Status::OK());
  ASSERT_TRUE(q.Take(&t, &takes));
  EXPECT_EQ(Marker(t), 2);
  q.OnExecuted(t.request.type, Status::OK());
  EXPECT_FALSE(q.Take(&t, &takes));
  EXPECT_TRUE(takes.empty());

  const AdmissionStats s = q.Snapshot();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.shed[static_cast<size_t>(ShedReason::kQueueFull)], 1u);
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.max_depth, 2u);
}

TEST(AdmissionQueueTest, AdaptiveLifoEvictsOldestAndServesNewestWhenDeep) {
  AdmissionOptions opt;
  opt.policy = AdmissionOptions::Policy::kAdaptiveLifo;
  opt.max_queue = 4;
  AdmissionQueue q(opt);
  std::vector<AdmissionQueue::Shed> shed;
  for (Coord m = 1; m <= 4; ++m) {
    ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, m), &shed));
  }
  // Depth 4 > max_queue/2: newest-first.
  AdmissionQueue::Ticket t;
  ASSERT_TRUE(q.Take(&t, &shed));
  EXPECT_EQ(Marker(t), 4);
  q.OnExecuted(t.request.type, Status::OK());

  // Refill to full, then one more: the OLDEST ticket (1) is evicted to
  // admit the new one.
  ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 5), &shed));
  EXPECT_TRUE(shed.empty());
  EXPECT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 6), &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].reason, ShedReason::kEvicted);
  EXPECT_EQ(Marker(shed[0].ticket), 1);
  // An evicted ticket WAS admitted: settle its per-kind slot.
  q.OnFinished(shed[0].ticket.request.type);

  ASSERT_TRUE(q.Take(&t, &shed));
  EXPECT_EQ(Marker(t), 6);  // still deep: newest first
  q.OnExecuted(t.request.type, Status::OK());

  const AdmissionStats s = q.Snapshot();
  EXPECT_EQ(s.admitted, 6u);
  EXPECT_EQ(s.shed[static_cast<size_t>(ShedReason::kEvicted)], 1u);
}

TEST(AdmissionQueueTest, PerKindLimitCapsOutstandingUntilSettled) {
  AdmissionOptions opt;
  opt.max_queue = 16;
  opt.max_outstanding_per_kind[static_cast<size_t>(QueryType::kPoint)] = 1;
  AdmissionQueue q(opt);
  std::vector<AdmissionQueue::Shed> shed;
  ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 1), &shed));
  // Second point is capped; a window is not.
  EXPECT_FALSE(q.Offer(MakeTicket(QueryType::kPoint, 2), &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].reason, ShedReason::kKindLimit);
  EXPECT_TRUE(q.Offer(MakeTicket(QueryType::kWindow), &shed));

  // The slot stays occupied through execution (queued + executing), and
  // frees once the response is accounted.
  AdmissionQueue::Ticket t;
  ASSERT_TRUE(q.Take(&t, &shed));
  ASSERT_EQ(t.request.type, QueryType::kPoint);
  EXPECT_FALSE(q.Offer(MakeTicket(QueryType::kPoint, 3), &shed));
  q.OnExecuted(QueryType::kPoint, Status::OK());
  EXPECT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 4), &shed));
}

TEST(AdmissionQueueTest, CoDelShedsStaleTicketsAfterSustainedDelay) {
  AdmissionOptions opt;
  opt.policy = AdmissionOptions::Policy::kCoDel;
  opt.codel_target_ns = 1'000;        // 1 us — any sleep exceeds it
  opt.codel_interval_ns = 1'000'000;  // 1 ms control interval
  AdmissionQueue q(opt);
  std::vector<AdmissionQueue::Shed> shed;
  for (Coord m = 1; m <= 3; ++m) {
    ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, m), &shed));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // First Take above target starts the control interval but tolerates the
  // burst: the ticket passes.
  AdmissionQueue::Ticket t;
  ASSERT_TRUE(q.Take(&t, &shed));
  EXPECT_EQ(Marker(t), 1);
  EXPECT_TRUE(shed.empty());
  q.OnExecuted(t.request.type, Status::OK());

  // A full interval later the delay has not recovered: the remaining
  // stale tickets are shed at dequeue.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(q.Take(&t, &shed));
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].reason, ShedReason::kCoDel);
  EXPECT_EQ(shed[1].reason, ShedReason::kCoDel);
  for (AdmissionQueue::Shed& s : shed) q.OnFinished(s.ticket.request.type);

  const AdmissionStats s = q.Snapshot();
  EXPECT_EQ(s.shed[static_cast<size_t>(ShedReason::kCoDel)], 2u);
  EXPECT_GT(s.last_queue_delay_ns, opt.codel_target_ns);
}

TEST(AdmissionQueueTest, CloseDrainsEverythingAndShedsFutureOffers) {
  AdmissionOptions opt;
  opt.max_queue = 8;
  AdmissionQueue q(opt);
  std::vector<AdmissionQueue::Shed> shed;
  ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kPoint, 1), &shed));
  ASSERT_TRUE(q.Offer(MakeTicket(QueryType::kWindow), &shed));

  std::vector<AdmissionQueue::Ticket> drained;
  q.Close(&drained);
  ASSERT_EQ(drained.size(), 2u);
  for (AdmissionQueue::Ticket& t : drained) q.OnFinished(t.request.type);

  EXPECT_FALSE(q.Offer(MakeTicket(QueryType::kPoint, 2), &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].reason, ShedReason::kShutdown);
  AdmissionQueue::Ticket t;
  EXPECT_FALSE(q.Take(&t, &shed));
}

TEST(AdmissionQueueTest, RecordShedCountsUpstreamBrownouts) {
  AdmissionQueue q(AdmissionOptions{});
  q.RecordShed(ShedReason::kBrownout);
  q.RecordShed(ShedReason::kBrownout);
  const AdmissionStats s = q.Snapshot();
  EXPECT_EQ(s.shed[static_cast<size_t>(ShedReason::kBrownout)], 2u);
  EXPECT_EQ(s.shed_total, 2u);
  EXPECT_EQ(s.admitted, 0u);
}

// -- WorkerPool task path ----------------------------------------------------

TEST(WorkerPoolTest, ShutdownDrainsEveryAcceptedTaskExactlyOnce) {
  constexpr size_t kTasks = 200;
  std::vector<std::atomic<uint32_t>> ran(kTasks);
  {
    WorkerPool pool(2);
    for (size_t i = 0; i < kTasks; ++i) {
      ASSERT_TRUE(pool.Submit([&ran, i](uint32_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        ran[i].fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destruction drains the backlog before the workers exit.
  }
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(ran[i].load(), 1u) << "task " << i;
  }
}

TEST(WorkerPoolTest, SubmittedTasksCoexistWithParallelFor) {
  WorkerPool pool(2);
  std::atomic<uint64_t> task_runs{0};
  std::atomic<uint64_t> items{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.Submit(
          [&](uint32_t) { task_runs.fetch_add(1, std::memory_order_relaxed); }));
    }
    pool.ParallelFor(
        100, [&](uint32_t, uint64_t) {
          items.fetch_add(1, std::memory_order_relaxed);
        });
  }
  // Wait for the task backlog to drain (bounded poll; the pool has no
  // explicit join-tasks API by design — shutdown is the barrier).
  for (int spin = 0; spin < 2000 && pool.tasks_pending() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task_runs.load(), 150u);
  EXPECT_EQ(items.load(), 300u);
  EXPECT_EQ(pool.tasks_pending(), 0u);
}

// -- BufferPool pin waits under a token --------------------------------------

TEST(BufferPoolCancelTest, DeadlineExpiryDuringPinWaitUnblocksPromptly) {
  MemPageFile file(256);
  BufferPool pool(&file, /*frame_count=*/1, /*metrics=*/nullptr);
  PageId id0 = kInvalidPageId, id1 = kInvalidPageId;
  {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    id0 = p->id();
  }
  {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    id1 = p->id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  auto held = pool.Fetch(id0);  // pin the only frame from this thread
  ASSERT_TRUE(held.ok());

  Status got = Status::OK();
  int64_t elapsed_ms = 0;
  std::thread waiter([&] {
    CancelToken tok;
    tok.ArmBudget(50'000'000);  // 50 ms, far below kExhaustedWaitMs
    ScopedQueryContext scope({.cancel = &tok});
    const auto start = std::chrono::steady_clock::now();
    auto r = pool.Fetch(id1);
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    got = r.ok() ? Status::OK() : r.status();
  });
  waiter.join();
  EXPECT_TRUE(got.IsDeadlineExceeded()) << got.ToString();
  // The wait must give up at the token deadline, not the pool's 1 s
  // exhaustion fallback (generous bound against scheduler jitter).
  EXPECT_LT(elapsed_ms, 800);
  EXPECT_GE(pool.pin_waits(), 1u);

  held->Release();
  auto after = pool.Fetch(id1);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(BufferPoolCancelTest, CrossThreadCancelUnparksPinWait) {
  MemPageFile file(256);
  BufferPool pool(&file, /*frame_count=*/1, /*metrics=*/nullptr);
  PageId id0 = kInvalidPageId, id1 = kInvalidPageId;
  {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    id0 = p->id();
  }
  {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    id1 = p->id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  auto held = pool.Fetch(id0);
  ASSERT_TRUE(held.ok());

  CancelToken tok;  // no deadline: only the cancel flag can unpark it
  Status got = Status::OK();
  std::thread waiter([&] {
    ScopedQueryContext scope({.cancel = &tok});
    auto r = pool.Fetch(id1);
    got = r.ok() ? Status::OK() : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tok.Cancel();
  waiter.join();
  EXPECT_TRUE(got.IsCancelled()) << got.ToString();
  held->Release();
}

// -- Service-level deadlines and cancellation --------------------------------

class OverloadServiceTest : public ::testing::Test {
 protected:
  void Build(ServiceOptions opt) {
    map_ = SmallMap();
    // Small serving pools so descents perform real page traffic (and so
    // checkpoints at node-load granularity actually run).
    opt.serving_buffer_frames = 16;
    auto svc = QueryService::Build(map_, opt);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    svc_ = std::move(*svc);
  }

  PolygonalMap map_;
  std::unique_ptr<QueryService> svc_;
};

TEST_F(OverloadServiceTest, ExpiredDeadlineUnwindsEveryStructureAsTimeout) {
  Build(ServiceOptions{});
  auto batch = FullWindows(24);
  for (QueryRequest& q : batch) q.deadline_ns = 1;  // expires immediately
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(res.ok());
    for (const QueryResponse& r : res->responses) {
      EXPECT_TRUE(r.status.IsDeadlineExceeded())
          << ServedIndexName(which) << ": " << r.status.ToString();
    }
    // Timeouts are breaker-neutral: the structure is NOT degraded.
    EXPECT_FALSE(svc_->degraded(which));
    EXPECT_EQ(svc_->breaker(which).times_opened(), 0u);
  }
}

TEST_F(OverloadServiceTest, PreCancelledTokenUnwindsMidDescent) {
  Build(ServiceOptions{});
  CancelToken tok;
  tok.Cancel();
  auto batch = FullWindows(16);
  for (QueryRequest& q : batch) q.cancel = &tok;
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatchSequential(which, batch);
    ASSERT_TRUE(res.ok());
    for (const QueryResponse& r : res->responses) {
      EXPECT_TRUE(r.status.IsCancelled())
          << ServedIndexName(which) << ": " << r.status.ToString();
    }
    EXPECT_FALSE(svc_->degraded(which));
  }
}

// The TSan-tier race: a caller token cancelled from a second thread while
// 4 workers are mid-descent. Every response must be a clean result or a
// typed Cancelled — never a crash, a tear, or a breaker trip — and the
// service must serve correct results afterwards.
TEST_F(OverloadServiceTest, CancelRacingMidDescentLeavesServiceHealthy) {
  ServiceOptions opt;
  opt.num_threads = 4;
  Build(opt);
  auto work = MixedBatch(map_, 1500, 29);
  const auto heavy = FullWindows(100);
  work.insert(work.end(), heavy.begin(), heavy.end());

  for (ServedIndex which : kAllServedIndexes) {
    auto baseline = svc_->ExecuteBatchSequential(which, work);
    ASSERT_TRUE(baseline.ok());

    CancelToken tok;
    auto racing = work;
    for (QueryRequest& q : racing) q.cancel = &tok;
    std::thread canceller([&tok] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      tok.Cancel();
    });
    auto res = svc_->ExecuteBatch(which, racing);
    canceller.join();
    ASSERT_TRUE(res.ok());
    for (const QueryResponse& r : res->responses) {
      ASSERT_TRUE(r.status.ok() || r.status.IsCancelled() ||
                  r.status.IsNotFound())
          << ServedIndexName(which) << ": " << r.status.ToString();
    }
    EXPECT_FALSE(svc_->degraded(which));
    EXPECT_EQ(svc_->breaker(which).times_opened(), 0u);

    // The structure still answers exactly as before the cancellation storm.
    auto after = svc_->ExecuteBatchSequential(which, work);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(SameResponses(*after, *baseline)) << ServedIndexName(which);
  }
}

// Pins the acceptance criterion "paper metrics stay byte-identical with
// the layer compiled in": arming a (never-firing) token on every query of
// a batch must change neither the responses nor the logical work counters
// the paper's tables are built from.
TEST_F(OverloadServiceTest, ArmedButUnfiredTokensLeavePaperMetricsIdentical) {
  Build(ServiceOptions{});
  const auto plain = MixedBatch(map_, 400, 23);
  auto armed = plain;
  CancelToken never;
  for (QueryRequest& q : armed) {
    q.deadline_ns = 60'000'000'000;  // 60 s: never expires
    q.cancel = &never;
  }
  for (ServedIndex which : kAllServedIndexes) {
    auto a = svc_->ExecuteBatchSequential(which, plain);
    auto b = svc_->ExecuteBatchSequential(which, armed);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(SameResponses(*a, *b)) << ServedIndexName(which);
    EXPECT_EQ(a->metrics.page_fetches, b->metrics.page_fetches)
        << ServedIndexName(which);
    EXPECT_EQ(a->metrics.segment_comps, b->metrics.segment_comps);
    EXPECT_EQ(a->metrics.bbox_comps, b->metrics.bbox_comps);
    EXPECT_EQ(a->metrics.bucket_comps, b->metrics.bucket_comps);
  }
}

// -- Service-level admission --------------------------------------------------

TEST_F(OverloadServiceTest, AdmittedBatchMatchesGroundTruthWhenUnloaded) {
  ServiceOptions opt;
  opt.num_threads = 2;
  opt.admission.max_queue = 4096;
  Build(opt);
  const auto batch = MixedBatch(map_, 300, 31);
  auto truth = svc_->ExecuteBatchSequential(ServedIndex::kRStar, batch);
  ASSERT_TRUE(truth.ok());
  auto admitted = svc_->ExecuteBatchAdmitted(ServedIndex::kRStar, batch);
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted->responses.size(), batch.size());
  EXPECT_TRUE(SameResponses(*admitted, *truth));

  const AdmissionStats s = svc_->admission_stats();
  EXPECT_EQ(s.admitted, batch.size());
  EXPECT_EQ(s.executed, batch.size());
  EXPECT_EQ(s.shed_total, 0u);
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.cancelled, 0u);
}

TEST_F(OverloadServiceTest, SubmitQueryInvokesCallbackExactlyOnce) {
  ServiceOptions opt;
  opt.num_threads = 2;
  opt.admission.max_queue = 1024;
  Build(opt);
  const auto batch = MixedBatch(map_, 128, 37);
  std::vector<std::atomic<uint32_t>> calls(batch.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    svc_->SubmitQuery(ServedIndex::kPmr, batch[i], [&, i](QueryResponse r) {
      EXPECT_TRUE(r.status.ok() || r.status.IsNotFound())
          << r.status.ToString();
      EXPECT_GT(r.latency_ns, 0u);  // submit-to-completion time
      calls[i].fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(60),
                          [&] { return remaining == 0; }));
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(calls[i].load(), 1u) << "query " << i;
  }
}

TEST_F(OverloadServiceTest, ZeroQueueShedsEverySubmissionInline) {
  ServiceOptions opt;
  opt.admission.max_queue = 0;  // queuing disabled: everything sheds
  opt.trace_pool_sample_every = 1;
  Build(opt);
  std::ostringstream trace;
  svc_->tracer().AttachStream(&trace);
  const auto batch = MixedBatch(map_, 20, 41);
  size_t unavailable = 0;
  for (const QueryRequest& q : batch) {
    svc_->SubmitQuery(ServedIndex::kRStar, q, [&](QueryResponse r) {
      // Shed completions run inline on this thread.
      unavailable += r.status.IsUnavailable();
    });
  }
  EXPECT_EQ(unavailable, batch.size());
  const AdmissionStats s = svc_->admission_stats();
  EXPECT_EQ(s.shed[static_cast<size_t>(ShedReason::kQueueFull)],
            batch.size());
  EXPECT_EQ(s.admitted, 0u);
  // Shed events land in the trace, and the scoreboard in /metrics.
  EXPECT_NE(trace.str().find("\"event\":\"admission\""), std::string::npos);
  svc_->tracer().Close();
  const std::string prom = svc_->stats().RenderPrometheus();
  EXPECT_NE(prom.find("lsdb_admission_shed_total"), std::string::npos);
  EXPECT_NE(prom.find("lsdb_admission_queue_depth"), std::string::npos);
}

TEST_F(OverloadServiceTest, BrownoutShedsWhileBreakerOpenWithoutTouchingIt) {
  ServiceOptions opt;
  opt.num_threads = 2;
  Build(opt);
  // Kill the R+-tree's storage and trip its breaker the usual way.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(true);
  auto dead = svc_->ExecuteBatchSequential(ServedIndex::kRPlus,
                                           FullWindows(100));
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(svc_->degraded(ServedIndex::kRPlus));

  // Admission now browns out at submit: requests shed as Unavailable
  // without occupying queue space. Half-open probes still pass through
  // (at most one in this burst) and fail against the dead storage.
  auto probes = svc_->ExecuteBatchAdmitted(
      ServedIndex::kRPlus,
      std::vector<QueryRequest>(40, QueryRequest::PointQ(map_.segments[0].a)));
  ASSERT_TRUE(probes.ok());
  size_t shed = 0, probed = 0;
  for (const QueryResponse& r : probes->responses) {
    if (r.status.IsUnavailable()) {
      ++shed;
    } else {
      ASSERT_TRUE(r.status.IsIoError()) << r.status.ToString();
      ++probed;
    }
  }
  EXPECT_GE(shed, 39u);
  EXPECT_LE(probed, 1u);
  const AdmissionStats s = svc_->admission_stats();
  EXPECT_GE(s.shed[static_cast<size_t>(ShedReason::kBrownout)], 39u);
  EXPECT_TRUE(svc_->degraded(ServedIndex::kRPlus));  // sheds didn't heal it

  // Storage repaired + breaker reset: the admitted path serves again.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(false);
  svc_->breaker(ServedIndex::kRPlus).Reset();
  auto healed = svc_->ExecuteBatchAdmitted(
      ServedIndex::kRPlus,
      std::vector<QueryRequest>(4, QueryRequest::PointQ(map_.segments[0].a)));
  ASSERT_TRUE(healed.ok());
  for (const QueryResponse& r : healed->responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
}

// Shutdown with a deep backlog: every submitted query's callback fires
// exactly once — executed, or completed as Cancelled by the drain — and
// the destructor does not hang or leak tickets.
TEST_F(OverloadServiceTest, ShutdownCompletesEveryPendingSubmission) {
  ServiceOptions opt;
  opt.num_threads = 1;  // one worker: the backlog is guaranteed deep
  opt.admission.max_queue = 4096;
  Build(opt);
  constexpr size_t kN = 150;
  const auto batch = FullWindows(kN);
  std::vector<std::atomic<uint32_t>> calls(kN);
  std::atomic<size_t> ok{0}, cancelled{0}, other{0};
  for (size_t i = 0; i < kN; ++i) {
    svc_->SubmitQuery(ServedIndex::kRStar, batch[i], [&, i](QueryResponse r) {
      calls[i].fetch_add(1, std::memory_order_relaxed);
      if (r.status.ok()) {
        ok.fetch_add(1, std::memory_order_relaxed);
      } else if (r.status.IsCancelled()) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
      } else {
        other.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  svc_.reset();  // close admission, drain, join workers
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(calls[i].load(), 1u) << "query " << i;
  }
  EXPECT_EQ(ok.load() + cancelled.load() + other.load(), kN);
  // With one worker and ~150 heavy windows submitted an instant before
  // destruction, the drain must have cancelled the bulk of the backlog.
  EXPECT_GT(cancelled.load(), 0u);
  EXPECT_EQ(other.load(), 0u);
}

}  // namespace
}  // namespace lsdb
