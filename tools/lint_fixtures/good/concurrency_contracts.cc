// lsdb-lint-pretend-path: src/lsdb/service/admission.cc
// Golden-good fixture: the sanctioned concurrency spellings. Annotated
// lsdb::Mutex with MutexLock, a block-scoped TLS redirect guard, and a
// justified thread-safety-analysis escape. Must lint clean except for
// the justified-escape count on stderr (which is not a finding).
// Not compiled — scanned by lsdb_lint in the lint_fixture_* ctests.

#include "lsdb/service/cancel.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

class GoodQueue {
 public:
  void Push(int v) LSDB_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    last_ = v;
  }

  // tsa-escape: invoked only from the owning thread before any worker
  // starts, so no lock is needed and the analysis cannot prove it.
  int PeekPreStart() LSDB_NO_THREAD_SAFETY_ANALYSIS { return last_; }

 private:
  Mutex mu_{"GoodQueue.mu"};
  int last_ LSDB_GUARDED_BY(mu_) = 0;
};

void GoodRedirect(MetricCounters* local, CancelToken* token) {
  // Block-scoped stack objects: destruction order mirrors scope order.
  ScopedQueryContext context({.counters = local, .cancel = token});
  {
    ScopedCounterSink counters_only(nullptr);
  }
}

}  // namespace lsdb
