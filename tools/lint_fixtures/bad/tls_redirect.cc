// lsdb-lint-pretend-path: src/lsdb/service/query_service.cc
// Golden-bad fixture: the TLS redirect guard held in non-scoped storage.
// ScopedQueryContext (and its counters-only alias ScopedCounterSink)
// saves the thread_local query context in its constructor and restores
// it in its destructor; anything that decouples destruction from block
// scope (heap, static, containers) corrupts the LIFO save/restore chain
// for every later frame on the thread.
// Not compiled — scanned by lsdb_lint in the lint_fixture_* ctests.

#include <memory>
#include <vector>

#include "lsdb/util/counters.h"

namespace lsdb {

struct BadHolder {
  // Heap storage: destructor order is whatever the owner decides.
  std::unique_ptr<ScopedQueryContext> context =
      std::make_unique<ScopedQueryContext>(QueryContext{});
  ScopedCounterSink* sink = new ScopedCounterSink(nullptr);
};

void BadStatic() {
  // Static storage: restored at process exit, on some other thread.
  static ScopedQueryContext scope(QueryContext{});
  thread_local ScopedCounterSink sink(nullptr);
  std::vector<ScopedQueryContext> contexts;
}

}  // namespace lsdb
