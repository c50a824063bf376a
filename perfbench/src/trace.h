// In-memory span recorder for the traced benchmark run.
//
// A span wraps one call the benchmark makes into a layer of lsdb (or one
// loop of calls, for the per-call micro-probes). Spans are kept in memory
// while the run measures and written out as JSONL when it ends, one object
// per line: name, layer, start_ns, end_ns, id, parent, request. A span's
// parent is the innermost span open on the same thread, or the span a
// worker thread adopted when it started.
//
// With recording off, opening a span costs one relaxed load.

#ifndef LSDB_PERFBENCH_TRACE_H_
#define LSDB_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* layer;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t id;
  uint32_t parent;  ///< 0 = root.
  uint64_t request;
};

/// Turns recording on or off for spans opened afterwards.
void SetRecording(bool on);
bool Recording();

/// Id of the innermost open span on this thread (0 if none).
uint32_t CurrentSpan();

/// RAII span. `layer` and `name` must be string literals.
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  uint64_t request_;
  uint64_t start_ns_ = 0;
  uint32_t id_ = 0;  ///< 0 when not recording.
  uint32_t parent_ = 0;
};

/// Makes `parent` the current span of a freshly started worker thread.
class AdoptParent {
 public:
  explicit AdoptParent(uint32_t parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  uint32_t prev_;
};

/// All spans recorded so far (call after worker threads have joined).
std::vector<SpanRecord> Spans();

/// Per-layer self time in ms: each span's duration minus the part of it
/// covered by its children, summed per layer.
std::map<std::string, double> SelfTimeMs(const std::vector<SpanRecord>& spans);

/// Writes the spans as JSONL. Returns false if the file cannot be written.
bool WriteJsonl(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench::trace

#endif  // LSDB_PERFBENCH_TRACE_H_
