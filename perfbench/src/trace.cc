#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace perfbench::trace {
namespace {

std::atomic<bool> g_recording{false};
std::atomic<uint32_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local uint32_t t_current = 0;

}  // namespace

void SetRecording(bool on) { g_recording.store(on, std::memory_order_relaxed); }
bool Recording() { return g_recording.load(std::memory_order_relaxed); }
uint32_t CurrentSpan() { return t_current; }

Span::Span(const char* layer, const char* name, uint64_t request)
    : layer_(layer), name_(name), request_(request) {
  if (!Recording()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = NowNs();
  t_current = parent_;
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back({layer_, name_, start_ns_, end, id_, parent_, request_});
}

AdoptParent::AdoptParent(uint32_t parent) : prev_(t_current) {
  t_current = parent;
}
AdoptParent::~AdoptParent() { t_current = prev_; }

std::vector<SpanRecord> Spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_spans;
}

std::map<std::string, double> SelfTimeMs(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to this span; children on
      // two threads may overlap each other.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t run_start = 0, run_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= run_end) {
          run_end = std::max(run_end, b);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    self[s.layer] += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return self;
}

bool WriteJsonl(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"id\":%u,\"parent\":%u,\"request\":%llu}\n",
                 s.name, s.layer, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
