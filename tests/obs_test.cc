// Tests for the observability subsystem (lsdb/obs): histogram bucket
// boundaries and percentile math, tracer JSONL well-formedness (every
// emitted line is parsed by a small strict JSON parser), stats registry
// render goldens, and end-to-end checks through the query service.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/obs/latency_histogram.h"
#include "lsdb/obs/stats_registry.h"
#include "lsdb/obs/tracer.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser (validation only). Accepts exactly one value
// and requires the whole input to be consumed. No external deps.

class JsonValidator {
 public:
  static bool Valid(const std::string& s) {
    JsonValidator v(s);
    v.SkipWs();
    if (!v.Value()) return false;
    v.SkipWs();
    return v.p_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Value() {
    if (p_ >= s_.size()) return false;
    switch (s_[p_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++p_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++p_;
        continue;
      }
      if (Peek() == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++p_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++p_;
        continue;
      }
      if (Peek() == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++p_;
    while (p_ < s_.size()) {
      const char c = s_[p_];
      if (c == '"') {
        ++p_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++p_;
        if (p_ >= s_.size()) return false;
        const char e = s_[p_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (p_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                           s_[p_ + i]))) {
              return false;
            }
          }
          p_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++p_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = p_;
    if (Peek() == '-') ++p_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    if (Peek() == '.') {
      ++p_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++p_;
      if (Peek() == '+' || Peek() == '-') ++p_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    }
    return p_ > start;
  }

  bool Literal(const char* lit) {
    for (const char* q = lit; *q != '\0'; ++q, ++p_) {
      if (p_ >= s_.size() || s_[p_] != *q) return false;
    }
    return true;
  }

  char Peek() const { return p_ < s_.size() ? s_[p_] : '\0'; }
  void SkipWs() {
    while (p_ < s_.size() &&
           (s_[p_] == ' ' || s_[p_] == '\t' || s_[p_] == '\n' ||
            s_[p_] == '\r')) {
      ++p_;
    }
  }

  const std::string& s_;
  size_t p_ = 0;
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(JsonValidatorTest, SanityOnKnownGoodAndBadInputs) {
  EXPECT_TRUE(JsonValidator::Valid(R"({"a":1,"b":[true,null,"x\"y"]})"));
  EXPECT_TRUE(JsonValidator::Valid(R"(-1.5e9)"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a":1)"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a" 1})"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":\"\x01\"}"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a":1} trailing)"));
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1024), 11u);
  // Overflow: everything >= 2^62 is clamped into the top bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(uint64_t{1} << 62), 63u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(uint64_t{1} << 63), 63u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(~uint64_t{0}), 63u);

  EXPECT_EQ(LatencyHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(63), ~uint64_t{0});
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h(2);
  const auto s = h.Merge();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50(), 0u);
  EXPECT_EQ(s.p99(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleIsExactAtEveryQuantile) {
  LatencyHistogram h(1);
  h.Record(0, 100);
  const auto s = h.Merge();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 100u);
  EXPECT_EQ(s.max, 100u);
  // 100 lands in bucket [64,127]; the exact max is reported because it is
  // the top occupied bucket.
  EXPECT_EQ(s.p50(), 100u);
  EXPECT_EQ(s.p90(), 100u);
  EXPECT_EQ(s.p99(), 100u);
}

TEST(LatencyHistogramTest, PercentilesOnKnownDistribution) {
  // Values 1..100: cumulative bucket counts 1,3,7,15,31,63,100.
  LatencyHistogram h(1);
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(0, v);
    sum += v;
  }
  const auto s = h.Merge();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.max, 100u);
  // Rank 50 falls in bucket [32,63] (cumulative 63) -> upper bound 63.
  EXPECT_EQ(s.p50(), 63u);
  // Ranks 90 and 99 fall in the top occupied bucket -> exact max.
  EXPECT_EQ(s.p90(), 100u);
  EXPECT_EQ(s.p99(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), static_cast<double>(sum) / 100.0);
  // Quantile extremes.
  EXPECT_EQ(s.Quantile(0.0), 1u);    // rank clamps to 1 -> first bucket
  EXPECT_EQ(s.Quantile(1.0), 100u);  // == max
}

TEST(LatencyHistogramTest, QuantileExtremesAtP0AndP100) {
  // Empty: both extremes are zero (no samples to report).
  LatencyHistogram empty(1);
  EXPECT_EQ(empty.Merge().Quantile(0.0), 0u);
  EXPECT_EQ(empty.Merge().Quantile(1.0), 0u);
  // Single sample: p0 == p100 == the sample, exactly (top-bucket clamp).
  LatencyHistogram one(1);
  one.Record(0, 777);
  const auto s1 = one.Merge();
  EXPECT_EQ(s1.Quantile(0.0), 777u);
  EXPECT_EQ(s1.Quantile(1.0), 777u);
  // Samples in distinct buckets: p0 resolves to the first occupied
  // bucket's upper bound, p100 to the exact max (never the top bucket's
  // upper bound, which would overstate the tail by up to 2x).
  LatencyHistogram two(1);
  two.Record(0, 2);    // bucket [2,3]
  two.Record(0, 900);  // bucket [512,1023], top occupied
  const auto s2 = two.Merge();
  EXPECT_EQ(s2.Quantile(0.0), 3u);
  EXPECT_EQ(s2.Quantile(1.0), 900u);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(s2.Quantile(-1.0), s2.Quantile(0.0));
  EXPECT_EQ(s2.Quantile(2.0), s2.Quantile(1.0));
}

TEST(LatencyHistogramTest, ZeroValuesLandInBucketZero) {
  LatencyHistogram h(1);
  h.Record(0, 0);
  h.Record(0, 0);
  const auto s = h.Merge();
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.p50(), 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(LatencyHistogramTest, ShardsMergeAcrossWriters) {
  LatencyHistogram h(4);
  for (uint32_t shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 10; ++i) h.Record(shard, 16);
  }
  const auto s = h.Merge();
  EXPECT_EQ(s.count, 40u);
  EXPECT_EQ(s.sum, 40u * 16u);
  EXPECT_EQ(s.buckets[LatencyHistogram::BucketIndex(16)], 40u);
}

// Run under TSan by scripts/ci.sh: concurrent single-writer shards with a
// racing reader must be race-free by construction.
TEST(LatencyHistogramTest, ConcurrentShardWritersWithRacingReader) {
  constexpr uint32_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  LatencyHistogram h(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) h.Record(w, i % 512);
    });
  }
  // Racing reader: merged snapshots must be internally usable (monotone
  // count) while writers run.
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto s = h.Merge();
    EXPECT_GE(s.count, last);
    last = s.count;
  }
  for (auto& t : writers) t.join();
  const auto s = h.Merge();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
}

// ---------------------------------------------------------------------------
// MetricCounters (satellite: saturating subtract)

TEST(MetricCountersTest, SubtractSaturatesInsteadOfWrapping) {
  MetricCounters a, b;
  a.disk_reads = 5;
  a.segment_comps = 10;
  b.disk_reads = 7;   // b > a: counters were reset between snapshots
  b.segment_comps = 4;
  const MetricCounters d = a - b;
  EXPECT_EQ(d.disk_reads, 0u) << "must clamp, not wrap to ~2^64";
  EXPECT_EQ(d.segment_comps, 6u);
  EXPECT_EQ(d.disk_writes, 0u);
}

TEST(MetricCountersTest, SubtractIsExactWhenNoReset) {
  MetricCounters a, b;
  a.disk_reads = 100;
  a.disk_writes = 50;
  a.page_fetches = 200;
  a.bbox_comps = 30;
  b.disk_reads = 40;
  b.disk_writes = 50;
  b.page_fetches = 120;
  b.bbox_comps = 10;
  const MetricCounters d = a - b;
  EXPECT_EQ(d.disk_reads, 60u);
  EXPECT_EQ(d.disk_writes, 0u);
  EXPECT_EQ(d.page_fetches, 80u);
  EXPECT_EQ(d.bbox_comps, 20u);
  EXPECT_EQ(d.disk_accesses(), 60u);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, DisabledTracerEmitsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  QuerySpan span;
  t.EmitQuerySpan(span);  // must be a no-op, not a crash
  t.EmitPoolEvent("p", PoolEvent::kHit);
  EXPECT_EQ(t.lines_emitted(), 0u);
}

TEST(TracerTest, SpanLinesAreParseableJson) {
  std::ostringstream out;
  Tracer t;
  t.AttachStream(&out);
  QuerySpan span;
  span.query_id = 42;
  span.kind = "window";
  span.structure = "R*";
  span.latency_ns = 123456;
  span.disk_reads = 3;
  span.segment_comps = 17;
  span.worker = 2;
  t.EmitQuerySpan(span);
  t.Close();
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonValidator::Valid(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"query_id\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"structure\":\"R*\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"latency_ns\":123456"), std::string::npos);
  EXPECT_NE(lines[0].find("\"worker\":2"), std::string::npos);
}

TEST(TracerTest, HostileNamesAreEscaped) {
  std::ostringstream out;
  Tracer t;
  TracerOptions topt;
  topt.pool_event_sample_every = 1;
  t.AttachStream(&out, topt);
  QuerySpan span;
  span.kind = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  t.EmitQuerySpan(span);
  t.EmitPoolEvent("pool \"x\"\n", PoolEvent::kEviction);
  t.Close();
  for (const std::string& line : Lines(out.str())) {
    EXPECT_TRUE(JsonValidator::Valid(line)) << line;
  }
  EXPECT_EQ(t.lines_emitted(), 2u);
}

TEST(TracerTest, PoolEventsAreSampledOneInN) {
  std::ostringstream out;
  Tracer t;
  TracerOptions topt;
  topt.pool_event_sample_every = 3;
  t.AttachStream(&out, topt);
  for (int i = 0; i < 9; ++i) t.EmitPoolEvent("segs", PoolEvent::kHit);
  t.Close();
  const auto lines = Lines(out.str());
  EXPECT_EQ(lines.size(), 3u);  // events 0, 3, 6
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonValidator::Valid(line)) << line;
    EXPECT_NE(line.find("\"sampled_every\":3"), std::string::npos);
  }
}

TEST(TracerTest, SampleEveryZeroDisablesPoolEventsOnly) {
  std::ostringstream out;
  Tracer t;
  TracerOptions topt;
  topt.pool_event_sample_every = 0;
  t.AttachStream(&out, topt);
  t.EmitPoolEvent("segs", PoolEvent::kMiss);
  QuerySpan span;
  t.EmitQuerySpan(span);
  t.Close();
  EXPECT_EQ(Lines(out.str()).size(), 1u);  // the span only
}

TEST(TracerTest, ByteBudgetDropsAndCountsExcessLines) {
  std::ostringstream out;
  Tracer t;
  TracerOptions topt;
  // Size the budget from a real span line so the test does not bake in
  // the serialization format: room for exactly two lines, not three.
  {
    std::ostringstream probe;
    Tracer sizer;
    sizer.AttachStream(&probe);
    QuerySpan span;
    span.kind = "window";
    span.structure = "R*";
    sizer.EmitQuerySpan(span);
    sizer.Close();
    topt.max_bytes = 2 * probe.str().size();
  }
  t.AttachStream(&out, topt);
  QuerySpan span;
  span.kind = "window";
  span.structure = "R*";
  for (int i = 0; i < 5; ++i) t.EmitQuerySpan(span);
  t.Close();
  EXPECT_EQ(t.lines_emitted(), 2u);
  EXPECT_EQ(t.lines_dropped(), 3u);
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  // What did land must still be complete lines, not truncated JSON.
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonValidator::Valid(line)) << line;
  }
}

TEST(TracerTest, ZeroBudgetMeansUnlimited) {
  std::ostringstream out;
  Tracer t;
  TracerOptions topt;
  topt.max_bytes = 0;
  t.AttachStream(&out, topt);
  QuerySpan span;
  for (int i = 0; i < 100; ++i) t.EmitQuerySpan(span);
  t.Close();
  EXPECT_EQ(t.lines_emitted(), 100u);
  EXPECT_EQ(t.lines_dropped(), 0u);
}

TEST(TracerTest, FlushMakesLinesVisibleWithoutDisabling) {
  std::ostringstream out;
  Tracer t;
  t.AttachStream(&out);
  QuerySpan span;
  t.EmitQuerySpan(span);
  t.Flush();  // NOLINT(lsdb-ignored-status): Tracer::Flush returns void
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(Lines(out.str()).size(), 1u);
  t.EmitQuerySpan(span);  // still accepts events after a flush
  t.Close();
  EXPECT_EQ(t.lines_emitted(), 2u);
  EXPECT_FALSE(t.enabled());
}

TEST(TracerTest, ReattachResetsByteBudgetAccounting) {
  QuerySpan span;
  Tracer t;
  TracerOptions topt;
  {
    // Budget = one span line exactly, measured rather than hardcoded.
    std::ostringstream probe;
    Tracer sizer;
    sizer.AttachStream(&probe);
    sizer.EmitQuerySpan(span);
    sizer.Close();
    topt.max_bytes = probe.str().size();
  }
  std::ostringstream first;
  t.AttachStream(&first, topt);
  for (int i = 0; i < 3; ++i) t.EmitQuerySpan(span);
  EXPECT_GT(t.lines_dropped(), 0u);
  const uint64_t dropped_before = t.lines_dropped();
  // A fresh sink starts a fresh budget; the drop counter is cumulative.
  std::ostringstream second;
  t.AttachStream(&second, topt);
  t.EmitQuerySpan(span);
  t.Close();
  EXPECT_FALSE(second.str().empty());
  EXPECT_GE(t.lines_dropped(), dropped_before);
}

TEST(TracerTest, IntrospectBlockAppearsOnlyWhenFlagged) {
  std::ostringstream out;
  Tracer t;
  t.AttachStream(&out);
  QuerySpan plain;
  t.EmitQuerySpan(plain);
  QuerySpan profiled;
  profiled.has_introspect = true;
  profiled.nodes_visited = 12;
  profiled.nodes_pruned = 4;
  profiled.false_leaf_reads = 2;
  profiled.max_depth = 3;
  t.EmitQuerySpan(profiled);
  t.Close();
  const auto lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("nodes_visited"), std::string::npos);
  EXPECT_NE(lines[1].find("\"nodes_visited\":12"), std::string::npos);
  EXPECT_NE(lines[1].find("\"nodes_pruned\":4"), std::string::npos);
  EXPECT_NE(lines[1].find("\"max_depth\":3"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonValidator::Valid(line)) << line;
  }
}

// ---------------------------------------------------------------------------
// StatsRegistry

TEST(StatsRegistryTest, CountersAndGaugesAreStableAndNamed) {
  StatsRegistry reg;
  StatsRegistry::Counter* c = reg.GetCounter("lsdb_x_total");
  c->Add(3);
  c->Add();
  EXPECT_EQ(reg.GetCounter("lsdb_x_total"), c) << "same name, same counter";
  EXPECT_EQ(c->value(), 4u);
  reg.GetGauge("lsdb_ratio")->Set(0.25);
  EXPECT_DOUBLE_EQ(reg.GetGauge("lsdb_ratio")->value(), 0.25);
}

TEST(StatsRegistryTest, RenderPrometheusGolden) {
  StatsRegistry reg;
  reg.GetCounter("lsdb_queries_total{index=\"R*\",kind=\"point\"}")->Add(5);
  reg.GetCounter("lsdb_queries_total{index=\"R+\",kind=\"window\"}")->Add(2);
  reg.GetGauge("lsdb_hit_ratio")->Set(0.5);
  LatencyHistogram h(1);
  h.Record(0, 5);
  reg.RegisterHistogram("lsdb_latency_ns", "kind=\"point\"", &h);

  const std::string expected =
      "# TYPE lsdb_queries_total counter\n"
      "lsdb_queries_total{index=\"R*\",kind=\"point\"} 5\n"
      "lsdb_queries_total{index=\"R+\",kind=\"window\"} 2\n"
      "# TYPE lsdb_hit_ratio gauge\n"
      "lsdb_hit_ratio 0.5\n"
      "# TYPE lsdb_latency_ns summary\n"
      "lsdb_latency_ns{kind=\"point\",quantile=\"0.5\"} 5\n"
      "lsdb_latency_ns{kind=\"point\",quantile=\"0.9\"} 5\n"
      "lsdb_latency_ns{kind=\"point\",quantile=\"0.99\"} 5\n"
      "lsdb_latency_ns_count{kind=\"point\"} 1\n"
      "lsdb_latency_ns_sum{kind=\"point\"} 5\n"
      "lsdb_latency_ns_max{kind=\"point\"} 5\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(StatsRegistryTest, RenderJsonGoldenAndParseable) {
  StatsRegistry reg;
  reg.GetCounter("lsdb_batches_total")->Add(7);
  reg.GetGauge("lsdb_hit_ratio")->Set(0.75);
  LatencyHistogram h(1);
  h.Record(0, 5);
  reg.RegisterHistogram("lsdb_latency_ns", "", &h);

  const std::string json = reg.RenderJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  const std::string expected =
      "{\"counters\":{\"lsdb_batches_total\":7},"
      "\"gauges\":{\"lsdb_hit_ratio\":0.75},"
      "\"histograms\":{\"lsdb_latency_ns\":{\"count\":1,\"sum\":5,"
      "\"max\":5,\"p50\":5,\"p90\":5,\"p99\":5,\"mean\":5}}}";
  EXPECT_EQ(json, expected);
}

TEST(StatsRegistryTest, EmptyRegistryRendersEmptyButValid) {
  StatsRegistry reg;
  EXPECT_EQ(reg.RenderPrometheus(), "");
  EXPECT_TRUE(JsonValidator::Valid(reg.RenderJson()));
}

// ---------------------------------------------------------------------------
// End-to-end through the query service

PolygonalMap ObsTestMap() {
  CountyProfile p;
  p.name = "obs-test";
  p.lattice = 16;
  p.meander_steps = 4;
  p.seed = 23;
  return GenerateCounty(p, /*world_log2=*/14);
}

std::vector<QueryRequest> ObsBatch(const PolygonalMap& map, size_t n) {
  Rng rng(77);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s =
        map.segments[rng.Uniform(static_cast<uint32_t>(map.segments.size()))];
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1:
        batch.push_back(QueryRequest::WindowQ(
            Rect::Of(s.a.x, s.a.y, s.a.x + 600, s.a.y + 600)));
        break;
      case 2:
        batch.push_back(QueryRequest::NearestQ(s.b));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

TEST(ServiceObsTest, ServiceTraceIsParseableJsonlWithOneSpanPerQuery) {
  const PolygonalMap map = ObsTestMap();
  ServiceOptions opt;
  opt.num_threads = 2;
  auto svc = QueryService::Build(map, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  std::ostringstream trace;
  TracerOptions topt;
  topt.pool_event_sample_every = 10;
  (*svc)->tracer().AttachStream(&trace, topt);
  const auto batch = ObsBatch(map, 200);
  ASSERT_TRUE((*svc)->ExecuteBatch(ServedIndex::kPmr, batch).ok());
  (*svc)->tracer().Close();

  size_t spans = 0, pool_events = 0;
  for (const std::string& line : Lines(trace.str())) {
    ASSERT_TRUE(JsonValidator::Valid(line)) << line;
    if (line.find("\"event\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"event\":\"pool\"") != std::string::npos) ++pool_events;
  }
  EXPECT_EQ(spans, batch.size());
  // The shared segment table is traced; sampled events should show up for
  // a 200-query batch at 1-in-10.
  EXPECT_GT(pool_events, 0u);
}

TEST(ServiceObsTest, RegistryExposesQueryCountsAndPoolGauges) {
  const PolygonalMap map = ObsTestMap();
  ServiceOptions opt;
  opt.num_threads = 2;
  auto svc = QueryService::Build(map, opt);
  ASSERT_TRUE(svc.ok());
  const auto batch = ObsBatch(map, 400);  // 100 per kind
  ASSERT_TRUE((*svc)->ExecuteBatch(ServedIndex::kRStar, batch).ok());

  const std::string prom = (*svc)->stats().RenderPrometheus();
  EXPECT_NE(
      prom.find("lsdb_queries_total{index=\"R*\",kind=\"point\"} 100"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lsdb_bufferpool_hit_ratio{pool=\"segments\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("lsdb_query_latency_ns_count{index=\"R*\","
                      "kind=\"window\"} 100"),
            std::string::npos)
      << prom;
  EXPECT_TRUE(JsonValidator::Valid((*svc)->stats().RenderJson()));
}


/// Prometheus sample lines of `text`, name (labels included) -> value.
std::map<std::string, std::string> PromSamples(const std::string& text) {
  std::map<std::string, std::string> out;
  for (const std::string& line : Lines(text)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

TEST(ServiceObsTest, ConsecutiveRendersKeepGaugeNamesAndRefreshValues) {
  const PolygonalMap map = ObsTestMap();
  ServiceOptions opt;
  opt.num_threads = 2;
  auto svc = QueryService::Build(map, opt);
  ASSERT_TRUE(svc.ok());
  const auto batch = ObsBatch(map, 200);
  ASSERT_TRUE((*svc)->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  const std::string prom1 = (*svc)->stats().RenderPrometheus();
  // Nothing ran in between: the same text, Prometheus and JSON alike.
  EXPECT_EQ((*svc)->stats().RenderPrometheus(), prom1);
  const std::string json1 = (*svc)->stats().RenderJson();
  EXPECT_EQ((*svc)->stats().RenderJson(), json1);

  ASSERT_TRUE((*svc)->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  const auto first = PromSamples(prom1);
  const auto second = PromSamples((*svc)->stats().RenderPrometheus());
  std::vector<std::string> names1, names2;
  for (const auto& [name, v] : first) names1.push_back(name);
  for (const auto& [name, v] : second) names2.push_back(name);
  EXPECT_EQ(names1, names2);
  // The resolved gauges were set again, not left at their first values.
  for (const char* moved :
       {"lsdb_bufferpool_hits{pool=\"R*\"}",
        "lsdb_bufferpool_hits{pool=\"segments\"}"}) {
    ASSERT_EQ(first.count(moved), 1u) << moved;
    EXPECT_LT(std::stod(first.at(moved)), std::stod(second.at(moved)))
        << moved;
  }
  double items1 = 0, items2 = 0;
  for (const char* w : {"lsdb_worker_items_processed{worker=\"0\"}",
                        "lsdb_worker_items_processed{worker=\"1\"}"}) {
    items1 += std::stod(first.at(w));
    items2 += std::stod(second.at(w));
  }
  EXPECT_LT(items1, items2);
  // A gauge group that waits for data appears once it has some.
  const std::string introspect =
      "lsdb_introspect_queries{index=\"R*\",kind=\"window\"}";
  EXPECT_EQ(second.count(introspect), 0u);
  (*svc)->set_introspection(true);
  ASSERT_TRUE((*svc)->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  const auto third = PromSamples((*svc)->stats().RenderPrometheus());
  ASSERT_EQ(third.count(introspect), 1u);
  EXPECT_EQ(third.at(introspect), "50");
  EXPECT_EQ(third.size(), second.size() + 5 * std::size(kAllQueryTypes));
}

}  // namespace
}  // namespace lsdb
