#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lsdb/simd/crc32c_hw.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/fault_injection.h"
#include "lsdb/storage/mmap_page_file.h"
#include "lsdb/storage/page_file.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/crc32c.h"
#include "lsdb/util/random.h"
#include "lsdb/util/sharded_counter.h"

namespace lsdb {
namespace {

TEST(MemPageFileTest, AllocateReadWrite) {
  MemPageFile f(256);
  auto p0 = f.Allocate();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  std::vector<uint8_t> buf(256, 0xAB);
  ASSERT_TRUE(f.Write(*p0, buf.data()).ok());
  std::vector<uint8_t> rd(256);
  ASSERT_TRUE(f.Read(*p0, rd.data()).ok());
  EXPECT_EQ(rd, buf);
}

TEST(MemPageFileTest, AllocatedPagesAreZeroed) {
  MemPageFile f(128);
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> rd(128, 0xFF);
  ASSERT_TRUE(f.Read(*p, rd.data()).ok());
  EXPECT_TRUE(std::all_of(rd.begin(), rd.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(MemPageFileTest, FreeListReuse) {
  MemPageFile f(128);
  auto a = f.Allocate();
  auto b = f.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(f.live_page_count(), 2u);
  ASSERT_TRUE(f.Free(*a).ok());
  EXPECT_EQ(f.live_page_count(), 1u);
  auto c = f.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // freed page reused
  EXPECT_EQ(f.page_count(), 2u);
}

TEST(MemPageFileTest, InvalidAccessRejected) {
  MemPageFile f(128);
  std::vector<uint8_t> buf(128);
  EXPECT_FALSE(f.Read(0, buf.data()).ok());
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(f.Free(*p).ok());
  EXPECT_FALSE(f.Read(*p, buf.data()).ok());
  EXPECT_FALSE(f.Free(*p).ok());
}

TEST(PosixPageFileTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/lsdb_posix_pages.bin";
  auto file = PosixPageFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  auto p0 = (*file)->Allocate();
  auto p1 = (*file)->Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  std::vector<uint8_t> buf(512);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE((*file)->Write(*p1, buf.data()).ok());
  std::vector<uint8_t> rd(512);
  ASSERT_TRUE((*file)->Read(*p1, rd.data()).ok());
  EXPECT_EQ(rd, buf);
  ASSERT_TRUE((*file)->Read(*p0, rd.data()).ok());
  EXPECT_TRUE(std::all_of(rd.begin(), rd.end(),
                          [](uint8_t b) { return b == 0; }));
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(128), pool_(&file_, 4, &metrics_) {}

  // Invariant: every test releases all the pins it took.
  void TearDown() override { EXPECT_EQ(pool_.pinned_frames(), 0u); }

  PageId NewPage(uint8_t fill) {
    auto ref = pool_.New();
    EXPECT_TRUE(ref.ok());
    std::memset(ref->data(), fill, 128);
    ref->MarkDirty();
    return ref->id();
  }

  MetricCounters metrics_;
  MemPageFile file_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, HitsDoNotCountAsDiskReads) {
  const PageId id = NewPage(1);
  const uint64_t reads_before = metrics_.disk_reads;
  for (int i = 0; i < 10; ++i) {
    auto ref = pool_.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 1);
  }
  EXPECT_EQ(metrics_.disk_reads, reads_before);  // all hits
  EXPECT_GE(metrics_.page_fetches, 10u);
}

TEST_F(BufferPoolTest, LruEvictionCountsReadsAndWritebacks) {
  // Fill the 4-frame pool with 4 dirty pages, then touch a 5th.
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  EXPECT_EQ(metrics_.disk_writes, 0u);
  const PageId extra = NewPage(99);  // evicts LRU (ids[0]), writing it back
  EXPECT_EQ(metrics_.disk_writes, 1u);
  // Re-fetch the evicted page: a miss (disk read) with correct content.
  const uint64_t reads = metrics_.disk_reads;
  auto ref = pool_.Fetch(ids[0]);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(metrics_.disk_reads, reads + 1);
  EXPECT_EQ(ref->data()[0], 0);
  (void)extra;
}

TEST_F(BufferPoolTest, LruOrderRespectsRecency) {
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  // Touch ids[0] so ids[1] becomes LRU.
  { auto r = pool_.Fetch(ids[0]); ASSERT_TRUE(r.ok()); }
  NewPage(50);  // evicts ids[1]
  const uint64_t reads = metrics_.disk_reads;
  { auto r = pool_.Fetch(ids[0]); ASSERT_TRUE(r.ok()); }  // still cached
  EXPECT_EQ(metrics_.disk_reads, reads);
  { auto r = pool_.Fetch(ids[1]); ASSERT_TRUE(r.ok()); }  // was evicted
  EXPECT_EQ(metrics_.disk_reads, reads + 1);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  auto pinned = pool_.New();
  ASSERT_TRUE(pinned.ok());
  for (int i = 0; i < 8; ++i) NewPage(static_cast<uint8_t>(i));
  // The pinned frame must have survived all evictions.
  EXPECT_GE(pool_.pinned_frames(), 1u);
}

TEST_F(BufferPoolTest, AllPinnedIsResourceExhausted) {
  std::vector<StatusOr<BufferPool::PageRef>> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back(pool_.New());
    ASSERT_TRUE(refs.back().ok());
  }
  auto fifth = pool_.New();
  EXPECT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  const PageId id = NewPage(7);
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_GE(metrics_.disk_writes, 1u);
  // The file now has the data even without eviction.
  std::vector<uint8_t> rd(128);
  ASSERT_TRUE(file_.Read(id, rd.data()).ok());
  EXPECT_EQ(rd[0], 7);
  // A second flush writes nothing (no longer dirty).
  const uint64_t writes = metrics_.disk_writes;
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(metrics_.disk_writes, writes);
}

TEST_F(BufferPoolTest, FreeDropsCachedPage) {
  const PageId id = NewPage(3);
  ASSERT_TRUE(pool_.Free(id).ok());
  EXPECT_FALSE(pool_.Fetch(id).ok());  // unallocated in the file
}

TEST_F(BufferPoolTest, MoveSemanticsOfPageRef) {
  auto a = pool_.New();
  ASSERT_TRUE(a.ok());
  const PageId id = a->id();
  BufferPool::PageRef moved = std::move(*a);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.id(), id);
  moved.Release();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, MoveAssignOverValidRefReleasesOldPin) {
  auto a = pool_.New();
  auto b = pool_.New();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(pool_.pinned_frames(), 2u);
  // Assigning over a valid ref must unpin what it held, or the pin (and
  // its frame) leaks permanently.
  *b = std::move(*a);
  EXPECT_EQ(pool_.pinned_frames(), 1u);
  b->Release();
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, FetchWithAllFramesSelfPinnedIsResourceExhausted) {
  // Five pages in the file, created without holding pins...
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  // ...then pin four of them, exhausting the 4-frame pool.
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto r = pool_.Fetch(ids[i]);
    ASSERT_TRUE(r.ok());
    refs.push_back(std::move(*r));
  }
  // The calling thread holds every pin, so waiting could never succeed:
  // the pool must fail fast instead of deadlocking.
  auto fifth = pool_.Fetch(ids[4]);
  EXPECT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
  // A hit on an already-pinned page still works while exhausted.
  auto again = pool_.Fetch(ids[0]);
  EXPECT_TRUE(again.ok());
}

TEST_F(BufferPoolTest, FetchWaitsForAnotherThreadToReleaseAPin) {
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto r = pool_.Fetch(ids[i]);
    ASSERT_TRUE(r.ok());
    refs.push_back(std::move(*r));
  }
  // Another thread's Fetch blocks until this thread releases a pin.
  Status fetched = Status::Internal("unset");
  uint8_t byte = 0xFF;
  std::thread t([&] {
    auto r = pool_.Fetch(ids[4]);
    fetched = r.status();
    if (r.ok()) byte = r->data()[0];
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  refs[0].Release();
  t.join();
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();
  EXPECT_EQ(byte, 4);
}

// -- Checksums ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // CRC-32C (Castagnoli) check value from the iSCSI spec / RFC 3720.
  EXPECT_EQ(crc32c::Compute("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::Compute("", 0), 0u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c::Compute(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const char* msg = "The quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(msg);
  const uint32_t one_shot = crc32c::Compute(msg, n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t head = crc32c::Compute(msg, split);
    EXPECT_EQ(crc32c::Compute(msg + split, n - split, head), one_shot);
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableOverLengthsAndAlignments) {
  // Differential fuzz: every length 0..4096 at unaligned starts and with
  // chained init values, the dispatched kernel (hardware when the CPU has
  // one) against the slice-by-8 oracle, and the raw hardware kernel too.
  std::vector<uint8_t> buf(4096 + 16);
  Rng rng(0xC5C);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  const simd::Crc32cUpdateFn hw = simd::HardwareCrc32c();
  for (size_t n = 0; n <= 4096; ++n) {
    const size_t offset = n % 13;  // 0..12: every start alignment mod 8
    const uint8_t* p = buf.data() + offset;
    const auto init = static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32));
    const uint32_t want = crc32c::ComputePortable(p, n, init);
    ASSERT_EQ(crc32c::Compute(p, n, init), want)
        << "n=" << n << " offset=" << offset;
    if (hw != nullptr) {
      ASSERT_EQ(~hw(~init, p, n), want) << "n=" << n << " offset=" << offset;
    }
  }
  RecordProperty("crc32c_kernel", hw != nullptr ? "hardware" : "portable");
}

TEST(PageChecksumTest, MemPageFileStoresAndReturnsChecksums) {
  MemPageFile f(128);
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> buf(128, 0x5C);
  ASSERT_TRUE(f.Write(*p, buf.data()).ok());  // convenience: computes CRC
  std::vector<uint8_t> rd(128);
  uint32_t stored = 0;
  ASSERT_TRUE(f.Read(*p, rd.data(), &stored).ok());
  EXPECT_EQ(stored, crc32c::Compute(buf.data(), buf.size()));
}

TEST(PageChecksumTest, PosixTrailerSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/lsdb_crc_pages.bin";
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(3 * i);
  const uint32_t crc = crc32c::Compute(buf.data(), buf.size());
  {
    auto file = PosixPageFile::Create(path, 256);
    ASSERT_TRUE(file.ok());
    auto p = (*file)->Allocate();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*file)->Write(*p, buf.data(), crc).ok());
  }
  auto file = PosixPageFile::Open(path, 256);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> rd(256);
  uint32_t stored = 0;
  ASSERT_TRUE((*file)->Read(0, rd.data(), &stored).ok());
  EXPECT_EQ(rd, buf);
  EXPECT_EQ(stored, crc);
}

// -- Fault injection ---------------------------------------------------------

TEST(StorageFaultTest, TransparentWithoutAPlan) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  auto p = faulty.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> buf(128, 0x11), rd(128);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(faulty.Write(*p, buf.data()).ok());
    ASSERT_TRUE(faulty.Read(*p, rd.data()).ok());
    EXPECT_EQ(rd, buf);
  }
  EXPECT_EQ(faulty.stats().total_faults(), 0u);
}

TEST(StorageFaultTest, SeededPlanIsDeterministic) {
  auto run = [](std::vector<int>* outcomes) -> uint64_t {
    MemPageFile base(128);
    FaultInjectingPageFile faulty(&base);
    auto p = faulty.Allocate();
    EXPECT_TRUE(p.ok());
    std::vector<uint8_t> buf(128, 0x22);
    EXPECT_TRUE(faulty.Write(*p, buf.data()).ok());
    FaultPlan plan;
    plan.seed = 77;
    plan.read_transient_rate = 0.3;
    faulty.set_plan(plan);
    std::vector<uint8_t> rd(128);
    for (int i = 0; i < 200; ++i) {
      outcomes->push_back(faulty.Read(*p, rd.data()).ok() ? 1 : 0);
    }
    return faulty.stats().total_faults();
  };
  std::vector<int> a, b;
  const uint64_t fa = run(&a);
  const uint64_t fb = run(&b);
  EXPECT_EQ(a, b);  // identical fault sequence for identical (plan, ops)
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa, 0u);   // ~30% of 200 reads faulted
  EXPECT_LT(fa, 200u); // ...but not all of them
}

TEST(StorageFaultTest, PermanentFaultsStickAndAreCounted) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  auto p0 = faulty.Allocate();
  auto p1 = faulty.Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  std::vector<uint8_t> buf(128, 0x33);
  ASSERT_TRUE(faulty.Write(*p0, buf.data()).ok());
  ASSERT_TRUE(faulty.Write(*p1, buf.data()).ok());
  faulty.FailPage(*p0);
  std::vector<uint8_t> rd(128);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(faulty.Read(*p0, rd.data()).IsIoError());
    EXPECT_TRUE(faulty.Read(*p1, rd.data()).ok());
  }
  EXPECT_EQ(faulty.stats().permanent_read_faults.load(), 5u);
  faulty.FailAllReads(true);
  EXPECT_TRUE(faulty.Read(*p1, rd.data()).IsIoError());
  faulty.FailAllReads(false);
  EXPECT_TRUE(faulty.Read(*p1, rd.data()).ok());
}

TEST(PoolRetryTest, TransientReadFaultsAreRetriedAndSucceed) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  MetricCounters metrics;
  BufferPool pool(&faulty, 2, &metrics);
  pool.SetRetryPolicy(/*max_attempts=*/8, /*backoff_us=*/0);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), static_cast<int>(i), 128);
    ref->MarkDirty();
    ids.push_back(ref->id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  FaultPlan plan;
  plan.seed = 99;
  plan.read_transient_rate = 0.4;  // each retry redraws: (0.4)^8 ~ 0.07%
  faulty.set_plan(plan);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      auto ref = pool.Fetch(ids[i]);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(ref->data()[0], static_cast<uint8_t>(i));
    }
  }
  EXPECT_GT(pool.io_retries(), 0u);
  EXPECT_EQ(pool.checksum_failures(), 0u);
}

TEST(PoolRetryTest, BitflipCorruptionIsDetectedByChecksum) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 2, nullptr);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref->id();
  std::memset(ref->data(), 0x44, 128);
  ref->MarkDirty();
  ref->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  // Evict the page so the next Fetch re-reads it through the injector.
  for (int i = 0; i < 2; ++i) {
    auto filler = pool.New();
    ASSERT_TRUE(filler.ok());
  }
  FaultPlan plan;
  plan.seed = 5;
  plan.bitflip_rate = 1.0;  // every read comes back silently corrupted
  faulty.set_plan(plan);
  auto bad = pool.Fetch(id);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_GT(pool.checksum_failures(), 0u);
  EXPECT_GT(faulty.stats().bitflips.load(), 0u);
  // Clearing the plan restores clean reads of the intact stored bytes.
  faulty.set_plan(FaultPlan());
  auto good = pool.Fetch(id);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->data()[0], 0x44);
}

TEST(PoolRetryTest, FailedDirtyWritebackDoesNotLeakTheFrame) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 2, nullptr);
  // Two dirty unpinned pages fill the pool.
  std::vector<PageId> ids;
  for (int i = 0; i < 2; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), 0x50 + i, 128);
    ref->MarkDirty();
    ids.push_back(ref->id());
  }
  FaultPlan plan;
  plan.seed = 3;
  plan.write_permanent_rate = 1.0;  // every write-back fails
  faulty.set_plan(plan);
  auto blocked = pool.New();  // needs a victim; write-back fails
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsIoError()) << blocked.status().ToString();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  // The frame went back on the LRU list: once writes heal, the pool must
  // be able to evict it and keep working (regression: the failed victim
  // used to vanish from the LRU list forever).
  faulty.set_plan(FaultPlan());
  auto ok_again = pool.New();
  ASSERT_TRUE(ok_again.ok()) << ok_again.status().ToString();
  // And both original pages are still intact and reachable.
  ok_again->Release();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], static_cast<uint8_t>(0x50 + i));
  }
}


// -- Lock-free zero-copy reads -----------------------------------------------

/// `pages` page images (page i filled with 0x40 + i), each followed by its
/// little-endian CRC-32C trailer: the slot layout of a snapshot section.
std::vector<uint8_t> MappedImage(uint32_t page_size, PageId pages) {
  const uint32_t slot = page_size + kPageTrailerSize;
  std::vector<uint8_t> image(static_cast<size_t>(slot) * pages);
  for (PageId i = 0; i < pages; ++i) {
    uint8_t* p = image.data() + static_cast<size_t>(i) * slot;
    std::memset(p, static_cast<int>(0x40 + i), page_size);
    const uint32_t crc = crc32c::Compute(p, page_size);
    for (uint32_t b = 0; b < 4; ++b) {
      p[page_size + b] = static_cast<uint8_t>(crc >> (8 * b));
    }
  }
  return image;
}

/// The outcome of a fixed single-threaded operation sequence under two
/// armed fault plans, one character per operation: over a copying backend
/// (reads: '.' clean, 'c' fails its CRC, 't'/'p' transient/permanent
/// fault; writes: 'w' ok, 'T'/'P') and over a zero-copy mapping ('F' first
/// touch, '.', 't', 'p'), each followed by its fault counts.
std::string ArmedFaultSequence() {
  std::string out;
  constexpr uint32_t kPage = 128;
  constexpr PageId kPages = 8;
  {
    MemPageFile base(kPage);
    FaultInjectingPageFile faulty(&base);
    std::vector<uint8_t> buf(kPage), rd(kPage);
    for (PageId i = 0; i < kPages; ++i) {
      auto id = faulty.Allocate();
      if (!id.ok()) return "allocate failed";
      std::memset(buf.data(), static_cast<int>(i + 1), kPage);
      if (!faulty.Write(*id, buf.data()).ok()) return "write failed";
    }
    FaultPlan plan;
    plan.seed = 2024;
    plan.read_transient_rate = 0.1;
    plan.read_permanent_rate = 0.02;
    plan.write_transient_rate = 0.1;
    plan.write_permanent_rate = 0.02;
    plan.bitflip_rate = 0.05;
    plan.torn_write_rate = 0.05;
    faulty.set_plan(plan);
    for (uint32_t i = 0; i < 300; ++i) {
      const PageId page = i % 3 == 2 ? i % kPages : (i * 5) % kPages;
      Status s;
      if (i % 3 == 2) {
        std::memset(buf.data(), static_cast<int>(i), kPage);
        s = faulty.Write(page, buf.data());
        if (s.ok()) {
          out += 'w';
          continue;
        }
      } else {
        uint32_t stored = 0;
        s = faulty.Read(page, rd.data(), &stored);
        if (s.ok()) {
          out += crc32c::Compute(rd.data(), kPage) == stored ? '.' : 'c';
          continue;
        }
      }
      const bool permanent =
          s.ToString().find("permanent") != std::string::npos;
      out += i % 3 == 2 ? (permanent ? 'P' : 'T') : (permanent ? 'p' : 't');
    }
    const FaultStats& st = faulty.stats();
    out += "|" + std::to_string(st.transient_read_faults.load()) + "," +
           std::to_string(st.permanent_read_faults.load()) + "," +
           std::to_string(st.transient_write_faults.load()) + "," +
           std::to_string(st.permanent_write_faults.load()) + "," +
           std::to_string(st.bitflips.load()) + "," +
           std::to_string(st.torn_writes.load()) + "|";
  }
  {
    const uint32_t slot = kPage + kPageTrailerSize;
    std::vector<uint8_t> mapping(static_cast<size_t>(slot) * kPages);
    for (PageId i = 0; i < kPages; ++i) {
      uint8_t* p = mapping.data() + static_cast<size_t>(i) * slot;
      std::memset(p, static_cast<int>(0x40 + i), kPage);
      const uint32_t crc = crc32c::Compute(p, kPage);
      for (int b = 0; b < 4; ++b) {
        p[kPage + b] = static_cast<uint8_t>(crc >> (8 * b));
      }
    }
    MmapPageFile view(mapping.data(), kPages, kPage, /*zero_copy=*/true);
    FaultInjectingPageFile faulty(&view);
    FaultPlan plan;
    plan.seed = 4242;
    plan.read_transient_rate = 0.15;
    plan.read_permanent_rate = 0.03;
    faulty.set_plan(plan);
    for (uint32_t i = 0; i < 200; ++i) {
      auto mapped = faulty.MapPage((i * 3) % kPages);
      if (mapped.ok()) {
        out += mapped->first_touch ? 'F' : '.';
      } else {
        const bool permanent = mapped.status().ToString().find(
                                   "permanent") != std::string::npos;
        out += permanent ? 'p' : 't';
      }
    }
    const FaultStats& st = faulty.stats();
    out += "|" + std::to_string(st.transient_read_faults.load()) + "," +
           std::to_string(st.permanent_read_faults.load());
  }
  return out;
}

TEST(ShardedCounterTest, ConcurrentAddsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 20000;
  ShardedCounter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (uint64_t i = 0; i < kAdds; ++i) c.Add();
    });
  }
  // A read concurrent with the adds is a relaxed partial sum.
  EXPECT_LE(c.value(), kThreads * kAdds);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(LockFreeReadTest, HammeredZeroCopyPoolCountsEveryFetchOnce) {
  constexpr uint32_t kPage = 128;
  constexpr PageId kPages = 64;
  constexpr PageId kTouched = 48;  // the threads read these; 16 stay cold
  constexpr int kThreads = 4;
  constexpr int kFetches = 5000;
  const std::vector<uint8_t> image = MappedImage(kPage, kPages);
  MmapPageFile view(image.data(), kPages, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&view);  // unarmed: pure pass-through
  BufferPool pool(&faulty, 4, nullptr);
  MetricCounters per_thread[kThreads];
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ScopedCounterSink sink(&per_thread[t]);
      for (int i = 0; i < kFetches; ++i) {
        // 7 is coprime to 48, so every thread sweeps all touched pages.
        const auto id = static_cast<PageId>((i * 7 + t * 13) % kTouched);
        auto ref = pool.Fetch(id);
        if (!ref.ok() || ref->data()[0] != 0x40 + id) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  MetricCounters total;
  for (const MetricCounters& m : per_thread) total += m;
  EXPECT_EQ(total.page_fetches, uint64_t{kThreads} * kFetches);
  EXPECT_EQ(pool.hits() + pool.misses(), total.page_fetches);
  // Each page's first touch is its one miss and its one disk read,
  // whichever thread won the verification claim.
  EXPECT_EQ(pool.misses(), kTouched);
  EXPECT_EQ(total.disk_reads, kTouched);
  EXPECT_EQ(view.pages_verified(), kTouched);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(faulty.stats().reads.value(), total.page_fetches);
  EXPECT_EQ(faulty.stats().total_faults(), 0u);
}

TEST(LockFreeReadTest, UnarmedInjectorInjectsNothingUnderConcurrency) {
  constexpr uint32_t kPage = 128;
  constexpr PageId kPages = 8;
  constexpr int kThreads = 4;
  constexpr int kReads = 2000;
  MemPageFile base(kPage);
  FaultInjectingPageFile faulty(&base);
  // A plan that was armed and then cleared leaves the injector unarmed.
  FaultPlan plan;
  plan.read_transient_rate = 1.0;
  faulty.set_plan(plan);
  faulty.set_plan(FaultPlan());
  std::vector<uint8_t> buf(kPage);
  for (PageId i = 0; i < kPages; ++i) {
    ASSERT_TRUE(faulty.Allocate().ok());
    std::memset(buf.data(), static_cast<int>(i + 1), kPage);
    ASSERT_TRUE(faulty.Write(i, buf.data()).ok());
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<uint8_t> rd(kPage);
      for (int i = 0; i < kReads; ++i) {
        const auto id = static_cast<PageId>((i + t) % kPages);
        uint32_t stored = 0;
        if (!faulty.Read(id, rd.data(), &stored).ok() ||
            rd[kPage - 1] != id + 1 ||
            crc32c::Compute(rd.data(), kPage) != stored) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(faulty.stats().total_faults(), 0u);
  EXPECT_EQ(faulty.stats().reads.value(), uint64_t{kThreads} * kReads);
  EXPECT_EQ(faulty.stats().writes.load(), kPages);
}

TEST(LockFreeReadTest, ArmedPlansReplayTheRecordedFaultSequence) {
  // Recorded from the injector as it was before unarmed operations
  // bypassed its mutex and before mapped reads could draw bit flips. An
  // armed plan must draw the same RNG sequence and so inject the same
  // faults, operation for operation.
  constexpr const char* kRecorded =
      "..w..w.cw..w..wt.w..wc.T..w.tw.tw..w.cw..w..wc.w..w.tw..w.cw.cwc"
      ".wccwccw.tw..w..wc.w..T..Tt.w..w.cw..w..w.tw..w..w..w..T..w..w.."
      "w..w..w..wp.T..wttw..w.tw.pw..wtcwp.wc.wt.w.cw.pw.pwc.wpcwp.w.cw"
      "..wt.wcpw.pw..wp.wpcTp.w..wc.w.pT.pw.pwp.wptwp.P.pwc.w.pwppwtpwp"
      ".wpcTptP.pwc.w.pwppwcpwptwptwpcPtpwc.T.pTppw|19,38,10,3,16,4|tFF"
      "FFFFFFt.....tp.......p...tt..p...t...p..t.pt.p....pt.p....p..p.p"
      "ttp..p.p..p..p.p..p..p.pp.p..p.pp.pp.p.pp.pp.p.pptpptp.pp.pptptp"
      "p.pp.ptpp.pptptpptpp.p.pp.pptp.pp.pp.p.pptpp.p.pp.pp.p.pp.pp.p.p"
      "ptpp.|22,87";
  EXPECT_EQ(ArmedFaultSequence(), kRecorded);
}

TEST(StorageFaultTest, MappedBitflipSurfacesAsCorruption) {
  constexpr uint32_t kPage = 128;
  const std::vector<uint8_t> image = MappedImage(kPage, 8);
  MmapPageFile view(image.data(), 8, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&view);
  MetricCounters metrics;
  BufferPool pool(&faulty, 4, &metrics);
  FaultPlan plan;
  plan.seed = 5;
  plan.bitflip_rate = 1.0;  // every mapped read comes back "flipped"
  faulty.set_plan(plan);
  auto bad = pool.Fetch(3);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_EQ(faulty.stats().bitflips.load(), 1u);
  EXPECT_EQ(pool.checksum_failures(), 1u);
  // A rejected read is no disk access, and it does not use up the page's
  // first touch: as on the copying path, the next clean read is the miss.
  EXPECT_EQ(metrics.disk_reads, 0u);
  EXPECT_EQ(view.pages_verified(), 0u);
  faulty.set_plan(FaultPlan());
  auto good = pool.Fetch(3);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->data()[0], 0x43);
  EXPECT_EQ(metrics.disk_reads, 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
}

}  // namespace
}  // namespace lsdb
