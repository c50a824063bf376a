// Deterministic storage fault injection.
//
// FaultInjectingPageFile is a PageFile decorator that sits between the
// BufferPool and a real backend and injects failures according to a seeded
// FaultPlan: transient and permanent read/write kIoError, bit-flip
// corruption, torn writes, and fixed per-operation latency. Every fault
// kind is counted, and all randomness comes from the repo's deterministic
// Rng, so a given (plan, operation sequence) always produces the same
// faults — tests and the CI fault suite are exactly reproducible.
//
// Placement matters: the injector corrupts data *below* the BufferPool's
// checksum layer. Bit flips and torn writes therefore alter stored bytes
// while leaving the stored CRC-32C trailer intact, which is precisely how
// real silent media corruption presents — the pool's verify-on-miss catches
// it and surfaces Status::Corruption.
//
// A decorator starts transparent (empty plan, pure pass-through). Services
// build their structures through it, then arm a plan once frozen, so build
// determinism and the paper metrics are never affected.
//
// Unarmed, the decorator costs one relaxed load of the `armed` flag and a
// per-thread ShardedCounter bump: no mutex, no plan read, no RNG draw, so
// a snapshot-served worker's zero-copy reads stay lock-free. set_plan (with
// an active plan) and FailPage arm it; an armed decorator takes its mutex
// per operation and draws from its RNG exactly as it always has.

#ifndef LSDB_STORAGE_FAULT_INJECTION_H_
#define LSDB_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>

#include "lsdb/storage/page_file.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/random.h"
#include "lsdb/util/sharded_counter.h"
#include "lsdb/util/status.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

/// Seeded description of what to inject. All rates are independent
/// per-operation probabilities in [0, 1].
struct FaultPlan {
  uint64_t seed = 0x1f5dbfau;
  /// Read fails with kIoError; a retry redraws (usually succeeds).
  double read_transient_rate = 0.0;
  /// Read fails with kIoError and the page is remembered as dead: every
  /// later read of it fails too (media gone bad).
  double read_permanent_rate = 0.0;
  /// Write fails with kIoError; a retry redraws.
  double write_transient_rate = 0.0;
  /// Write fails with kIoError and the page is remembered as unwritable.
  double write_permanent_rate = 0.0;
  /// Silent corruption: one random bit of the page flips. On reads the
  /// returned buffer is corrupted; on writes the stored bytes are. The
  /// stored checksum is *not* recomputed, so the pool detects it. A mapped
  /// (zero-copy) read has no buffer to flip and fails with
  /// Status::Corruption instead.
  double bitflip_rate = 0.0;
  /// Torn write: only the first half of the page reaches storage, the rest
  /// stays zero/stale; the checksum still describes the full intended page.
  double torn_write_rate = 0.0;
  /// Fixed delay added to every read and write, simulating a slow device.
  uint32_t latency_us = 0;

  bool active() const {
    return read_transient_rate > 0 || read_permanent_rate > 0 ||
           write_transient_rate > 0 || write_permanent_rate > 0 ||
           bitflip_rate > 0 || torn_write_rate > 0 || latency_us > 0;
  }
};

/// Per-fault counters. Monotonic over the decorator's lifetime; readable
/// concurrently with serving traffic.
struct FaultStats {
  /// Read and map attempts seen (incl. failed). Sharded: every zero-copy
  /// fetch of a served snapshot bumps it.
  ShardedCounter reads;
  std::atomic<uint64_t> writes{0};  ///< Write attempts seen (incl. failed).
  std::atomic<uint64_t> transient_read_faults{0};
  std::atomic<uint64_t> permanent_read_faults{0};
  std::atomic<uint64_t> transient_write_faults{0};
  std::atomic<uint64_t> permanent_write_faults{0};
  std::atomic<uint64_t> bitflips{0};
  std::atomic<uint64_t> torn_writes{0};

  uint64_t total_faults() const {
    return transient_read_faults.load() + permanent_read_faults.load() +
           transient_write_faults.load() + permanent_write_faults.load() +
           bitflips.load() + torn_writes.load();
  }
};

/// PageFile decorator injecting faults per a FaultPlan. Does not own the
/// base file, which must outlive it. Thread-safe: the plan, RNG, and dead
/// page sets are guarded by a mutex, which only an armed decorator takes
/// (see file comment).
class FaultInjectingPageFile : public PageFile {
 public:
  explicit FaultInjectingPageFile(PageFile* base)
      : PageFile(base->page_size()), base_(base), rng_(FaultPlan().seed) {}

  using PageFile::Read;
  using PageFile::Write;

  /// Installs (and re-seeds) the fault plan. An all-zero plan restores
  /// pass-through behaviour; dead-page memory is cleared either way. Arms
  /// the decorator iff the plan is active.
  void set_plan(const FaultPlan& plan) LSDB_EXCLUDES(mu_);
  /// By value: the plan may be swapped live.
  FaultPlan plan() const LSDB_EXCLUDES(mu_);

  /// Forces every read of `id` to fail permanently — a deterministic
  /// "this page died" switch for tests and demos. Arms the decorator.
  void FailPage(PageId id) LSDB_EXCLUDES(mu_);
  /// While on, every read fails with kIoError (whole device dead). Counted
  /// as permanent read faults.
  void FailAllReads(bool on) {
    fail_all_reads_.store(on, std::memory_order_relaxed);
  }

  const FaultStats& stats() const { return stats_; }
  PageFile* base() { return base_; }

  uint32_t page_count() const override { return base_->page_count(); }
  uint32_t live_page_count() const override {
    return base_->live_page_count();
  }
  bool read_only() const override { return base_->read_only(); }
  bool zero_copy() const override { return base_->zero_copy(); }
  [[nodiscard]] Status Read(PageId id, void* buf, uint32_t* checksum)
      override LSDB_EXCLUDES(mu_);
  [[nodiscard]] Status Write(PageId id, const void* buf, uint32_t checksum)
      override LSDB_EXCLUDES(mu_);
  /// Same read-fault ladder as Read() over the base's zero-copy view, with
  /// the same RNG draws in the same order. The view is a borrowed pointer
  /// into a read-only mapping, so a bit flip cannot corrupt a buffer:
  /// instead the map fails with the Status::Corruption that checksum
  /// verification gives a flipped copied read, without touching the base
  /// (the page's first touch is still to come). Counted in bitflips.
  [[nodiscard]] StatusOr<MappedPage> MapPage(PageId id)
      override LSDB_EXCLUDES(mu_);
  [[nodiscard]] StatusOr<PageId> Allocate() override { return base_->Allocate(); }
  [[nodiscard]] Status Free(PageId id) override { return base_->Free(id); }

 private:
  void MaybeSleep() const;

  /// True while a plan is active or a page was failed by FailPage. While
  /// false every operation passes straight through to the base.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  PageFile* base_;
  std::atomic<bool> armed_{false};
  /// Guards the plan, RNG, and dead-page sets. Sits below the BufferPool
  /// mutex in the lock hierarchy (pool IO calls into the decorator), but
  /// the decorator never calls back up, so the order is acyclic.
  mutable Mutex mu_{"FaultInjectingPageFile.mu"};
  FaultPlan plan_ LSDB_GUARDED_BY(mu_);
  Rng rng_ LSDB_GUARDED_BY(mu_);
  std::unordered_set<PageId> dead_read_pages_ LSDB_GUARDED_BY(mu_);
  std::unordered_set<PageId> dead_write_pages_ LSDB_GUARDED_BY(mu_);
  std::atomic<bool> fail_all_reads_{false};
  FaultStats stats_;
};

}  // namespace lsdb

#endif  // LSDB_STORAGE_FAULT_INJECTION_H_
