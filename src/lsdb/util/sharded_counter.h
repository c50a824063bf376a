// Per-thread sharded event counter.
//
// A hot read path that bumps one shared std::atomic<uint64_t> from every
// worker makes the workers take turns owning that cache line, which is
// enough on its own to stop them scaling. A ShardedCounter gives every
// thread its own cache-line-padded slot: Add() is a relaxed fetch_add on a
// line no other live thread writes, and value() sums the slots.
//
// Slots are leased per thread, not per counter: a thread takes the lowest
// free slot index on its first Add() to any counter and returns it when it
// exits, so up to kSlots live threads each write a distinct line of every
// counter. Past kSlots live threads the extra ones share slots round-robin;
// counts stay exact (every Add is atomic), only the line is shared again.
//
// value() is a relaxed sum: concurrent with Add() it may miss in-flight
// increments, which is the usual contract for a monitoring counter.

#ifndef LSDB_UTIL_SHARDED_COUNTER_H_
#define LSDB_UTIL_SHARDED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lsdb {

namespace internal {

inline constexpr uint32_t kNoCounterSlot = 0xffffffffu;
/// The calling thread's leased slot, or kNoCounterSlot before its first
/// Add(). Trivially initialized, so reading it is one TLS load.
inline constinit thread_local uint32_t tls_counter_slot = kNoCounterSlot;
/// Slow path of CounterSlot(): leases a slot for the calling thread.
uint32_t LeaseCounterSlot();

/// Slot index of the calling thread, in [0, ShardedCounter::kSlots).
inline uint32_t CounterSlot() {
  const uint32_t slot = tls_counter_slot;
  return slot != kNoCounterSlot ? slot : LeaseCounterSlot();
}

}  // namespace internal

class ShardedCounter {
 public:
  /// One slot bit per lease in a 64-bit word (see LeaseCounterSlot).
  static constexpr size_t kSlots = 64;
  static constexpr size_t kLineBytes = 64;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n = 1) {
    slots_[internal::CounterSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(kLineBytes) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kSlots];
};

}  // namespace lsdb

#endif  // LSDB_UTIL_SHARDED_COUNTER_H_
