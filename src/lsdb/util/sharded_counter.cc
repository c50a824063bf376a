#include "lsdb/util/sharded_counter.h"

#include <bit>

namespace lsdb {
namespace internal {

namespace {

/// Bit i set = slot i is leased by a live thread.
std::atomic<uint64_t> g_leased{0};
/// Round-robin source for threads beyond kSlots live ones.
std::atomic<uint32_t> g_shared{0};

static_assert(ShardedCounter::kSlots == 64, "one lease bit per slot");

/// A thread's slot; returned to the free set when the thread exits. A
/// destructor of another thread_local that runs later in the same exit may
/// still Add() into the old slot, which at worst shares it with the next
/// thread that leases it — counts stay exact.
struct SlotLease {
  uint32_t slot;
  bool leased;
  ~SlotLease() {
    if (leased) {
      g_leased.fetch_and(~(uint64_t{1} << slot), std::memory_order_release);
    }
  }
};

SlotLease Claim() {
  uint64_t used = g_leased.load(std::memory_order_relaxed);
  while (used != ~uint64_t{0}) {
    const auto slot = static_cast<uint32_t>(std::countr_one(used));
    if (g_leased.compare_exchange_weak(used, used | uint64_t{1} << slot,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return {slot, true};
    }
  }
  const uint32_t shared = g_shared.fetch_add(1, std::memory_order_relaxed);
  return {shared % static_cast<uint32_t>(ShardedCounter::kSlots), false};
}

}  // namespace

uint32_t LeaseCounterSlot() {
  thread_local const SlotLease lease = Claim();
  tls_counter_slot = lease.slot;
  return lease.slot;
}

}  // namespace internal
}  // namespace lsdb
