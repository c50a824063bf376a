#include "lsdb/storage/fault_injection.h"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace lsdb {

void FaultInjectingPageFile::set_plan(const FaultPlan& plan) {
  MutexLock lk(mu_);
  plan_ = plan;
  rng_ = Rng(plan.seed);
  dead_read_pages_.clear();
  dead_write_pages_.clear();
  armed_.store(plan.active(), std::memory_order_release);
}

FaultPlan FaultInjectingPageFile::plan() const {
  MutexLock lk(mu_);
  return plan_;
}

void FaultInjectingPageFile::FailPage(PageId id) {
  MutexLock lk(mu_);
  dead_read_pages_.insert(id);
  armed_.store(true, std::memory_order_release);
}

void FaultInjectingPageFile::MaybeSleep() const {
  uint32_t us;
  {
    MutexLock lk(mu_);
    us = plan_.latency_us;
  }
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

Status FaultInjectingPageFile::Read(PageId id, void* buf,
                                    uint32_t* checksum) {
  stats_.reads.Add();
  if (fail_all_reads_.load(std::memory_order_relaxed)) {
    stats_.permanent_read_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected: device read failure");
  }
  if (!armed()) return base_->Read(id, buf, checksum);
  bool bitflip = false;
  {
    MutexLock lk(mu_);
    if (dead_read_pages_.count(id) != 0) {
      stats_.permanent_read_faults.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("injected: permanent read failure");
    }
    if (plan_.active()) {
      if (rng_.Bernoulli(plan_.read_permanent_rate)) {
        dead_read_pages_.insert(id);
        stats_.permanent_read_faults.fetch_add(1,
                                               std::memory_order_relaxed);
        return Status::IoError("injected: permanent read failure");
      }
      if (rng_.Bernoulli(plan_.read_transient_rate)) {
        stats_.transient_read_faults.fetch_add(1,
                                               std::memory_order_relaxed);
        return Status::IoError("injected: transient read failure");
      }
      bitflip = rng_.Bernoulli(plan_.bitflip_rate);
    }
  }
  MaybeSleep();
  LSDB_RETURN_IF_ERROR(base_->Read(id, buf, checksum));
  if (bitflip) {
    // Flip one deterministic-random bit of the returned page; the stored
    // checksum is untouched, so the pool's verify-on-miss sees a mismatch.
    uint64_t bit;
    {
      MutexLock lk(mu_);
      bit = rng_.Uniform(static_cast<uint64_t>(page_size_) * 8);
    }
    static_cast<uint8_t*>(buf)[bit / 8] ^=
        static_cast<uint8_t>(1u << (bit % 8));
    stats_.bitflips.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

StatusOr<PageFile::MappedPage> FaultInjectingPageFile::MapPage(PageId id) {
  stats_.reads.Add();
  if (fail_all_reads_.load(std::memory_order_relaxed)) {
    stats_.permanent_read_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("injected: device read failure");
  }
  if (!armed()) return base_->MapPage(id);
  bool bitflip = false;
  {
    MutexLock lk(mu_);
    if (dead_read_pages_.count(id) != 0) {
      stats_.permanent_read_faults.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("injected: permanent read failure");
    }
    if (plan_.active()) {
      if (rng_.Bernoulli(plan_.read_permanent_rate)) {
        dead_read_pages_.insert(id);
        stats_.permanent_read_faults.fetch_add(1,
                                               std::memory_order_relaxed);
        return Status::IoError("injected: permanent read failure");
      }
      if (rng_.Bernoulli(plan_.read_transient_rate)) {
        stats_.transient_read_faults.fetch_add(1,
                                               std::memory_order_relaxed);
        return Status::IoError("injected: transient read failure");
      }
      // Read()'s draws in Read()'s order: the flip, then its bit. The bit
      // is unused (there is no buffer to flip) but keeps the sequences of
      // mapped and copied reads aligned.
      if (rng_.Bernoulli(plan_.bitflip_rate)) {
        bitflip = true;
        rng_.Uniform(static_cast<uint64_t>(page_size_) * 8);
      }
    }
  }
  MaybeSleep();
  if (bitflip) {
    // What verify-on-read reports for a flipped copy. The base is not
    // mapped, so the page's first touch (its counted disk read) is still
    // to come, as for a copied read the pool rejected.
    stats_.bitflips.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption("page " + std::to_string(id) +
                              " failed checksum verification");
  }
  return base_->MapPage(id);
}

Status FaultInjectingPageFile::Write(PageId id, const void* buf,
                                     uint32_t checksum) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  if (!armed()) return base_->Write(id, buf, checksum);
  bool bitflip = false;
  bool torn = false;
  uint64_t bit = 0;
  {
    MutexLock lk(mu_);
    if (dead_write_pages_.count(id) != 0) {
      stats_.permanent_write_faults.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("injected: permanent write failure");
    }
    if (plan_.active()) {
      if (rng_.Bernoulli(plan_.write_permanent_rate)) {
        dead_write_pages_.insert(id);
        stats_.permanent_write_faults.fetch_add(1,
                                                std::memory_order_relaxed);
        return Status::IoError("injected: permanent write failure");
      }
      if (rng_.Bernoulli(plan_.write_transient_rate)) {
        stats_.transient_write_faults.fetch_add(1,
                                                std::memory_order_relaxed);
        return Status::IoError("injected: transient write failure");
      }
      torn = rng_.Bernoulli(plan_.torn_write_rate);
      if (!torn && rng_.Bernoulli(plan_.bitflip_rate)) {
        bitflip = true;
        bit = rng_.Uniform(static_cast<uint64_t>(page_size_) * 8);
      }
    }
  }
  MaybeSleep();
  if (torn) {
    // Only the first half of the page reaches storage; the intended
    // checksum is still stored, so the next read fails verification.
    std::vector<uint8_t> partial(page_size_, 0);
    std::memcpy(partial.data(), buf, page_size_ / 2);
    stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
    return base_->Write(id, partial.data(), checksum);
  }
  if (bitflip) {
    std::vector<uint8_t> flipped(static_cast<const uint8_t*>(buf),
                                 static_cast<const uint8_t*>(buf) +
                                     page_size_);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    stats_.bitflips.fetch_add(1, std::memory_order_relaxed);
    return base_->Write(id, flipped.data(), checksum);
  }
  return base_->Write(id, buf, checksum);
}

}  // namespace lsdb
