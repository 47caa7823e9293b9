#include "transport/ring.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WNF_RING_POSIX 1
#include <sys/mman.h>
#else
#define WNF_RING_POSIX 0
#endif

#include <new>

namespace wnf::transport {

#if WNF_RING_POSIX

std::unique_ptr<WorkerRings> WorkerRings::create(std::size_t capacity) {
  WNF_EXPECTS(capacity > 0);
  const std::size_t bytes = 2 * sizeof(RingControl) +
                            capacity * sizeof(RequestSlot) +
                            capacity * sizeof(ResultSlot);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  WNF_ASSERT(mem != MAP_FAILED);

  auto rings = std::unique_ptr<WorkerRings>(new WorkerRings());
  rings->capacity_ = capacity;
  rings->mem_ = mem;
  rings->bytes_ = bytes;
  auto* base = static_cast<std::uint8_t*>(mem);
  rings->req_ctl_ = new (base) RingControl();
  rings->res_ctl_ = new (base + sizeof(RingControl)) RingControl();
  base += 2 * sizeof(RingControl);
  rings->req_slots_ = reinterpret_cast<RequestSlot*>(base);
  rings->res_slots_ =
      reinterpret_cast<ResultSlot*>(base + capacity * sizeof(RequestSlot));
  for (std::size_t i = 0; i < capacity; ++i) {
    new (rings->req_slots_ + i) RequestSlot();
    new (rings->res_slots_ + i) ResultSlot();
  }
  return rings;
}

WorkerRings::~WorkerRings() {
  if (mem_ != nullptr) ::munmap(mem_, bytes_);
}

void WorkerRings::reset() {
  req_ctl_->tail.store(0, std::memory_order_relaxed);
  req_ctl_->head.store(0, std::memory_order_relaxed);
  req_ctl_->consumer_waiting.store(0, std::memory_order_relaxed);
  req_ctl_->producer_waiting.store(0, std::memory_order_relaxed);
  res_ctl_->tail.store(0, std::memory_order_relaxed);
  res_ctl_->head.store(0, std::memory_order_relaxed);
  res_ctl_->consumer_waiting.store(0, std::memory_order_relaxed);
  res_ctl_->producer_waiting.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    req_slots_[i].begin_seq.store(0, std::memory_order_relaxed);
    req_slots_[i].commit_seq.store(0, std::memory_order_relaxed);
    res_slots_[i].begin_seq.store(0, std::memory_order_relaxed);
    res_slots_[i].commit_seq.store(0, std::memory_order_relaxed);
  }
  req_push_ = req_pop_ = res_push_ = res_pop_ = 0;
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

#else  // !WNF_RING_POSIX

std::unique_ptr<WorkerRings> WorkerRings::create(std::size_t) {
  WNF_EXPECTS(false && "shared-memory rings need POSIX mmap");
  return nullptr;
}

WorkerRings::~WorkerRings() = default;

void WorkerRings::reset() {}

#endif  // WNF_RING_POSIX

}  // namespace wnf::transport
