// The asynchronous half of the serving runtimes: a multi-producer
// completion queue that merges worker results back into request-id order.
//
// Splitting submission from completion means workers finish requests in
// whatever order execution happens to take, but the serving contract is
// that results are observed in id order — the order submission consumed
// Rng::split children — so a replayed stream is bit-identical to the
// synchronous drain() it replaced at any worker count. The queue is that
// merge point: producers push() results as they finish; the consumer's
// try_pop()/pop() only release a result once every earlier id has been
// delivered, holding later arrivals in a reorder buffer (a min-heap on id)
// until the gap closes.
//
// Threading contract: any number of producer threads may push()
// concurrently; one consumer thread calls try_pop()/pop(). reset() is a
// consumer-side operation for rebinding a request stream whose ids restart
// (transport::WorkerHost::rebind) and requires the queue to be empty.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <queue>
#include <span>
#include <vector>

#include "serve/report.hpp"

namespace wnf::serve {

/// MPSC reorder buffer: results enter in completion order, leave in
/// request-id order. Ids are assumed to be dense from the id passed to
/// reset() (the serving runtimes allocate them contiguously at submission,
/// so every gap is a result still in flight, never a hole).
class CompletionQueue {
 public:
  CompletionQueue() = default;

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Makes `result` available to the consumer. Any producer thread.
  void push(RequestResult result);

  /// One lock for a worker's whole locally-coalesced batch — the producers
  /// amortise contention over the batch instead of paying it per result.
  void push_many(std::span<const RequestResult> results);

  /// Delivers the next in-order result if it has arrived. Never blocks:
  /// false means the next id is still executing (results for *later* ids
  /// may well be buffered — they stay put until the gap closes).
  bool try_pop(RequestResult& out);

  /// Blocks until the next in-order result arrives, then delivers it.
  RequestResult pop();

  /// Blocks until the next in-order result arrives, then delivers it AND
  /// every consecutively-ready successor under the same lock — the
  /// consumer-side mirror of push_many. Appends to `out` in id order;
  /// returns the number delivered (>= 1).
  std::size_t pop_ready(std::vector<RequestResult>& out);

  /// Results currently buffered (delivered ones excluded). The buffered
  /// count minus in-order-ready is how far execution has run ahead of the
  /// consumer.
  std::size_t buffered() const;

  /// The id the consumer will be handed next.
  std::uint64_t next_id() const;

  /// Restarts the id stream at `next_id` (a rebound deployment restarts
  /// at 0). Requires an empty queue: nothing may straddle the restart.
  void reset(std::uint64_t next_id);

 private:
  struct LaterId {
    bool operator()(const RequestResult& a, const RequestResult& b) const {
      return a.id > b.id;
    }
  };

  bool ready_locked() const {
    return !heap_.empty() && heap_.top().id == next_id_;
  }

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::priority_queue<RequestResult, std::vector<RequestResult>, LaterId>
      heap_;
  std::uint64_t next_id_ = 0;
};

}  // namespace wnf::serve
