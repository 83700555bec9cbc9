#ifndef DKF_RUNTIME_WORKER_POOL_H_
#define DKF_RUNTIME_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dkf {

/// A persistent fork-join pool for the sharded runtime's tick loop.
///
/// The pool keeps `num_threads` workers parked between batches (no
/// per-tick thread spawns). RunAll publishes a task vector, and the
/// *calling thread participates* in draining it alongside the workers —
/// so a pool constructed with 0 threads degenerates to running every
/// task inline, and a ShardedStreamEngine with N shards only needs
/// N - 1 background threads.
///
/// Tasks are claimed in index order from a shared counter, and any
/// thread may run any task. A task may therefore wait for an earlier
/// task of its batch, which some thread is already running, but never
/// for a later one. RunAll returns after
/// every task has finished; the join gives the caller a happens-before
/// edge on all task side effects, which is what lets the engine read
/// per-shard state without further locking.
class WorkerPool {
 public:
  using Task = std::function<Status()>;

  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs every task to completion (no early abort on error: a shard
  /// that fails must not leave its siblings mid-tick). Returns the
  /// first non-OK status in task order, or OK.
  Status RunAll(const std::vector<Task>& tasks);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();
  /// Claims and runs tasks from the current batch until it is drained.
  void DrainBatch(const std::vector<Task>& tasks);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  /// Bumped (under the mutex) once per RunAll to wake the workers.
  uint64_t generation_ = 0;
  bool stopping_ = false;
  const std::vector<Task>* batch_ = nullptr;
  /// Next unclaimed task index in `batch_`.
  std::atomic<size_t> next_task_{0};
  /// Tasks finished so far in `batch_` (guarded by mutex_ for the
  /// batch_done_ wait).
  size_t completed_ = 0;
  /// Workers currently inside DrainBatch; RunAll must not return (and
  /// let the caller destroy the task vector) while any remain.
  size_t draining_ = 0;
  std::vector<Status> statuses_;

  std::vector<std::thread> threads_;
};

}  // namespace dkf

#endif  // DKF_RUNTIME_WORKER_POOL_H_
