#include "runtime/worker_pool.h"

namespace dkf {

WorkerPool::WorkerPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::DrainBatch(const Batch& batch) {
  for (;;) {
    const size_t index = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    Status status = batch.run(batch.context, index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      statuses_[index] = std::move(status);
      ++completed_;
    }
    batch_done_.notify_one();
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ ||
               (batch_ != nullptr && generation_ != seen_generation);
      });
      if (stopping_) return;
      seen_generation = generation_;
      batch = batch_;
      ++draining_;
    }
    DrainBatch(*batch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --draining_;
    }
    // The coordinator may be waiting for the last straggler to leave
    // the batch before it can free the callable.
    batch_done_.notify_one();
  }
}

Status WorkerPool::RunBatch(const Batch& batch) {
  if (batch.count == 0) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    statuses_.assign(batch.count, Status::OK());
    next_task_.store(0, std::memory_order_relaxed);
    completed_ = 0;
    ++generation_;
  }
  work_ready_.notify_all();
  // The calling thread works the batch too (see class comment).
  DrainBatch(batch);
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&] {
    return completed_ == batch.count && draining_ == 0;
  });
  batch_ = nullptr;
  for (const Status& status : statuses_) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace dkf
