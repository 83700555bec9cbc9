#include "runtime/worker_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dkf {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::atomic<int>> runs(17);
  ASSERT_TRUE(pool.RunAll(runs.size(), [&runs](size_t i) {
                    runs[i].fetch_add(1);
                    return Status::OK();
                  }).ok());
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  int runs = 0;
  ASSERT_TRUE(pool.RunAll(5, [&runs](size_t) {
                    ++runs;  // safe: with no workers, every task runs here
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(runs, 5);
}

TEST(WorkerPoolTest, TaskMayWaitForEarlierTasksOfItsBatch) {
  // Tasks are claimed in index order, so a task that waits for every
  // earlier one only ever waits for tasks already running: the batch
  // completes at any pool size, fewer threads than tasks included.
  for (size_t threads : {0u, 1u, 3u}) {
    WorkerPool pool(threads);
    for (int batch = 0; batch < 50; ++batch) {
      std::atomic<size_t> done{0};
      ASSERT_TRUE(pool.RunAll(8, [&done](size_t i) {
                        while (done.load() < i) std::this_thread::yield();
                        done.fetch_add(1);
                        return Status::OK();
                      }).ok())
          << "threads=" << threads;
      EXPECT_EQ(done.load(), 8u) << "threads=" << threads;
    }
  }
}

TEST(WorkerPoolTest, EmptyBatchIsOk) {
  WorkerPool pool(2);
  EXPECT_TRUE(pool.RunAll(0, [](size_t) { return Status::OK(); }).ok());
}

TEST(WorkerPoolTest, ReturnsFirstErrorInTaskOrderAndRunsAllTasks) {
  WorkerPool pool(2);
  std::atomic<int> runs{0};
  Status status = pool.RunAll(8, [&runs](size_t i) -> Status {
    runs.fetch_add(1);
    if (i == 3) return Status::Internal("task 3 failed");
    if (i == 6) return Status::InvalidArgument("task 6 failed");
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "task 3 failed");
  // No early abort: a failing shard must not strand its siblings.
  EXPECT_EQ(runs.load(), 8);
}

TEST(WorkerPoolTest, ReusableAcrossManyBatches) {
  WorkerPool pool(4);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(pool.RunAll(9, [&sum](size_t) {
                      sum.fetch_add(1);
                      return Status::OK();
                    }).ok());
  }
  EXPECT_EQ(sum.load(), 200 * 9);
}

}  // namespace
}  // namespace dkf
