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
  std::vector<WorkerPool::Task> tasks;
  for (size_t i = 0; i < runs.size(); ++i) {
    tasks.push_back([&runs, i] {
      runs[i].fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(pool.RunAll(tasks).ok());
  for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  int runs = 0;
  std::vector<WorkerPool::Task> tasks(5, [&runs] {
    ++runs;  // safe: with no workers, every task runs on this thread
    return Status::OK();
  });
  ASSERT_TRUE(pool.RunAll(tasks).ok());
  EXPECT_EQ(runs, 5);
}

TEST(WorkerPoolTest, TaskMayWaitForEarlierTasksOfItsBatch) {
  // Tasks are claimed in index order, so a task that waits for every
  // earlier one only ever waits for tasks already running: the batch
  // completes at any pool size, fewer threads than tasks included.
  for (size_t threads : {0u, 1u, 3u}) {
    WorkerPool pool(threads);
    for (int batch = 0; batch < 50; ++batch) {
      std::atomic<int> done{0};
      std::vector<WorkerPool::Task> tasks;
      for (int i = 0; i < 8; ++i) {
        tasks.push_back([&done, i] {
          while (done.load() < i) std::this_thread::yield();
          done.fetch_add(1);
          return Status::OK();
        });
      }
      ASSERT_TRUE(pool.RunAll(tasks).ok()) << "threads=" << threads;
      EXPECT_EQ(done.load(), 8) << "threads=" << threads;
    }
  }
}

TEST(WorkerPoolTest, EmptyBatchIsOk) {
  WorkerPool pool(2);
  EXPECT_TRUE(pool.RunAll({}).ok());
}

TEST(WorkerPoolTest, ReturnsFirstErrorInTaskOrderAndRunsAllTasks) {
  WorkerPool pool(2);
  std::atomic<int> runs{0};
  std::vector<WorkerPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&runs, i]() -> Status {
      runs.fetch_add(1);
      if (i == 3) return Status::Internal("task 3 failed");
      if (i == 6) return Status::InvalidArgument("task 6 failed");
      return Status::OK();
    });
  }
  Status status = pool.RunAll(tasks);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "task 3 failed");
  // No early abort: a failing shard must not strand its siblings.
  EXPECT_EQ(runs.load(), 8);
}

TEST(WorkerPoolTest, ReusableAcrossManyBatches) {
  WorkerPool pool(4);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    std::vector<WorkerPool::Task> tasks;
    for (int i = 0; i < 9; ++i) {
      tasks.push_back([&sum] {
        sum.fetch_add(1);
        return Status::OK();
      });
    }
    ASSERT_TRUE(pool.RunAll(tasks).ok());
  }
  EXPECT_EQ(sum.load(), 200 * 9);
}

}  // namespace
}  // namespace dkf
