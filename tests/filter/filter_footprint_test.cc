// Footprint contract for KalmanFilter's exact-size storage (docs/perf.md):
// a filter is its object plus one block of doubles sized from (n, m) and
// the LU pivots, so Create makes exactly two heap allocations at every
// dimension, a copy makes the same two, a move makes none, and a dim-1
// filter — object plus everything Create allocates — fits in 1 KB.
// Counted with this binary's counting operator new.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "filter/kalman_filter.h"
#include "models/model_factory.h"
#include "support/counting_new.h"

namespace dkf {
namespace {

// The block, then the LU pivot storage.
constexpr uint64_t kCreateAllocations = 2;
constexpr uint64_t kDimOneFilterBytesCeiling = 1024;

/// Factory model recipes of state dimensions 1, 2, 3, 2, 4 and 6.
std::vector<StateModel> FactoryModels() {
  ModelNoise noise;
  std::vector<StateModel> models;
  for (int axes = 1; axes <= 3; ++axes) {
    models.push_back(MakeConstantModel(axes, noise).value());  // n = axes
  }
  for (int axes = 1; axes <= 3; ++axes) {
    models.push_back(MakeLinearModel(axes, 1.0, noise).value());  // 2 axes
  }
  return models;
}

TEST(FilterFootprint, DimOneFilterFitsInOneKilobyte) {
  const StateModel model = MakeConstantModel(1, ModelNoise{}).value();
  ASSERT_EQ(model.options.initial_state.size(), 1u);
  ASSERT_EQ(model.measurement_dim, 1u);
  std::optional<Result<KalmanFilter>> made;
  const AllocationCount create = CountAllocations(
      [&] { made.emplace(KalmanFilter::Create(model.options)); });
  ASSERT_TRUE(made->ok());
  const uint64_t total = sizeof(KalmanFilter) + create.bytes;
  std::printf("dim-1 filter: %zu B object + %llu B in %llu allocations = "
              "%llu B\n",
              sizeof(KalmanFilter),
              static_cast<unsigned long long>(create.bytes),
              static_cast<unsigned long long>(create.calls),
              static_cast<unsigned long long>(total));
  EXPECT_EQ(create.calls, kCreateAllocations);
  EXPECT_LE(total, kDimOneFilterBytesCeiling);
}

TEST(FilterFootprint, CreateAndCopyAllocateTwiceAndMoveNever) {
  for (const StateModel& model : FactoryModels()) {
    const size_t n = model.options.initial_state.size();
    SCOPED_TRACE(model.name + " n=" + std::to_string(n));
    std::optional<Result<KalmanFilter>> made;
    EXPECT_EQ(CountAllocations([&] {
                made.emplace(KalmanFilter::Create(model.options));
              }).calls,
              kCreateAllocations);
    ASSERT_TRUE(made->ok());
    KalmanFilter& filter = made->value();
    std::optional<KalmanFilter> copy;
    EXPECT_EQ(CountAllocations([&] { copy.emplace(filter); }).calls,
              kCreateAllocations);
    EXPECT_TRUE(copy->FullStateBitEquals(filter));
    std::optional<KalmanFilter> moved;
    EXPECT_EQ(CountAllocations([&] { moved.emplace(std::move(*copy)); }).calls,
              0u);
    EXPECT_TRUE(moved->FullStateBitEquals(filter));
  }
}

}  // namespace
}  // namespace dkf
