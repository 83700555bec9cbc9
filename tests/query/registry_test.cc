#include "query/registry.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dkf {
namespace {

ContinuousQuery MakeQuery(int id, int source, double precision) {
  ContinuousQuery query;
  query.id = id;
  query.source_id = source;
  query.precision = precision;
  return query;
}

TEST(RegistryTest, AddValidates) {
  QueryRegistry registry;
  EXPECT_FALSE(registry.AddQuery(MakeQuery(1, 1, 0.0)).ok());
  EXPECT_FALSE(registry.AddQuery(MakeQuery(1, 1, -2.0)).ok());
  EXPECT_FALSE(registry.AddQuery(MakeQuery(1, 1, std::nan(""))).ok());
  ContinuousQuery bad_smoothing = MakeQuery(1, 1, 1.0);
  bad_smoothing.smoothing_factor = 0.0;
  EXPECT_FALSE(registry.AddQuery(bad_smoothing).ok());
  bad_smoothing.smoothing_factor = std::nan("");
  EXPECT_FALSE(registry.AddQuery(bad_smoothing).ok());
  FusedQuery bad_fused;
  bad_fused.id = 2;
  bad_fused.group_id = 1;
  bad_fused.precision = std::nan("");
  EXPECT_FALSE(registry.AddFusedQuery(bad_fused).ok());
  bad_fused.precision = 0.0;
  EXPECT_FALSE(registry.AddFusedQuery(bad_fused).ok());
  EXPECT_TRUE(registry.AddQuery(MakeQuery(1, 1, 1.0)).ok());
  EXPECT_EQ(registry.AddQuery(MakeQuery(1, 2, 1.0)).code(),
            StatusCode::kAlreadyExists);
}

TEST(RegistryTest, RemoveLifecycle) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddQuery(MakeQuery(1, 1, 1.0)).ok());
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_TRUE(registry.RemoveQuery(1).ok());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.RemoveQuery(1).code(), StatusCode::kNotFound);
}

TEST(RegistryTest, EffectiveDeltaIsTightestQuery) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddQuery(MakeQuery(1, 7, 5.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(2, 7, 2.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(3, 7, 9.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(4, 8, 1.0)).ok());
  auto delta_or = registry.EffectiveDelta(7);
  ASSERT_TRUE(delta_or.ok());
  EXPECT_DOUBLE_EQ(delta_or.value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.EffectiveDelta(8).value(), 1.0);
  EXPECT_EQ(registry.EffectiveDelta(9).status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, EffectiveDeltaUpdatesOnRemoval) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddQuery(MakeQuery(1, 1, 5.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(2, 1, 2.0)).ok());
  ASSERT_TRUE(registry.RemoveQuery(2).ok());
  EXPECT_DOUBLE_EQ(registry.EffectiveDelta(1).value(), 5.0);
}

TEST(RegistryTest, EffectiveSmoothingSmallestF) {
  QueryRegistry registry;
  ContinuousQuery q1 = MakeQuery(1, 3, 1.0);
  q1.smoothing_factor = 1e-5;
  ContinuousQuery q2 = MakeQuery(2, 3, 1.0);
  q2.smoothing_factor = 1e-8;
  ContinuousQuery q3 = MakeQuery(3, 3, 1.0);  // no smoothing requested
  ASSERT_TRUE(registry.AddQuery(q1).ok());
  ASSERT_TRUE(registry.AddQuery(q2).ok());
  ASSERT_TRUE(registry.AddQuery(q3).ok());
  auto smoothing_or = registry.EffectiveSmoothing(3);
  ASSERT_TRUE(smoothing_or.ok());
  ASSERT_TRUE(smoothing_or.value().has_value());
  EXPECT_DOUBLE_EQ(*smoothing_or.value(), 1e-8);
}

TEST(RegistryTest, EffectiveSmoothingAbsentWhenNoneAsked) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddQuery(MakeQuery(1, 3, 1.0)).ok());
  auto smoothing_or = registry.EffectiveSmoothing(3);
  ASSERT_TRUE(smoothing_or.ok());
  EXPECT_FALSE(smoothing_or.value().has_value());
  EXPECT_EQ(registry.EffectiveSmoothing(4).status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, QueriesForSourceAndActiveSources) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddQuery(MakeQuery(1, 5, 1.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(2, 5, 2.0)).ok());
  ASSERT_TRUE(registry.AddQuery(MakeQuery(3, 9, 2.0)).ok());
  EXPECT_EQ(registry.QueriesForSource(5).size(), 2u);
  EXPECT_EQ(registry.QueriesForSource(9).size(), 1u);
  EXPECT_TRUE(registry.QueriesForSource(6).empty());
  EXPECT_EQ(registry.ActiveSources(), (std::vector<int>{5, 9}));
}

}  // namespace
}  // namespace dkf
