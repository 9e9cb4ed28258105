#include "stream/set_stream.h"

#include <gtest/gtest.h>

#include <set>

#include "instance/generators.h"

namespace streamsc {
namespace {

SetSystem MakeSystem(std::size_t m) {
  SetSystem system(8);
  for (std::size_t i = 0; i < m; ++i) {
    system.AddSetFromIndices({static_cast<ElementId>(i % 8)});
  }
  return system;
}

TEST(SetStreamTest, AdversarialOrderIsInsertionOrder) {
  const SetSystem system = MakeSystem(5);
  VectorSetStream stream(system);
  stream.BeginPass();
  StreamItem item;
  for (SetId expected = 0; expected < 5; ++expected) {
    ASSERT_TRUE(stream.Next(&item));
    EXPECT_EQ(item.id, expected);
    EXPECT_TRUE(item.set == system.set(expected));
  }
  EXPECT_FALSE(stream.Next(&item));
}

TEST(SetStreamTest, PassCounterIncrements) {
  const SetSystem system = MakeSystem(3);
  VectorSetStream stream(system);
  EXPECT_EQ(stream.passes(), 0u);
  stream.BeginPass();
  EXPECT_EQ(stream.passes(), 1u);
  stream.BeginPass();
  stream.BeginPass();
  EXPECT_EQ(stream.passes(), 3u);
}

TEST(SetStreamTest, EachPassYieldsAllItems) {
  const SetSystem system = MakeSystem(7);
  VectorSetStream stream(system);
  for (int pass = 0; pass < 3; ++pass) {
    stream.BeginPass();
    std::size_t count = 0;
    StreamItem item;
    while (stream.Next(&item)) ++count;
    EXPECT_EQ(count, 7u);
  }
}

TEST(SetStreamTest, RandomOnceIsAPermutation) {
  const SetSystem system = MakeSystem(20);
  Rng rng(1);
  VectorSetStream stream(system, StreamOrder::kRandomOnce, &rng);
  stream.BeginPass();
  std::set<SetId> seen;
  StreamItem item;
  while (stream.Next(&item)) seen.insert(item.id);
  EXPECT_EQ(seen.size(), 20u);
}

TEST(SetStreamTest, RandomOnceStableAcrossPasses) {
  const SetSystem system = MakeSystem(20);
  Rng rng(2);
  VectorSetStream stream(system, StreamOrder::kRandomOnce, &rng);
  std::vector<SetId> first, second;
  StreamItem item;
  stream.BeginPass();
  while (stream.Next(&item)) first.push_back(item.id);
  stream.BeginPass();
  while (stream.Next(&item)) second.push_back(item.id);
  EXPECT_EQ(first, second);
}

TEST(SetStreamTest, RandomOnceActuallyShuffles) {
  const SetSystem system = MakeSystem(50);
  Rng rng(3);
  VectorSetStream stream(system, StreamOrder::kRandomOnce, &rng);
  stream.BeginPass();
  std::vector<SetId> order;
  StreamItem item;
  while (stream.Next(&item)) order.push_back(item.id);
  std::vector<SetId> identity(50);
  for (SetId i = 0; i < 50; ++i) identity[i] = i;
  EXPECT_NE(order, identity);  // 1/50! chance of flake
}

TEST(SetStreamTest, RandomEachPassReshuffles) {
  const SetSystem system = MakeSystem(50);
  Rng rng(4);
  VectorSetStream stream(system, StreamOrder::kRandomEachPass, &rng);
  std::vector<SetId> first, second;
  StreamItem item;
  stream.BeginPass();
  while (stream.Next(&item)) first.push_back(item.id);
  stream.BeginPass();
  while (stream.Next(&item)) second.push_back(item.id);
  EXPECT_NE(first, second);  // 1/50! chance of flake
  std::sort(second.begin(), second.end());
  for (SetId i = 0; i < 50; ++i) EXPECT_EQ(second[i], i);
}

TEST(SetStreamTest, MetadataAccessors) {
  const SetSystem system = MakeSystem(4);
  VectorSetStream stream(system);
  EXPECT_EQ(stream.universe_size(), 8u);
  EXPECT_EQ(stream.num_sets(), 4u);
}

TEST(SetStreamTest, EmptySystemStream) {
  SetSystem system(5);
  VectorSetStream stream(system);
  stream.BeginPass();
  StreamItem item;
  EXPECT_FALSE(stream.Next(&item));
}

// Regression: with a null Rng, the random orders used to hit a debug-only
// assert — a nullptr dereference in release builds. They must abort
// loudly in every build mode instead.
TEST(SetStreamDeathTest, RandomOnceWithNullRngAbortsLoudly) {
  const SetSystem system = MakeSystem(3);
  EXPECT_DEATH(VectorSetStream(system, StreamOrder::kRandomOnce, nullptr),
               "non-null Rng");
}

TEST(SetStreamDeathTest, RandomEachPassWithNullRngAbortsLoudly) {
  const SetSystem system = MakeSystem(3);
  EXPECT_DEATH(VectorSetStream(system, StreamOrder::kRandomEachPass, nullptr),
               "non-null Rng");
}

TEST(SetStreamTest, BorrowedSetsReflectSystemContents) {
  Rng rng(5);
  const SetSystem system = UniformRandomInstance(30, 6, 5, rng);
  VectorSetStream stream(system);
  stream.BeginPass();
  StreamItem item;
  while (stream.Next(&item)) {
    EXPECT_TRUE(item.set == system.set(item.id));
  }
}

}  // namespace
}  // namespace streamsc
