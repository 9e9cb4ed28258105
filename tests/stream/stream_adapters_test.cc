#include "stream/stream_adapters.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"

namespace streamsc {
namespace {

SetSystem LeftHalf() {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2});
  return system;
}

SetSystem RightHalf() {
  SetSystem system(6);
  system.AddSetFromIndices({3, 4});
  system.AddSetFromIndices({5});
  system.AddSetFromIndices({0, 5});
  return system;
}

std::vector<SetId> Drain(SetStream& stream) {
  stream.BeginPass();
  std::vector<SetId> ids;
  StreamItem item;
  while (stream.Next(&item)) ids.push_back(item.id);
  return ids;
}

TEST(ConcatSetStreamTest, AliceThenBobOrderAndIds) {
  const SetSystem left = LeftHalf();
  const SetSystem right = RightHalf();
  VectorSetStream a(left), b(right);
  ConcatSetStream concat(a, b);
  EXPECT_EQ(concat.num_sets(), 5u);
  EXPECT_EQ(concat.universe_size(), 6u);
  EXPECT_EQ(Drain(concat), (std::vector<SetId>{0, 1, 2, 3, 4}));
}

TEST(ConcatSetStreamTest, SecondHalfContentsShifted) {
  const SetSystem left = LeftHalf();
  const SetSystem right = RightHalf();
  VectorSetStream a(left), b(right);
  ConcatSetStream concat(a, b);
  concat.BeginPass();
  StreamItem item;
  std::vector<SetView> seen;
  while (concat.Next(&item)) seen.push_back(item.set);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen[2] == right.set(0));
  EXPECT_TRUE(seen[4] == right.set(2));
}

TEST(ConcatSetStreamTest, MultiplePassesRestart) {
  const SetSystem left = LeftHalf();
  const SetSystem right = RightHalf();
  VectorSetStream a(left), b(right);
  ConcatSetStream concat(a, b);
  EXPECT_EQ(Drain(concat).size(), 5u);
  EXPECT_EQ(Drain(concat).size(), 5u);
  EXPECT_EQ(concat.passes(), 2u);
}

TEST(ConcatSetStreamTest, AlgorithmRunsOverConcat) {
  // The Theorem 1 simulation setting: Alice's sets then Bob's.
  Rng rng(1);
  const SetSystem whole = PlantedCoverInstance(300, 30, 4, rng);
  SetSystem alice(300), bob(300);
  for (SetId id = 0; id < whole.num_sets(); ++id) {
    (id % 2 == 0 ? alice : bob).AddSetFromView(whole.set(id));
  }
  VectorSetStream a(alice), b(bob);
  ConcatSetStream concat(a, b);
  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  AssadiSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(concat);
  ASSERT_TRUE(result.feasible);
}

TEST(InterleaveSetStreamTest, AlternatesAndExhaustsBoth) {
  const SetSystem left = LeftHalf();    // ids 0, 1
  const SetSystem right = RightHalf();  // ids 2, 3, 4 after shift
  VectorSetStream a(left), b(right);
  InterleaveSetStream interleave(a, b);
  EXPECT_EQ(Drain(interleave), (std::vector<SetId>{0, 2, 1, 3, 4}));
  EXPECT_EQ(interleave.num_sets(), 5u);
}

TEST(InterleaveSetStreamTest, EmptyFirstStream) {
  SetSystem empty(6);
  const SetSystem right = RightHalf();
  VectorSetStream a(empty), b(right);
  InterleaveSetStream interleave(a, b);
  EXPECT_EQ(Drain(interleave), (std::vector<SetId>{0, 1, 2}));
}

}  // namespace
}  // namespace streamsc
