#include "storage/mmap_set_stream.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "instance/generators.h"
#include "storage/binary_instance_writer.h"
#include "stream/set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/random.h"

namespace streamsc {
namespace {

// A mixed-density instance: sparse planted blocks plus a few dense sets,
// so both payload representations are served from the mapping.
SetSystem MixedInstance(std::size_t n, Rng& rng) {
  SetSystem system = PlantedCoverInstance(n, 24, 4, rng);
  std::vector<ElementId> half;
  for (ElementId e = 0; e < n; e += 2) half.push_back(e);
  system.AddSetFromIndices(half);
  return system;
}

TEST(MmapSetStreamTest, MultiPassStreamingMatchesSource) {
  testing::ScopedTempDir dir;
  Rng rng(1);
  const SetSystem system = MixedInstance(256, rng);
  const std::string path = dir.FilePath("instance.sscb1");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());

  MmapSetStream stream(path);
  ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
  EXPECT_EQ(stream.universe_size(), system.universe_size());
  EXPECT_EQ(stream.num_sets(), system.num_sets());

  for (int pass = 0; pass < 3; ++pass) {
    stream.BeginPass();
    StreamItem item;
    SetId expected = 0;
    while (stream.Next(&item)) {
      EXPECT_EQ(item.id, expected);
      EXPECT_TRUE(item.set == system.set(expected)) << "pass " << pass;
      ++expected;
    }
    EXPECT_EQ(expected, system.num_sets());
  }
  EXPECT_EQ(stream.passes(), 3u);
}

// The cross-source, cross-thread solution-identity contract that used to
// be spot-checked here (Assadi, threshold-greedy) is now proven for every
// solver by the conformance matrix in tests/integration/
// solver_matrix_test.cc; this suite keeps to the stream itself.

}  // namespace
}  // namespace streamsc
