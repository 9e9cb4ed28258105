// The SetStream position contract, pinned for every stream kind:
// ItemAt(i) is the i-th item Next() hands out in the same pass, a pass's
// ids are a permutation of [0, m), and every view stays valid until the
// next BeginPass(). EngineContext relies on it — a bound engine shards
// every pass by position whatever the stream — so for each kind this
// suite reads passes both ways, and checks that a sharded ThresholdPass
// takes exactly what the sequential one takes.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/parallel_pass_engine.h"
#include "stream/set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/bitset.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

enum class Kind {
  kMemory,
  kMemoryRandomOnce,
  kMemoryRandomEachPass,
  kMmap,
  kMmapView,
  kOverlay,
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMemory:
      return "Memory";
    case Kind::kMemoryRandomOnce:
      return "MemoryRandomOnce";
    case Kind::kMemoryRandomEachPass:
      return "MemoryRandomEachPass";
    case Kind::kMmap:
      return "Mmap";
    case Kind::kMmapView:
      return "MmapView";
    case Kind::kOverlay:
      return "Overlay";
  }
  return "Unknown";
}

// Dense and sparse sets mixed, so both payload representations are
// served.
SetSystem Instance() {
  Rng rng(41);
  SetSystem system = UniformRandomInstance(300, 40, 24, rng);
  std::vector<ElementId> half;
  for (ElementId e = 0; e < 300; e += 2) half.push_back(e);
  system.AddSetFromIndices(half);
  return system;
}

// One stream under test plus everything it borrows. The expected system
// holds, at index id, the set the stream must serve under that id.
struct Built {
  std::unique_ptr<Rng> rng;
  std::unique_ptr<MmapSetStream> mapping;
  std::unique_ptr<SetStream> stream;
  OverlaySetStream* overlay = nullptr;  // the stream, for kOverlay
};

// Reads one pass of \p stream both ways: each Next() must equal ItemAt()
// of its position, the ids must be a permutation of [0, m) serving
// \p expected's sets, and every view must still read right once the
// whole pass has been pulled. Returns the pass's id order.
std::vector<SetId> CheckPass(SetStream& stream, const SetSystem& expected) {
  const std::size_t m = expected.num_sets();
  EXPECT_EQ(stream.num_sets(), m);
  stream.BeginPass();
  std::vector<StreamItem> items;
  StreamItem item;
  while (stream.Next(&item)) {
    const StreamItem at = stream.ItemAt(items.size());
    EXPECT_EQ(at.id, item.id) << "position " << items.size();
    EXPECT_TRUE(at.set == item.set) << "position " << items.size();
    items.push_back(item);
  }
  EXPECT_EQ(items.size(), m);
  std::vector<bool> seen(m, false);
  std::vector<SetId> order;
  for (const StreamItem& served : items) {
    order.push_back(served.id);
    if (served.id >= m) {
      ADD_FAILURE() << "id " << served.id << " out of range";
      continue;
    }
    EXPECT_FALSE(seen[served.id]) << "id " << served.id << " served twice";
    seen[served.id] = true;
    EXPECT_TRUE(served.set == expected.set(served.id)) << "id " << served.id;
  }
  return order;
}

std::vector<SetId> Identity(std::size_t m) {
  std::vector<SetId> ids(m);
  std::iota(ids.begin(), ids.end(), SetId{0});
  return ids;
}

class StreamShardingTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    system_ = Instance();
    text_path_ = dir_.FilePath("base.ssc");
    binary_path_ = dir_.FilePath("base.sscb1");
    delta_path_ = dir_.FilePath("base.sscd1");
    ASSERT_TRUE(SaveSetSystem(system_, text_path_).ok());
    ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system_, binary_path_).ok());

    // The overlay's delta replaces set 3, removes set 5 and appends one
    // set; expected_overlay_ applies the same edits by hand.
    std::vector<ElementId> low;
    for (ElementId e = 0; e < 40; ++e) low.push_back(e);
    SetSystem added(system_.universe_size());
    added.AddSetFromIndices(low);
    added.AddSetFromIndices({7, 70, 170, 270});
    DeltaLogWriter writer(delta_path_, system_.universe_size(),
                          system_.num_sets());
    ASSERT_TRUE(writer.ReplaceSet(3, added.set(1)).ok());
    ASSERT_TRUE(writer.RemoveSet(5).ok());
    ASSERT_TRUE(writer.AddSet(added.set(0)).ok());
    ASSERT_TRUE(writer.Finish().ok());
    expected_overlay_ = SetSystem(system_.universe_size());
    for (SetId id = 0; id < system_.num_sets(); ++id) {
      if (id == 5) continue;
      expected_overlay_.AddSetFromView(id == 3 ? added.set(1)
                                               : system_.set(id));
    }
    expected_overlay_.AddSetFromView(added.set(0));
  }

  const SetSystem& Expected() const {
    return GetParam() == Kind::kOverlay ? expected_overlay_ : system_;
  }

  // A fresh stream of the parameter's kind; every call starts from the
  // same state, so two builds serve identical passes.
  Built Build() {
    Built b;
    switch (GetParam()) {
      case Kind::kMemory:
        b.stream = std::make_unique<VectorSetStream>(system_);
        break;
      case Kind::kMemoryRandomOnce:
        b.rng = std::make_unique<Rng>(7);
        b.stream = std::make_unique<VectorSetStream>(
            system_, StreamOrder::kRandomOnce, b.rng.get());
        break;
      case Kind::kMemoryRandomEachPass:
        b.rng = std::make_unique<Rng>(7);
        b.stream = std::make_unique<VectorSetStream>(
            system_, StreamOrder::kRandomEachPass, b.rng.get());
        break;
      case Kind::kMmap: {
        auto mmap = std::make_unique<MmapSetStream>(binary_path_);
        EXPECT_TRUE(mmap->status().ok()) << mmap->status().ToString();
        b.stream = std::move(mmap);
        break;
      }
      case Kind::kMmapView:
        b.mapping = std::make_unique<MmapSetStream>(binary_path_);
        EXPECT_TRUE(b.mapping->status().ok());
        b.stream = std::make_unique<MmapStreamView>(*b.mapping);
        break;
      case Kind::kOverlay: {
        // An ssc1 base: the overlay parses it once through OpenInstance.
        auto overlay =
            std::make_unique<OverlaySetStream>(text_path_, delta_path_);
        EXPECT_TRUE(overlay->status().ok()) << overlay->status().ToString();
        b.overlay = overlay.get();
        b.stream = std::move(overlay);
        break;
      }
    }
    return b;
  }

  ScopedTempDir dir_;
  SetSystem system_{0};
  SetSystem expected_overlay_{0};
  std::string text_path_;
  std::string binary_path_;
  std::string delta_path_;
};

TEST_P(StreamShardingTest, ItemAtMatchesNextAndPassesPermuteIds) {
  const SetSystem& expected = Expected();
  const std::vector<SetId> identity = Identity(expected.num_sets());

  // Two passes: the second BeginPass() may reuse whatever the first
  // pass's views pointed at (and reshuffles under kRandomEachPass).
  Built built = Build();
  const std::vector<SetId> first = CheckPass(*built.stream, expected);
  const std::vector<SetId> second = CheckPass(*built.stream, expected);
  EXPECT_EQ(built.stream->passes(), 2u);
  switch (GetParam()) {
    case Kind::kMemoryRandomOnce:
      EXPECT_NE(first, identity);
      EXPECT_EQ(second, first);
      break;
    case Kind::kMemoryRandomEachPass:
      EXPECT_NE(second, first);
      break;
    default:
      EXPECT_EQ(first, identity);
      EXPECT_EQ(second, identity);
      break;
  }
  if (GetParam() != Kind::kOverlay) return;

  // RefreshDelta picks up one more remove (base slot 0, live id 0): the
  // live ids renumber, and the next pass serves the rest in order.
  {
    DeltaLogWriter writer(delta_path_);
    ASSERT_TRUE(writer.RemoveSet(0).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(built.overlay->RefreshDelta().ok());
  SetSystem refreshed(expected.universe_size());
  for (SetId id = 1; id < expected.num_sets(); ++id) {
    refreshed.AddSetFromView(expected.set(id));
  }
  EXPECT_EQ(CheckPass(*built.stream, refreshed),
            Identity(refreshed.num_sets()));
  EXPECT_EQ(built.stream->passes(), 3u);
}

// With an engine bound, every stream kind shards, and the sharded
// threshold pass reproduces the sequential one over a fresh twin.
TEST_P(StreamShardingTest, ShardedThresholdPassMatchesSequential) {
  const SetSystem& expected = Expected();
  Built sequential = Build();
  EngineContext sequential_ctx(*sequential.stream, nullptr);
  EXPECT_FALSE(sequential_ctx.sharded());
  DynamicBitset sequential_uncovered =
      DynamicBitset::Full(expected.universe_size());
  std::vector<SetId> sequential_taken;
  sequential_ctx.ThresholdPass(
      12.0, sequential_uncovered,
      [&](SetId id) { sequential_taken.push_back(id); });
  ASSERT_FALSE(sequential_taken.empty());

  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelPassEngine engine(threads);
    Built sharded = Build();
    RequireSharded(*sharded.stream, &engine);  // must not die
    EngineContext ctx(*sharded.stream, &engine);
    EXPECT_TRUE(ctx.sharded());
    DynamicBitset uncovered = DynamicBitset::Full(expected.universe_size());
    std::vector<SetId> taken;
    ctx.ThresholdPass(12.0, uncovered,
                      [&](SetId id) { taken.push_back(id); });
    EXPECT_EQ(taken, sequential_taken);
    EXPECT_EQ(uncovered, sequential_uncovered);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStreamKinds, StreamShardingTest,
    ::testing::Values(Kind::kMemory, Kind::kMemoryRandomOnce,
                      Kind::kMemoryRandomEachPass, Kind::kMmap,
                      Kind::kMmapView, Kind::kOverlay),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return std::string(KindName(info.param));
    });

}  // namespace
}  // namespace streamsc
