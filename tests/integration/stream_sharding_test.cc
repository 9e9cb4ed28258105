// The SetStream buffering contract, pinned for every stream kind: each
// item view handed out during a pass stays valid until the next
// BeginPass(). EngineContext relies on it — a bound engine shards every
// buffered pass whatever the stream — so for each kind this suite checks
// that a drained pass still reads back the right sets, and that a sharded
// ThresholdPass takes exactly what the sequential one takes.

#include <gtest/gtest.h>

#include <memory>
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
  kMemoryRandomEachPass,
  kMmap,
  kMmapView,
  kOverlay,
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMemory:
      return "Memory";
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
};

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
        // An ssc1 base: the overlay loads it once through LoadSetSystem.
        auto overlay =
            std::make_unique<OverlaySetStream>(text_path_, delta_path_);
        EXPECT_TRUE(overlay->status().ok()) << overlay->status().ToString();
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

TEST_P(StreamShardingTest, BufferedPassViewsStayValidAndShardIdentically) {
  const SetSystem& expected = Expected();
  const std::size_t m = expected.num_sets();

  // Two drained passes: the second BeginPass() may reuse whatever the
  // first pass's views pointed at, so read back only the current pass's
  // views — after the whole pass has been pulled.
  Built drained = Build();
  ASSERT_EQ(drained.stream->num_sets(), m);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    ArenaVector<StreamItem> items;
    DrainPassInto(*drained.stream, items);
    ASSERT_EQ(items.size(), m);
    std::vector<bool> seen(m, false);
    for (const StreamItem& item : items) {
      ASSERT_LT(item.id, m);
      EXPECT_FALSE(seen[item.id]) << "id " << item.id << " served twice";
      seen[item.id] = true;
      EXPECT_TRUE(item.set == expected.set(item.id)) << "id " << item.id;
    }
  }

  // With an engine bound, every stream kind shards, and the sharded
  // threshold pass reproduces the sequential one over a fresh twin.
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
    ::testing::Values(Kind::kMemory, Kind::kMemoryRandomEachPass,
                      Kind::kMmap, Kind::kMmapView, Kind::kOverlay),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return std::string(KindName(info.param));
    });

}  // namespace
}  // namespace streamsc
