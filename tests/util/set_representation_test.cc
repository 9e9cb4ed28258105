// Pins that every SetView operation answers the same over the four ways a
// set can be held: an owned DynamicBitset, an owned SparseSet, a DenseSpan
// over the bitset's words and a SparseSpan over the sparse ids. Covers the
// word-boundary universe sizes and the empty / sparse / half / full
// densities, plus the representation-dependent consumers: projection onto
// a sample and the sscb1 / sscd1 payload encoders.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "core/sampling.h"
#include "dynamic/delta_log.h"
#include "storage/binary_instance_writer.h"
#include "testing/scoped_temp_dir.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/random.h"
#include "util/set_span.h"
#include "util/set_view.h"
#include "util/sparse_set.h"

namespace streamsc {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 128, 1000};

enum class Density { kEmpty, kOneIn64, kHalf, kFull };
constexpr Density kDensities[] = {Density::kEmpty, Density::kOneIn64,
                                  Density::kHalf, Density::kFull};

const char* DensityName(Density d) {
  switch (d) {
    case Density::kEmpty: return "empty";
    case Density::kOneIn64: return "1/64";
    case Density::kHalf: return "1/2";
    case Density::kFull: return "full";
  }
  return "?";
}

DynamicBitset MakeMembers(std::size_t n, Density density, Rng& rng) {
  switch (density) {
    case Density::kEmpty: return DynamicBitset(n);
    case Density::kOneIn64: {
      // At least one member whenever the universe has room, so the sparse
      // case never degenerates into the empty one.
      DynamicBitset set = rng.BernoulliSubset(n, 1.0 / 64.0);
      if (n > 0 && set.None()) set.Set(n / 2);
      return set;
    }
    case Density::kHalf: return rng.BernoulliSubset(n, 0.5);
    case Density::kFull: return DynamicBitset::Full(n);
  }
  return DynamicBitset(n);
}

std::vector<ElementId> MembersOf(const DynamicBitset& set) {
  std::vector<ElementId> ids;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set.Test(i)) ids.push_back(static_cast<ElementId>(i));
  }
  return ids;
}

std::string Render(const std::vector<ElementId>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ids[i]);
  }
  return out + "}";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The four holders of one set. Members are addressable, so views built
// from them stay valid for the fixture's lifetime.
struct FourWays {
  DynamicBitset dense;
  SparseSet sparse;
  DenseSpan dense_span;
  SparseSpan sparse_span;

  explicit FourWays(const DynamicBitset& members)
      : dense(members),
        sparse(SparseSet::FromBitset(members)),
        dense_span(dense.WordData(), dense.size()),
        sparse_span(sparse.elements().data(), sparse.elements().size(),
                    sparse.size()) {}

  FourWays(const FourWays&) = delete;
  FourWays& operator=(const FourWays&) = delete;

  std::vector<SetView> Views() const {
    return {SetView(dense), SetView(sparse), SetView(dense_span),
            SetView(sparse_span)};
  }
};

// Representation names in Views() order; the first two word-addressable.
constexpr const char* kViewNames[] = {"DynamicBitset", "SparseSet",
                                      "DenseSpan", "SparseSpan"};
bool IsWordRep(std::size_t view) { return view == 0 || view == 2; }

class SetRepresentationTest : public ::testing::Test {
 protected:
  // Runs \p check(n, density, members, four) over the whole grid.
  template <typename Check>
  void ForEachCase(Check&& check) {
    for (const std::size_t n : kSizes) {
      for (const Density density : kDensities) {
        Rng rng(1000 * n + static_cast<std::uint64_t>(density));
        const DynamicBitset members = MakeMembers(n, density, rng);
        const FourWays four(members);
        SCOPED_TRACE("n=" + std::to_string(n) + " density=" +
                     DensityName(density));
        check(n, rng, members, four);
      }
    }
  }
};

TEST_F(SetRepresentationTest, ScalarQueriesAgree) {
  ForEachCase([](std::size_t n, Rng&, const DynamicBitset& members,
                 const FourWays& four) {
    const std::vector<ElementId> ids = MembersOf(members);
    const std::vector<SetView> views = four.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      const SetView view = views[v];
      ASSERT_TRUE(view.valid());
      EXPECT_EQ(view.size(), n);
      EXPECT_EQ(view.CountSet(), ids.size());
      EXPECT_EQ(view.None(), ids.empty());
      EXPECT_EQ(view.All(), ids.size() == n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(view.Test(i), members.Test(i)) << "element " << i;
      }
    }
  });
}

TEST_F(SetRepresentationTest, CountsAgainstAnOtherSetAgree) {
  ForEachCase([](std::size_t n, Rng& rng, const DynamicBitset& members,
                 const FourWays& four) {
    // A random other set, the empty set, the full set and the set itself
    // hit both outcomes of Intersects and IsSubsetOf.
    const std::vector<DynamicBitset> others = {
        rng.BernoulliSubset(n, 0.5), DynamicBitset(n), DynamicBitset::Full(n),
        members};
    for (std::size_t o = 0; o < others.size(); ++o) {
      const DynamicBitset& other = others[o];
      Count both = 0, only = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!members.Test(i)) continue;
        (other.Test(i) ? both : only) += 1;
      }
      const std::vector<SetView> views = four.Views();
      for (std::size_t v = 0; v < views.size(); ++v) {
        SCOPED_TRACE(std::string(kViewNames[v]) + " other#" +
                     std::to_string(o));
        EXPECT_EQ(views[v].CountAnd(other), both);
        EXPECT_EQ(views[v].CountAndNot(other), only);
        EXPECT_EQ(views[v].Intersects(other), both > 0);
        EXPECT_EQ(views[v].IsSubsetOf(other), only == 0);
      }
    }
  });
}

TEST_F(SetRepresentationTest, InPlaceUpdatesAgree) {
  ForEachCase([](std::size_t n, Rng& rng, const DynamicBitset& members,
                 const FourWays& four) {
    const DynamicBitset base = rng.BernoulliSubset(n, 0.5);
    DynamicBitset expected_and_not = base;
    DynamicBitset expected_or = base;
    for (std::size_t i = 0; i < n; ++i) {
      if (!members.Test(i)) continue;
      expected_and_not.Reset(i);
      expected_or.Set(i);
    }
    const std::vector<SetView> views = four.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      DynamicBitset and_not = base;
      views[v].AndNotInto(and_not);
      EXPECT_EQ(and_not, expected_and_not);
      DynamicBitset ored = base;
      views[v].OrInto(ored);
      EXPECT_EQ(ored, expected_or);
    }
  });
}

TEST_F(SetRepresentationTest, MaterializationsAgree) {
  ForEachCase([](std::size_t n, Rng&, const DynamicBitset& members,
                 const FourWays& four) {
    const std::vector<ElementId> ids = MembersOf(members);
    MonotonicArena arena;
    const std::vector<SetView> views = four.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      const SetView view = views[v];
      EXPECT_EQ(view.ToDense(), members);
      const DynamicBitset homed =
          view.ToDense(DynamicBitset::Allocator(&arena));
      EXPECT_EQ(homed, members);
      const SparseSet sparse = view.ToSparse(SparseSet::Allocator(&arena));
      EXPECT_EQ(sparse.size(), n);
      EXPECT_EQ(std::vector<ElementId>(sparse.elements().begin(),
                                       sparse.elements().end()),
                ids);
      EXPECT_EQ(view.ToIndices(), ids);
      std::vector<ElementId> visited;
      view.ForEach([&visited](ElementId e) { visited.push_back(e); });
      EXPECT_EQ(visited, ids);
      std::vector<ElementId> appended;
      view.AppendIndicesInto(appended);
      EXPECT_EQ(appended, ids);
      EXPECT_EQ(view.ToString(), Render(ids));
    }
  });
}

TEST_F(SetRepresentationTest, ByteSizeIsTheHeldRepresentations) {
  ForEachCase([](std::size_t n, Rng&, const DynamicBitset& members,
                 const FourWays& four) {
    const Bytes word_bytes = (n + 63) / 64 * sizeof(std::uint64_t);
    const Bytes id_bytes = members.CountSet() * sizeof(ElementId);
    const std::vector<SetView> views = four.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      EXPECT_EQ(views[v].ByteSize(), IsWordRep(v) ? word_bytes : id_bytes);
    }
  });
}

TEST_F(SetRepresentationTest, EqualityHoldsOverAllSixteenPairs) {
  ForEachCase([](std::size_t n, Rng&, const DynamicBitset& members,
                 const FourWays& four) {
    // A set one element away, and the same members over a larger
    // universe: both must compare unequal from every representation.
    DynamicBitset toggled = members;
    if (n > 0) {
      if (toggled.Test(n - 1)) {
        toggled.Reset(n - 1);
      } else {
        toggled.Set(n - 1);
      }
    }
    DynamicBitset wider(n + 1);
    members.ForEach([&wider](ElementId e) { wider.Set(e); });
    const FourWays near(toggled);
    const FourWays far(wider);

    const std::vector<SetView> views = four.Views();
    const std::vector<SetView> near_views = near.Views();
    const std::vector<SetView> far_views = far.Views();
    for (std::size_t a = 0; a < views.size(); ++a) {
      for (std::size_t b = 0; b < views.size(); ++b) {
        SCOPED_TRACE(std::string(kViewNames[a]) + " vs " + kViewNames[b]);
        EXPECT_TRUE(views[a] == views[b]);
        EXPECT_EQ(views[a] == near_views[b], n == 0);
        EXPECT_FALSE(views[a] == far_views[b]);
      }
      EXPECT_FALSE(views[a] == SetView());
      EXPECT_FALSE(SetView() == views[a]);
    }
    EXPECT_TRUE(SetView() == SetView());
  });
}

TEST_F(SetRepresentationTest, ProjectionsAgree) {
  ForEachCase([](std::size_t n, Rng& rng, const DynamicBitset& members,
                 const FourWays& four) {
    const DynamicBitset sampled = rng.BernoulliSubset(n, 0.3);
    const SubUniverse sub(sampled);
    // Reference projection: sampled member e maps to its rank among the
    // sampled elements.
    DynamicBitset expected(sampled.CountSet());
    std::size_t rank = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!sampled.Test(i)) continue;
      if (members.Test(i)) expected.Set(rank);
      ++rank;
    }
    MonotonicArena arena;
    const std::vector<SetView> views = four.Views();
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      EXPECT_EQ(sub.Project(views[v]), expected);
      const ProjectedSet adaptive = sub.ProjectAdaptive(
          views[v], ArenaAllocator<ElementId>(&arena));
      // ProjectAdaptive keeps the source's representation.
      EXPECT_EQ(std::holds_alternative<DynamicBitset>(adaptive),
                IsWordRep(v));
      EXPECT_TRUE(ViewOf(adaptive) == SetView(expected));
      EXPECT_EQ(ViewOf(adaptive).ByteSize(),
                IsWordRep(v) ? expected.ByteSize()
                             : expected.CountSet() * sizeof(ElementId));
    }
  });
}

TEST_F(SetRepresentationTest, PayloadBytesAgree) {
  testing::ScopedTempDir dir;
  ASSERT_TRUE(dir.ok());
  ForEachCase([&dir](std::size_t n, Rng&, const DynamicBitset&,
                     const FourWays& four) {
    const std::vector<SetView> views = four.Views();
    std::vector<std::string> sscb1, sscd1;
    for (std::size_t v = 0; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      const std::string binary = dir.FilePath("set.sscb1");
      BinaryInstanceWriter writer(binary, n, 1);
      ASSERT_TRUE(writer.AddSet(views[v]).ok());
      ASSERT_TRUE(writer.Finish().ok());
      sscb1.push_back(ReadFile(binary));

      const std::string delta = dir.FilePath("set.sscd1");
      DeltaLogWriter log(delta, n, 0);
      ASSERT_TRUE(log.AddSet(views[v]).ok());
      ASSERT_TRUE(log.ReplaceSet(0, views[v]).ok());
      ASSERT_TRUE(log.Finish().ok());
      sscd1.push_back(ReadFile(delta));
    }
    for (std::size_t v = 1; v < views.size(); ++v) {
      SCOPED_TRACE(kViewNames[v]);
      EXPECT_EQ(sscb1[v], sscb1[0]);
      EXPECT_EQ(sscd1[v], sscd1[0]);
    }
  });
}

}  // namespace
}  // namespace streamsc
