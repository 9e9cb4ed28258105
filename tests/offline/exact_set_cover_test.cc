#include "offline/exact_set_cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "instance/generators.h"
#include "offline/greedy.h"
#include "util/arena.h"
#include "util/math.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(ExactSetCoverTest, TrivialSingleSet) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.feasible && result.complete);
  EXPECT_EQ(result.solution.size(), 1u);
}

TEST(ExactSetCoverTest, EmptyUniverse) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  const ExactSetCoverResult result =
      SolveExactSetCover(system, DynamicBitset(4));
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.feasible && result.complete);
  EXPECT_TRUE(result.solution.empty());
}

TEST(ExactSetCoverTest, InfeasibleInstance) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.complete);
}

TEST(ExactSetCoverTest, BeatsGreedyOnAdversarialInstance) {
  // Classic greedy-trap: greedy takes the big middle set, optimum is the
  // two halves.
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3});       // optimal half
  system.AddSetFromIndices({4, 5, 6, 7});       // optimal half
  system.AddSetFromIndices({1, 2, 3, 4, 5});    // greedy bait (size 5)
  const Solution greedy = GreedySetCover(system);
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  ASSERT_TRUE(exact.feasible);
  EXPECT_TRUE(exact.feasible && exact.complete);
  EXPECT_EQ(exact.solution.size(), 2u);
  EXPECT_EQ(greedy.size(), 3u);  // greedy really does fall for it
}

TEST(ExactSetCoverTest, MatchesPlantedOptimum) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system =
        PlantedCoverInstance(60, 15, 3 + trial % 3, rng, &planted);
    const ExactSetCoverResult result = SolveExactSetCover(system);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.feasible && result.complete);
    EXPECT_EQ(result.solution.size(), planted.size());
  }
}

TEST(ExactSetCoverTest, SizeLimitTurnsIntoDecisionProcedure) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  // opt = 3; ask for <= 2.
  ExactSetCoverOptions options;
  options.size_limit = 2;
  const ExactSetCoverResult no = SolveExactSetCover(system, options);
  EXPECT_FALSE(no.feasible);
  EXPECT_TRUE(no.complete);  // provably no 2-cover
  options.size_limit = 3;
  const ExactSetCoverResult yes = SolveExactSetCover(system, options);
  EXPECT_TRUE(yes.feasible);
  EXPECT_EQ(yes.solution.size(), 3u);
}

TEST(ExactSetCoverTest, SolutionIsAlwaysFeasibleWhenReported) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const SetSystem system = UniformRandomInstance(50, 12, 12, rng);
    const ExactSetCoverResult result = SolveExactSetCover(system);
    if (result.feasible) {
      EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
    }
  }
}

TEST(ExactSetCoverTest, NeverLargerThanGreedy) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const SetSystem system = UniformRandomInstance(40, 10, 8, rng);
    const Solution greedy = GreedySetCover(system);
    const ExactSetCoverResult exact = SolveExactSetCover(system);
    if (exact.feasible && exact.complete && system.IsFeasibleCover(greedy.chosen)) {
      EXPECT_LE(exact.solution.size(), greedy.size());
    }
  }
}

TEST(ExactSetCoverTest, NodeBudgetDegradesGracefully) {
  Rng rng(4);
  const SetSystem system = UniformRandomInstance(80, 25, 10, rng);
  ExactSetCoverOptions options;
  options.max_nodes = 3;  // absurdly small
  const ExactSetCoverResult result = SolveExactSetCover(system, options);
  EXPECT_FALSE(result.complete);
  // Still returns the greedy warm start when feasible.
  if (result.feasible) {
    EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
    EXPECT_FALSE(result.feasible && result.complete);
  }
}

TEST(ExactSetCoverTest, RestrictedUniverse) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3, 4});
  system.AddSetFromIndices({5});
  system.AddSetFromIndices({6, 7});
  DynamicBitset universe(8);
  universe.Set(5);
  const ExactSetCoverResult result = SolveExactSetCover(system, universe);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.size(), 1u);
  EXPECT_EQ(result.solution.chosen[0], 1u);
}

TEST(ExactSetCoverTest, DuplicateSetsDoNotConfuse) {
  SetSystem system(4);
  for (int i = 0; i < 6; ++i) system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.size(), 2u);
}

TEST(ExactSetCoverTest, ReportsNodeCount) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  const ExactSetCoverResult result = SolveExactSetCover(system);
  EXPECT_GE(result.nodes, 1u);
}

// Golden pin of the search order. Each row fixes a uniform instance, a
// size limit and a node budget, and records what the branch-and-bound
// returned when these values were captured: node count, completion,
// feasibility and the chosen ids in order. The 4096/128/512 rows are the
// exact_subsolve family at the size limits assadi's õpt guesses reach;
// most of them run out of budget, so mostly the node count and the greedy
// incumbent show (at limit 39, seeds 11 and 14 improve on greedy's 37
// sets, so their ids follow the search order). The 512/48/64 rows improve
// on greedy (seeds 11 and 14 finish within the budget) and the 256/40/32
// rows finish, so their chosen ids and node counts move with any change
// to branching, candidate order or pruning. A performance change to the
// solver must leave every row as it is.
struct GoldenSearch {
  std::size_t n, m, set_size;
  std::uint64_t seed;
  std::size_t size_limit;
  std::uint64_t max_nodes;
  std::uint64_t nodes;
  bool complete;
  bool feasible;
  std::vector<SetId> chosen;
};

constexpr std::size_t kNoLimit = ~std::size_t{0};

const std::vector<GoldenSearch>& GoldenSearches() {
  static const std::vector<GoldenSearch> rows = {
      {4096, 128, 512, 11, 8, 2000, 11, true, false, {}},
      {4096, 128, 512, 11, 12, 2000, 2001, false, false, {}},
      {4096, 128, 512, 11, 18, 2000, 2001, false, false, {}},
      {4096, 128, 512, 11, 26, 2000, 2001, false, false, {}},
      {4096, 128, 512, 11, 39, 2000, 2001, false, true,
       {10, 4, 24, 1, 33, 75, 119, 91, 113, 28, 124, 97, 22, 15, 108, 65, 66,
        83, 17, 5, 52, 77, 7, 27, 105, 11, 70, 39, 73, 67, 44, 85, 104, 0, 38,
        125}},
      {4096, 128, 512, 12, 8, 2000, 6, true, false, {}},
      {4096, 128, 512, 12, 12, 2000, 2001, false, false, {}},
      {4096, 128, 512, 12, 18, 2000, 2001, false, false, {}},
      {4096, 128, 512, 12, 26, 2000, 2001, false, false, {}},
      {4096, 128, 512, 12, 39, 2000, 2001, false, true,
       {0,  41, 100, 72, 43, 22, 91, 38,  122, 14, 112, 119,
        114, 117, 19, 50, 56, 10, 7,  18, 27, 65,  81, 8,
        32, 20, 51, 84, 75, 61, 82, 103, 6,  34, 67}},
      {4096, 128, 512, 13, 8, 2000, 7, true, false, {}},
      {4096, 128, 512, 13, 12, 2000, 2001, false, false, {}},
      {4096, 128, 512, 13, 18, 2000, 2001, false, false, {}},
      {4096, 128, 512, 13, 26, 2000, 2001, false, false, {}},
      {4096, 128, 512, 13, 39, 2000, 2001, false, true,
       {0,  18, 53, 92, 123, 4,  119, 60, 29, 81, 11, 63,
        87, 100, 111, 83, 78, 115, 2,  17, 44, 82, 89, 21,
        39, 64, 28, 38, 40, 73, 19, 59, 62, 102, 67}},
      {4096, 128, 512, 14, 8, 2000, 10, true, false, {}},
      {4096, 128, 512, 14, 12, 2000, 2001, false, false, {}},
      {4096, 128, 512, 14, 18, 2000, 2001, false, false, {}},
      {4096, 128, 512, 14, 26, 2000, 2001, false, false, {}},
      {4096, 128, 512, 14, 39, 2000, 2001, false, true,
       {9,  57, 76,  116, 42, 65, 5,   86,  112, 15, 111, 36,
        100, 4, 102, 119, 81, 48, 110, 126, 107, 90, 104, 28,
        113, 25, 43, 93, 121, 68, 39, 18, 44, 50, 66}},
      {512, 48, 64, 11, kNoLimit, 20000, 9816, true, true,
       {11, 5, 43, 13, 23, 35, 30, 47, 39, 24, 2, 40, 29, 19, 20, 14, 15, 9, 41,
        31, 44, 0, 16, 10}},
      {512, 48, 64, 12, kNoLimit, 20000, 20001, false, true,
       {7, 6, 15, 5, 14, 32, 25, 44, 29, 17, 13, 42, 38, 48, 16, 28, 41, 8, 19,
        24, 45, 46, 20, 21, 36}},
      {512, 48, 64, 13, kNoLimit, 20000, 20001, false, true,
       {4, 39, 20, 46, 42, 41, 43, 15, 27, 48, 5, 8, 28, 37, 24, 2, 31, 6, 13,
        25, 44, 45, 7, 14, 47}},
      {512, 48, 64, 14, kNoLimit, 20000, 2243, true, true,
       {29, 24, 15, 8, 45, 43, 30, 23, 48, 5, 46, 13, 32, 10, 26, 16, 35, 18, 9,
        0, 39, 7, 11, 40, 22, 19, 1}},
      {256, 40, 32, 11, kNoLimit, 20000, 2143, true, true,
       {40, 0, 4, 10, 34, 36, 21, 8, 31, 1, 22, 3, 20, 12, 6, 37, 29, 24, 26,
        18}},
      {256, 40, 32, 12, kNoLimit, 20000, 3203, true, true,
       {18, 40, 36, 37, 12, 20, 10, 17, 30, 13, 5, 31, 35, 22, 38, 15, 4, 34,
        25, 39}},
      {256, 40, 32, 13, kNoLimit, 20000, 1392, true, true,
       {14, 27, 15, 40, 32, 19, 2, 4, 24, 30, 26, 3, 28, 21, 10, 5, 23, 9, 38,
        0}},
      {256, 40, 32, 14, kNoLimit, 20000, 233, true, true,
       {4, 30, 25, 38, 32, 16, 34, 17, 31, 19, 18, 12, 7, 28, 15, 11, 37, 39,
        24, 8}},
      // Sparse rows: the sets have fewer than n/32 members, so all of them
      // but the patch set that makes an instance feasible store as
      // SparseSpans, and each gain is counted by membership probes.
      // The 4096/128/64 rows die within a few nodes on the counting bound;
      // the limit-39 rows below them search the whole budget without an
      // incumbent (or, at 512/160/15, finish), and the unlimited rows
      // search from the greedy incumbent.
      {4096, 128, 64, 11, 8, 2000, 2, true, false, {}},
      {4096, 128, 64, 11, 12, 2000, 2, true, false, {}},
      {4096, 128, 64, 11, 39, 2000, 2, true, false, {}},
      {4096, 128, 64, 12, 8, 2000, 2, true, false, {}},
      {4096, 128, 64, 12, 12, 2000, 4, true, false, {}},
      {4096, 128, 64, 12, 39, 2000, 4, true, false, {}},
      {2048, 256, 60, 11, 39, 2000, 2001, false, false, {}},
      {2048, 256, 60, 11, kNoLimit, 2000, 2001, false, true,
       {0, 9, 38, 20, 24, 33, 35, 152, 71, 214, 6, 91, 92, 134, 254, 183, 98,
        94, 246, 109, 59, 138, 65, 69, 77, 123, 102, 96, 249, 101, 197, 25, 66,
        215, 72, 165, 186, 224, 16, 126, 122, 128, 219, 30, 130, 177, 80, 118,
        144, 145, 125, 232, 238, 29, 43, 63, 141, 160, 15, 40, 47, 31, 41, 105,
        137, 146, 217, 3, 10, 62, 188, 17, 23, 136, 157, 208, 253, 56, 153, 251,
        2, 53, 83, 124, 159, 171, 192, 216, 12, 115, 151, 155, 169, 187, 189,
        209, 7, 13, 19, 26, 67, 88, 99, 174, 175, 195, 199}},
      {1024, 256, 30, 12, 39, 2000, 2001, false, false, {}},
      {1024, 256, 30, 12, kNoLimit, 2000, 2001, false, true,
       {92, 39, 7, 192, 31, 145, 45, 27, 154, 256, 65, 190, 52, 70, 105, 158,
        167, 103, 149, 104, 33, 148, 243, 29, 57, 37, 173, 150, 48, 80, 79, 246,
        172, 71, 241, 114, 222, 117, 16, 152, 209, 60, 198, 66, 234, 111, 83,
        178, 176, 175, 24, 58, 171, 40, 13, 87, 141, 91, 53, 95, 9, 237, 191,
        118, 253, 3, 98, 161, 255, 56, 211, 23, 77, 195, 213, 100, 133, 8, 217,
        223, 86, 2, 200, 137, 63, 112, 181, 123, 231, 12}},
      {512, 160, 15, 11, 39, 20000, 3068, true, false, {}},
      {512, 160, 15, 12, kNoLimit, 20000, 20001, false, true,
       {106, 38, 10, 24, 36, 0, 114, 6, 5, 2, 133, 26, 61, 144, 132, 145, 57,
        52, 32, 23, 76, 13, 123, 141, 122, 17, 8, 88, 42, 102, 40, 68, 116, 20,
        59, 67, 81, 160, 138, 47, 154, 119, 48, 91, 155, 97, 75, 110, 127, 109,
        72, 86, 39, 103, 56, 51, 3, 11, 115, 58, 99, 156, 147, 62, 4, 15, 125,
        104, 100, 151, 31, 41}},
  };
  return rows;
}

TEST(ExactSetCoverTest, GoldenSearchOrderIsPinned) {
  for (const GoldenSearch& row : GoldenSearches()) {
    SCOPED_TRACE("n=" + std::to_string(row.n) + " m=" + std::to_string(row.m) +
                 " seed=" + std::to_string(row.seed) +
                 " limit=" + std::to_string(row.size_limit));
    Rng rng(row.seed);
    const SetSystem system =
        UniformRandomInstance(row.n, row.m, row.set_size, rng);
    ExactSetCoverOptions options;
    options.max_nodes = row.max_nodes;
    options.size_limit = row.size_limit;
    const ExactSetCoverResult result = SolveExactSetCover(system, options);
    EXPECT_EQ(result.nodes, row.nodes);
    EXPECT_EQ(result.complete, row.complete);
    EXPECT_EQ(result.feasible, row.feasible);
    EXPECT_EQ(std::vector<SetId>(result.solution.chosen.begin(),
                                 result.solution.chosen.end()),
              row.chosen);
  }
}

// The branch-and-bound as a full sweep: every node counts the gain of
// every live set, then applies the same counting bound, branching rule and
// candidate order as the solver. A node's candidate is excluded from its
// later siblings' subtrees once its own subtree returns, and the branching
// rule ranks elements by the number of live sets covering them. The solver
// counts only the gains that can change a decision, so it must expand
// exactly the same nodes.
class FullSweepSearch {
 public:
  FullSweepSearch(const SetSystem& system, const ExactSetCoverOptions& options)
      : system_(system), options_(options) {
    const Solution greedy =
        GreedySetCover(system, DynamicBitset::Full(system.universe_size()));
    if (system.IsFeasibleCover(greedy.chosen) &&
        greedy.chosen.size() <= options.size_limit) {
      best_.assign(greedy.chosen.begin(), greedy.chosen.end());
      best_feasible_ = true;
    }
    Search(DynamicBitset::Full(system.universe_size()),
           std::vector<bool>(system.num_sets(), false));
  }

  std::uint64_t nodes() const { return nodes_; }
  bool complete() const { return !exhausted_; }
  bool feasible() const { return best_feasible_; }
  const std::vector<SetId>& best() const { return best_; }

 private:
  void Search(const DynamicBitset& uncovered, std::vector<bool> excluded) {
    if (exhausted_) return;
    if (++nodes_ > options_.max_nodes) {
      exhausted_ = true;
      return;
    }
    if (uncovered.None()) {
      if (!best_feasible_ || current_.size() < best_.size()) {
        best_ = current_;
        best_feasible_ = true;
      }
      return;
    }
    const std::size_t budget =
        std::min(options_.size_limit,
                 best_feasible_ ? best_.size() - 1 : ~std::size_t{0});
    if (current_.size() >= budget) return;

    const std::size_t m = system_.num_sets();
    std::vector<Count> gains(m);
    Count max_gain = 0;
    for (SetId i = 0; i < m; ++i) {
      gains[i] = excluded[i] ? 0 : system_.set(i).CountAnd(uncovered);
      max_gain = std::max(max_gain, gains[i]);
    }
    if (max_gain == 0) return;
    if (current_.size() + CeilDiv(uncovered.CountSet(), max_gain) > budget) {
      return;
    }

    // The first element of least live degree among the first 64 uncovered.
    ElementId e = kInvalidElementId;
    std::size_t degree = ~std::size_t{0};
    std::size_t scanned = 0;
    for (ElementId x = uncovered.FindFirst();
         x != kInvalidElementId && scanned < 64 && degree > 1;
         x = uncovered.FindNext(x), ++scanned) {
      std::size_t live = 0;
      for (SetId i = 0; i < m; ++i) {
        live += !excluded[i] && system_.set(i).Test(x) ? 1 : 0;
      }
      if (live < degree) {
        degree = live;
        e = x;
      }
    }
    if (degree == 0) return;

    std::vector<std::pair<Count, SetId>> candidates;
    for (SetId i = 0; i < m; ++i) {
      if (!excluded[i] && system_.set(i).Test(e)) {
        candidates.emplace_back(gains[i], i);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    for (const auto& candidate : candidates) {
      if (exhausted_) return;
      current_.push_back(candidate.second);
      DynamicBitset next = uncovered;
      system_.set(candidate.second).AndNotInto(next);
      Search(next, excluded);
      current_.pop_back();
      excluded[candidate.second] = true;
    }
  }

  const SetSystem& system_;
  ExactSetCoverOptions options_;
  std::vector<SetId> current_;
  std::vector<SetId> best_;
  bool best_feasible_ = false;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

TEST(ExactSetCoverTest, MatchesFullSweepSearch) {
  // Dense and sparse uniform instances, with and without a size limit, at
  // budgets from a few nodes to a complete search. The small 60/30/6
  // shape runs more seeds: its searches complete and reach candidates
  // whose gains fall below the bound's cut, where an inexact gain would
  // reorder the branches.
  struct Shape {
    std::size_t n, m, set_size;
    std::uint64_t seeds;
  };
  const Shape shapes[] = {{96, 24, 16, 4},
                          {200, 40, 30, 4},
                          {512, 96, 12, 4},
                          {320, 64, 8, 4},
                          {60, 30, 6, 32}};
  std::size_t runs = 0;
  std::size_t complete = 0;
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= shape.seeds; ++seed) {
      Rng rng(seed);
      const SetSystem system =
          UniformRandomInstance(shape.n, shape.m, shape.set_size, rng);
      for (const std::size_t limit : {std::size_t{6}, std::size_t{12},
                                      std::size_t{24}, kNoLimit}) {
        for (const std::uint64_t budget : {20, 300, 3000}) {
          SCOPED_TRACE("n=" + std::to_string(shape.n) +
                       " m=" + std::to_string(shape.m) +
                       " seed=" + std::to_string(seed) +
                       " limit=" + std::to_string(limit) +
                       " budget=" + std::to_string(budget));
          ExactSetCoverOptions options;
          options.max_nodes = budget;
          options.size_limit = limit;
          const FullSweepSearch expected(system, options);
          const ExactSetCoverResult result =
              SolveExactSetCover(system, options);
          EXPECT_EQ(result.nodes, expected.nodes());
          EXPECT_EQ(result.complete, expected.complete());
          EXPECT_EQ(result.feasible, expected.feasible());
          EXPECT_EQ(std::vector<SetId>(result.solution.chosen.begin(),
                                       result.solution.chosen.end()),
                    expected.best());
          ++runs;
          complete += expected.complete() ? 1 : 0;
        }
      }
    }
  }
  // Both outcomes of the budget must occur.
  EXPECT_GT(complete, 0u);
  EXPECT_LT(complete, runs);
}

// A search's memory is bounded by the instance and its depth, never by
// how many nodes it expands, so the call's peak on the table arena is the
// same at a node budget 100 times larger. Limit 18 on this E7-shape
// instance is refuted within neither budget, so both searches run until
// the budget stops them.
TEST(ExactSetCoverTest, TableArenaPeakDoesNotGrowWithTheNodeBudget) {
  Rng rng(11);
  const SetSystem system = UniformRandomInstance(4096, 128, 512, rng);
  std::size_t peaks[2] = {0, 0};
  const std::uint64_t budgets[2] = {2'000, 200'000};
  for (int k = 0; k < 2; ++k) {
    ExactSetCoverOptions options;
    options.max_nodes = budgets[k];
    options.size_limit = 18;
    ThreadTableArena().ResetHighWater();
    const ExactSetCoverResult result = SolveExactSetCover(system, options);
    peaks[k] = ThreadTableArena().high_water();
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.nodes, budgets[k] + 1);
  }
  EXPECT_GT(peaks[0], 0u);
  EXPECT_EQ(peaks[0], peaks[1]);
}

// On this E7-shape instance no set has more than 512 of the 4096
// elements, so the root's counting bound refutes limit 7 (a cut of 586)
// but not limit 8 (a cut of 512). A refuted call answers at its first
// node, and builds no search state on the table arena to do so. Node
// budget 0 and size limit 0 keep their answers: the first stops the
// search before the bound is read, after the greedy warm start, and the
// second leaves the root no slack.
TEST(ExactSetCoverTest, RootRefutedLimitBuildsNothing) {
  Rng rng(11);
  const SetSystem system = UniformRandomInstance(4096, 128, 512, rng);
  const auto solve = [&](std::size_t size_limit, std::uint64_t max_nodes) {
    ExactSetCoverOptions options;
    options.size_limit = size_limit;
    options.max_nodes = max_nodes;
    ThreadTableArena().ResetHighWater();
    return SolveExactSetCover(system, options);
  };
  ASSERT_EQ(ThreadTableArena().bytes_used(), 0u);

  for (const std::size_t limit : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    const ExactSetCoverResult refuted = solve(limit, 2000);
    EXPECT_EQ(ThreadTableArena().high_water(), 0u);
    EXPECT_EQ(refuted.nodes, 1u);
    EXPECT_TRUE(refuted.complete);
    EXPECT_FALSE(refuted.feasible);
    EXPECT_FALSE(refuted.feasible && refuted.complete);
    EXPECT_TRUE(refuted.solution.chosen.empty());

    const ExactSetCoverResult stopped = solve(limit, 0);
    EXPECT_EQ(stopped.nodes, 1u);
    EXPECT_FALSE(stopped.complete);
    EXPECT_FALSE(stopped.feasible);
    EXPECT_TRUE(stopped.solution.chosen.empty());
  }

  // Limit 8 survives the root, so the search state is built.
  const ExactSetCoverResult searched = solve(8, 2000);
  EXPECT_GT(ThreadTableArena().high_water(), 0u);
  EXPECT_EQ(searched.nodes, 11u);
  EXPECT_TRUE(searched.complete);
  EXPECT_FALSE(searched.feasible);

  // Without a limit, node budget 0 returns the greedy cover unproven.
  const Solution greedy = GreedySetCover(system);
  const ExactSetCoverResult unproven = solve(kNoLimit, 0);
  EXPECT_EQ(unproven.nodes, 1u);
  EXPECT_FALSE(unproven.complete);
  EXPECT_TRUE(unproven.feasible);
  EXPECT_FALSE(unproven.feasible && unproven.complete);
  EXPECT_EQ(std::vector<SetId>(unproven.solution.chosen.begin(),
                               unproven.solution.chosen.end()),
            std::vector<SetId>(greedy.chosen.begin(), greedy.chosen.end()));
}

// The search reads a set only through its SetView, so storing every set
// densely (threshold 0.0) or sparsely (threshold 1.1) must not change
// it: the same nodes, completion and chosen ids at a limit the root
// refutes, at the size of the best cover the unlimited search finds, and
// with no limit, from a one-node budget to one that finishes the small
// shapes.
TEST(ExactSetCoverTest, DenseAndSparseStorageSearchAlike) {
  struct Shape {
    std::size_t n, m, set_size;
  };
  const Shape shapes[] = {{60, 30, 6}, {200, 40, 30}, {512, 96, 12},
                          {4096, 128, 512}};
  std::size_t refuted = 0;
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      const SetSystem system =
          UniformRandomInstance(shape.n, shape.m, shape.set_size, rng);
      SetSystem dense(system.universe_size(), 0.0);
      SetSystem sparse(system.universe_size(), 1.1);
      Count largest = 0;
      for (SetId i = 0; i < system.num_sets(); ++i) {
        dense.AddSetFromView(system.set(i));
        sparse.AddSetFromView(system.set(i));
        ASSERT_FALSE(dense.IsSparse(i));
        ASSERT_TRUE(sparse.IsSparse(i));
        largest = std::max(largest, system.set(i).CountSet());
      }
      ExactSetCoverOptions unlimited;
      unlimited.max_nodes = 2000;
      const std::size_t best =
          SolveExactSetCover(system, unlimited).solution.size();
      const std::size_t refuting = CeilDiv(shape.n, largest) - 1;
      for (const std::size_t limit : {refuting, best, kNoLimit}) {
        for (const std::uint64_t budget : {1, 50, 2000}) {
          SCOPED_TRACE("n=" + std::to_string(shape.n) +
                       " m=" + std::to_string(shape.m) +
                       " seed=" + std::to_string(seed) +
                       " limit=" + std::to_string(limit) +
                       " budget=" + std::to_string(budget));
          ExactSetCoverOptions options;
          options.max_nodes = budget;
          options.size_limit = limit;
          const ExactSetCoverResult d = SolveExactSetCover(dense, options);
          const ExactSetCoverResult s = SolveExactSetCover(sparse, options);
          EXPECT_EQ(d.nodes, s.nodes);
          EXPECT_EQ(d.complete, s.complete);
          EXPECT_EQ(d.feasible, s.feasible);
          EXPECT_EQ(std::vector<SetId>(d.solution.chosen.begin(),
                                       d.solution.chosen.end()),
                    std::vector<SetId>(s.solution.chosen.begin(),
                                       s.solution.chosen.end()));
          refuted += limit == refuting && d.nodes == 1 && d.complete ? 1 : 0;
        }
      }
    }
  }
  // Every refuting limit is refuted at the root, at every budget.
  EXPECT_EQ(refuted, std::size(shapes) * 3 * 3);
}

// Whenever the search reports no cover, greedy on the same system and
// universe has none within the limit either: the search starts from the
// greedy cover as its incumbent whenever that cover fits the limit. This
// is why a budget-stopped sub-solve of the sampling solvers fails its
// guess without running greedy again.
TEST(ExactSetCoverTest, InfeasibleMeansGreedyMissesTheLimitToo) {
  std::size_t infeasible = 0;
  std::size_t budget_stopped = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const SetSystem system = UniformRandomInstance(
        32 + 4 * (seed % 8), 16 + seed % 24, 3 + seed % 10, rng);
    const DynamicBitset universe =
        DynamicBitset::Full(system.universe_size());
    const Solution greedy = GreedySetCover(system, universe);
    const bool greedy_covers = system.IsFeasibleCover(greedy.chosen);
    for (const std::uint64_t budget : {1, 5, 50, 2000}) {
      for (std::size_t limit = 1; limit <= 32; ++limit) {
        ExactSetCoverOptions options;
        options.max_nodes = budget;
        options.size_limit = limit;
        const ExactSetCoverResult result =
            SolveExactSetCover(system, universe, options);
        if (result.feasible) continue;
        ++infeasible;
        if (!result.complete) ++budget_stopped;
        EXPECT_TRUE(!greedy_covers || greedy.size() > limit)
            << "seed=" << seed << " budget=" << budget << " limit=" << limit
            << " greedy size=" << greedy.size();
      }
    }
  }
  // The sweep must reach both infeasible outcomes it argues about.
  EXPECT_GT(infeasible, budget_stopped);
  EXPECT_GT(budget_stopped, 0u);
}

// Exhaustive cross-check against brute force on random tiny instances.
class ExactSetCoverBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactSetCoverBruteForceTest, MatchesBruteForce) {
  Rng rng(100 + GetParam());
  const std::size_t n = 10, m = 7;
  SetSystem system(n);
  for (std::size_t i = 0; i < m; ++i) {
    system.AddSet(rng.BernoulliSubset(n, 0.35));
  }
  // Brute force over all 2^m subsets.
  std::size_t best = m + 1;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    DynamicBitset u(n);
    std::size_t size = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) {
        system.set(i).OrInto(u);
        ++size;
      }
    }
    if (u.All()) best = std::min(best, size);
  }
  const ExactSetCoverResult result = SolveExactSetCover(system);
  if (best == m + 1) {
    EXPECT_FALSE(result.feasible);
  } else {
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.feasible && result.complete);
    EXPECT_EQ(result.solution.size(), best);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExactSetCoverBruteForceTest,
                         ::testing::Range(0, 20));

// Size of a smallest collection of the system's sets whose union contains
// \p universe, by enumeration of all subsets; num_sets() + 1 if none does.
std::size_t BruteForceMinimum(const SetSystem& system,
                              const DynamicBitset& universe) {
  const std::size_t m = system.num_sets();
  std::size_t best = m + 1;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    const std::size_t size = static_cast<std::size_t>(std::popcount(mask));
    if (size >= best) continue;
    DynamicBitset u(system.universe_size());
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) system.set(i).OrInto(u);
    }
    if (universe.IsSubsetOf(u)) best = size;
  }
  return best;
}

// A family of tiny instances (at most 12 sets) and the universe to cover.
struct DecisionFamily {
  const char* name;
  SetSystem (*make)(Rng& rng, DynamicBitset& universe);
};

void PrintTo(const DecisionFamily& family, std::ostream* os) {
  *os << family.name;
}

// The system of \p sets in a random order, so copies and chains do not
// sit at neighbouring ids.
SetSystem AddShuffled(std::size_t n, std::vector<DynamicBitset> sets,
                      Rng& rng) {
  rng.Shuffle(sets);
  SetSystem system(n);
  for (DynamicBitset& set : sets) system.AddSet(std::move(set));
  return system;
}

SetSystem MakeRandom(Rng& rng, DynamicBitset& universe) {
  SetSystem system(10);
  for (int i = 0; i < 9; ++i) system.AddSet(rng.BernoulliSubset(10, 0.35));
  universe = DynamicBitset::Full(10);
  return system;
}

// Sparse sets: many instances have no cover at all, and the element that
// shows it may lie outside the branching rule's first choice.
SetSystem MakeSparse(Rng& rng, DynamicBitset& universe) {
  SetSystem system(10);
  for (int i = 0; i < 11; ++i) system.AddSet(rng.BernoulliSubset(10, 0.22));
  universe = DynamicBitset::Full(10);
  return system;
}

// Four distinct sets, each present one to three times: a later copy must
// still be a candidate after its twin's subtree has excluded the twin.
SetSystem MakeDuplicates(Rng& rng, DynamicBitset& universe) {
  std::vector<DynamicBitset> sets;
  for (int i = 0; i < 4; ++i) {
    const DynamicBitset set = rng.BernoulliSubset(10, 0.4);
    const std::uint64_t copies = 1 + rng.UniformInt(3);
    for (std::uint64_t c = 0; c < copies; ++c) sets.push_back(set);
  }
  universe = DynamicBitset::Full(10);
  return AddShuffled(10, std::move(sets), rng);
}

// Three chains of nested sets: a subset's gain falls to zero once its
// superset is taken, the same reading an excluded set has.
SetSystem MakeNested(Rng& rng, DynamicBitset& universe) {
  std::vector<DynamicBitset> sets;
  for (int chain = 0; chain < 3; ++chain) {
    DynamicBitset set = rng.BernoulliSubset(10, 0.55);
    for (int link = 0; link < 3; ++link) {
      sets.push_back(set);
      set = rng.BernoulliSubsample(set, 0.7);
    }
  }
  universe = DynamicBitset::Full(10);
  return AddShuffled(10, std::move(sets), rng);
}

// Every element's singleton plus three larger blocks: every instance has
// a cover, and a minimum one mixes blocks with the singletons they miss.
SetSystem MakeSingletonsAndBlocks(Rng& rng, DynamicBitset& universe) {
  std::vector<DynamicBitset> sets;
  for (ElementId e = 0; e < 8; ++e) {
    DynamicBitset singleton(8);
    singleton.Set(e);
    sets.push_back(std::move(singleton));
  }
  for (int i = 0; i < 3; ++i) {
    sets.push_back(rng.RandomSubsetOfSize(8, 3 + rng.UniformInt(3)));
  }
  universe = DynamicBitset::Full(8);
  return AddShuffled(8, std::move(sets), rng);
}

// Random sets against a random part of the universe, possibly empty.
SetSystem MakeRestrictedUniverse(Rng& rng, DynamicBitset& universe) {
  SetSystem system(10);
  for (int i = 0; i < 9; ++i) system.AddSet(rng.BernoulliSubset(10, 0.3));
  universe = rng.BernoulliSubset(10, 0.6);
  return system;
}

class ExactSetCoverDecisionTest
    : public ::testing::TestWithParam<DecisionFamily> {};

// At every size limit the complete search answers the decision question
// exactly: it returns a cover iff one of at most `limit` sets exists, and
// then one of minimum size. Excluding a candidate from its later siblings'
// subtrees must never hide a cover that no other order reaches, and the
// branching rule must not give up on an element while a live set still
// covers it.
TEST_P(ExactSetCoverDecisionTest, MatchesBruteForceAtEveryLimit) {
  std::size_t refuted = 0;  // a cover exists, but none within the limit
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    DynamicBitset universe;
    const SetSystem system = GetParam().make(rng, universe);
    const std::size_t m = system.num_sets();
    const std::size_t best = BruteForceMinimum(system, universe);
    const bool coverable = best <= m;
    for (std::size_t limit = 0; limit <= m + 1; ++limit) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " limit=" + std::to_string(limit) + " minimum=" +
                   (coverable ? std::to_string(best) : "none"));
      ExactSetCoverOptions options;
      options.size_limit = limit;
      const ExactSetCoverResult result =
          SolveExactSetCover(system, universe, options);
      ASSERT_TRUE(result.complete);
      ASSERT_EQ(result.feasible, coverable && best <= limit);
      if (!result.feasible) {
        refuted += coverable ? 1 : 0;
        continue;
      }
      ++found;
      EXPECT_TRUE(result.feasible && result.complete);
      const std::vector<SetId> chosen(result.solution.chosen.begin(),
                                      result.solution.chosen.end());
      EXPECT_EQ(chosen.size(), best);
      EXPECT_TRUE(universe.IsSubsetOf(system.UnionOf(chosen)));
      std::vector<SetId> sorted = chosen;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
    }
  }
  // Both answers must occur, and "no" must also be proved for instances
  // that do have a larger cover.
  EXPECT_GT(found, 0u);
  EXPECT_GT(refuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExactSetCoverDecisionTest,
    ::testing::Values(DecisionFamily{"Random", &MakeRandom},
                      DecisionFamily{"Sparse", &MakeSparse},
                      DecisionFamily{"Duplicates", &MakeDuplicates},
                      DecisionFamily{"Nested", &MakeNested},
                      DecisionFamily{"SingletonsAndBlocks",
                                     &MakeSingletonsAndBlocks},
                      DecisionFamily{"RestrictedUniverse",
                                     &MakeRestrictedUniverse}),
    [](const ::testing::TestParamInfo<DecisionFamily>& info) {
      return std::string(info.param.name);
    });

// The minimum does not depend on the order of the sets. Renumbering them
// changes which candidate comes first at a node, and so which sets the
// later siblings' subtrees exclude, but a complete search must still
// reach a minimum cover. These instances are past brute force's reach.
TEST(ExactSetCoverTest, RenumberingTheSetsKeepsTheMinimum) {
  struct Shape {
    std::size_t n, m, set_size;
  };
  const Shape shapes[] = {{60, 30, 6}, {96, 24, 16}, {200, 40, 30}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(shape.n) +
                   " m=" + std::to_string(shape.m) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      const SetSystem system =
          UniformRandomInstance(shape.n, shape.m, shape.set_size, rng);
      const std::vector<std::uint32_t> order =
          rng.RandomPermutation(system.num_sets());
      SetSystem renumbered(system.universe_size());
      for (const std::uint32_t i : order) {
        DynamicBitset set(system.universe_size());
        system.set(i).OrInto(set);
        renumbered.AddSet(std::move(set));
      }
      const ExactSetCoverResult original = SolveExactSetCover(system);
      const ExactSetCoverResult permuted = SolveExactSetCover(renumbered);
      ASSERT_TRUE(original.complete);
      ASSERT_TRUE(permuted.complete);
      ASSERT_EQ(original.feasible, permuted.feasible);
      EXPECT_EQ(original.solution.size(), permuted.solution.size());
      if (permuted.feasible) {
        EXPECT_TRUE(renumbered.IsFeasibleCover(permuted.solution.chosen));
      }
    }
  }
}

// A larger node budget runs the same search further, so the cover it
// returns is never larger; once the budget covers the whole search, more
// budget changes nothing. Every returned cover is valid and takes each
// set at most once.
TEST(ExactSetCoverTest, LargerBudgetNeverReturnsALargerCover) {
  std::size_t completed = 0;
  std::size_t improved = 0;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    const SetSystem system = UniformRandomInstance(512, 48, 64, rng);
    std::size_t previous_size = ~std::size_t{0};
    std::vector<SetId> complete_cover;
    bool reached_complete = false;
    for (const std::uint64_t budget :
         {1, 2, 5, 20, 100, 500, 2000, 10000, 40000}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " budget=" + std::to_string(budget));
      ExactSetCoverOptions options;
      options.max_nodes = budget;
      const ExactSetCoverResult result = SolveExactSetCover(system, options);
      ASSERT_TRUE(result.feasible);
      const std::vector<SetId> chosen(result.solution.chosen.begin(),
                                      result.solution.chosen.end());
      EXPECT_TRUE(system.IsFeasibleCover(chosen));
      std::vector<SetId> sorted = chosen;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
      EXPECT_LE(chosen.size(), previous_size);
      improved += chosen.size() < previous_size && budget > 1 ? 1 : 0;
      previous_size = chosen.size();
      if (reached_complete) {
        EXPECT_TRUE(result.complete);
        EXPECT_EQ(chosen, complete_cover);
      } else if (result.complete) {
        reached_complete = true;
        ++completed;
        complete_cover = chosen;
        EXPECT_LE(result.nodes, budget);
      } else {
        EXPECT_EQ(result.nodes, budget + 1);
      }
    }
  }
  // Some search must improve on the budget-1 cover, and some must finish.
  EXPECT_GT(improved, 0u);
  EXPECT_GT(completed, 0u);
}

}  // namespace
}  // namespace streamsc
