#include "core/sampling.h"

#include <gtest/gtest.h>

#include <limits>

#include "instance/generators.h"
#include "offline/exact_set_cover.h"
#include "util/math.h"
#include "util/sparse_set.h"

namespace streamsc {
namespace {

TEST(SubUniverseTest, ProjectsOntoTheSample) {
  DynamicBitset sampled(10);
  sampled.Set(2);
  sampled.Set(5);
  sampled.Set(9);
  SubUniverse sub(sampled);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.full_size(), 10u);
  EXPECT_EQ(sub.ToFull(0), 2u);
  EXPECT_EQ(sub.ToFull(2), 9u);

  DynamicBitset full(10);
  full.Set(2);
  full.Set(9);
  full.Set(3);  // not sampled; must vanish
  const DynamicBitset proj = sub.Project(full);
  EXPECT_EQ(proj.size(), 3u);
  EXPECT_EQ(proj.CountSet(), 2u);
  EXPECT_TRUE(proj.Test(0));
  EXPECT_FALSE(proj.Test(1));
  EXPECT_TRUE(proj.Test(2));
}

TEST(SubUniverseTest, EmptySample) {
  SubUniverse sub(DynamicBitset(10));
  EXPECT_EQ(sub.size(), 0u);
  EXPECT_TRUE(sub.Project(DynamicBitset::Full(10)).None());
}

TEST(SubUniverseTest, FullSampleIsIdentity) {
  SubUniverse sub(DynamicBitset::Full(6));
  DynamicBitset set(6);
  set.Set(1);
  set.Set(4);
  EXPECT_EQ(sub.Project(set), set);
}

TEST(SubUniverseTest, ProjectKeepsExactlyTheSampledMembers) {
  Rng rng(1);
  const DynamicBitset sampled = rng.BernoulliSubset(200, 0.3);
  SubUniverse sub(sampled);
  const DynamicBitset full = rng.BernoulliSubset(200, 0.5);
  const DynamicBitset proj = sub.Project(full);
  ASSERT_EQ(proj.size(), sub.size());
  // Sample bit i is set iff its full-universe element is in the set, so
  // the projection keeps |full & sampled| members.
  for (std::size_t i = 0; i < sub.size(); ++i) {
    EXPECT_EQ(proj.Test(i), full.Test(sub.ToFull(i))) << "sample bit " << i;
  }
  EXPECT_EQ(proj.CountSet(), (full & sampled).CountSet());
}

// The members at the two ends of every universe word (ids 64w, 64w + 1,
// 64w + 62, 64w + 63), the bits where a gather block's output starts,
// ends or spills into the next output word.
DynamicBitset WordEdges(std::size_t n) {
  DynamicBitset out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = i % 64;
    if (b <= 1 || b >= 62) out.Set(i);
  }
  return out;
}

TEST(SubUniverseTest, WordGatherMatchesElementwiseProjection) {
  // The gather-based Project must agree bit-for-bit with the definitional
  // per-element projection, across word-boundary-straddling universes,
  // for both dense and sparse inputs.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const std::size_t sizes[] = {1, 63, 64, 65, 127, 129, 500, 1000};
    const std::size_t n = sizes[seed % 8];
    const DynamicBitset sampled = rng.BernoulliSubset(n, 0.35);
    const SubUniverse sub(sampled);
    const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.4);
    const SparseSet sparse_set =
        SparseSet::FromBitset(rng.BernoulliSubset(n, 0.02));

    for (const SetView view : {SetView(dense_set), SetView(sparse_set)}) {
      DynamicBitset expected(sub.size());
      for (std::size_t i = 0; i < sub.size(); ++i) {
        if (view.Test(sub.ToFull(i))) expected.Set(i);
      }
      EXPECT_EQ(sub.Project(view), expected) << "n=" << n;
    }
    EXPECT_EQ(sub.Project(dense_set), sub.Project(SetView(dense_set)));
  }

  // Samples whose blocks are full words (every output word boundary is a
  // block boundary), word-edge bits only, or dense enough that most blocks
  // spill into the next output word; dense and sparse sources of random
  // and word-edge members. Both projections must agree with the
  // definitional per-element one.
  for (const std::size_t n : {64, 65, 128, 191, 256, 1000}) {
    Rng rng(70 + n);
    const std::vector<DynamicBitset> samples = {
        DynamicBitset::Full(n), WordEdges(n), rng.BernoulliSubset(n, 0.9),
        rng.BernoulliSubset(n, 0.6)};
    const std::vector<DynamicBitset> members = {
        WordEdges(n), DynamicBitset::Full(n), rng.BernoulliSubset(n, 0.5),
        rng.BernoulliSubset(n, 0.02)};
    for (const DynamicBitset& sampled : samples) {
      const SubUniverse sub(sampled);
      for (const DynamicBitset& dense_set : members) {
        const SparseSet sparse_set = SparseSet::FromBitset(dense_set);
        DynamicBitset expected(sub.size());
        for (std::size_t i = 0; i < sub.size(); ++i) {
          if (dense_set.Test(sub.ToFull(i))) expected.Set(i);
        }
        for (const SetView view : {SetView(dense_set), SetView(sparse_set)}) {
          SCOPED_TRACE("n=" + std::to_string(n) +
                       " sample=" + std::to_string(sub.size()) +
                       " members=" + std::to_string(dense_set.CountSet()) +
                       (view.is_dense_rep() ? " dense" : " sparse"));
          EXPECT_EQ(sub.Project(view), expected);
          EXPECT_TRUE(ViewOf(sub.ProjectAdaptive(view)) == SetView(expected));
        }
      }
    }
  }
}

TEST(SubUniverseTest, ProjectAdaptiveKeepsSourceRepresentation) {
  // Sparse sources must project straight to a SparseSet (no dense
  // intermediate), dense sources to a DynamicBitset — both with exactly
  // the contents of the definitional projection.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(40 + seed);
    const std::size_t n = 100 + 37 * seed;
    const SubUniverse sub(rng.BernoulliSubset(n, 0.3));
    const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.4);
    const SparseSet sparse_set =
        SparseSet::FromBitset(rng.BernoulliSubset(n, 0.02));

    const ProjectedSet from_dense = sub.ProjectAdaptive(SetView(dense_set));
    EXPECT_TRUE(std::holds_alternative<DynamicBitset>(from_dense));
    const ProjectedSet from_sparse = sub.ProjectAdaptive(SetView(sparse_set));
    EXPECT_TRUE(std::holds_alternative<SparseSet>(from_sparse));
    // Either way the sample-universe shape and contents match Project.
    const DynamicBitset expect_dense = sub.Project(SetView(dense_set));
    const DynamicBitset expect_sparse = sub.Project(SetView(sparse_set));
    EXPECT_TRUE(ViewOf(from_dense) == SetView(expect_dense));
    EXPECT_TRUE(ViewOf(from_sparse) == SetView(expect_sparse));
    EXPECT_EQ(ViewOf(from_sparse).size(), sub.size());
  }
}

TEST(SubUniverseTest, StoreProjectionRoundTripsThroughSetSystem) {
  Rng rng(50);
  const std::size_t n = 300;
  const SubUniverse sub(rng.BernoulliSubset(n, 0.5));
  SetSystem projections(sub.size());
  const SparseSet sparse_set =
      SparseSet::FromBitset(rng.BernoulliSubset(n, 0.01));
  const DynamicBitset dense_set = rng.BernoulliSubset(n, 0.5);
  const SetId sparse_id =
      StoreProjection(projections, sub.ProjectAdaptive(SetView(sparse_set)));
  const SetId dense_id =
      StoreProjection(projections, sub.ProjectAdaptive(SetView(dense_set)));
  EXPECT_TRUE(projections.set(sparse_id) ==
              SetView(sub.Project(SetView(sparse_set))));
  EXPECT_TRUE(projections.set(dense_id) ==
              SetView(sub.Project(SetView(dense_set))));
  // A sparse projection of a sparse set stays sparse in the store.
  EXPECT_TRUE(projections.IsSparse(sparse_id));
}

TEST(SamplingTest, SampleElementsSubsetOfUniverse) {
  Rng rng(2);
  const DynamicBitset universe = rng.BernoulliSubset(500, 0.6);
  const DynamicBitset sample = SampleElements(universe, 0.3, rng);
  EXPECT_TRUE(sample.IsSubsetOf(universe));
}

// Regression: out-of-range rates used to be forwarded unclamped. The
// documented contract: rate >= 1 keeps the whole universe, rate <= 0
// (and NaN) keeps nothing.
TEST(SamplingTest, RateIsClampedToUnitInterval) {
  Rng rng(6);
  const DynamicBitset universe = rng.BernoulliSubset(300, 0.5);
  EXPECT_EQ(SampleElements(universe, 1.0, rng), universe);
  EXPECT_EQ(SampleElements(universe, 17.5, rng), universe);
  EXPECT_TRUE(SampleElements(universe, 0.0, rng).None());
  EXPECT_TRUE(SampleElements(universe, -3.0, rng).None());
  EXPECT_TRUE(
      SampleElements(universe, std::numeric_limits<double>::quiet_NaN(), rng)
          .None());
}

TEST(SamplingTest, LemmaThreeTwelveProperty) {
  // Lemma 3.12: at rate p >= 16 k log(m) / (rho n), any k-cover of the
  // sample covers >= (1 - rho) n elements, w.h.p. Empirical check on a
  // planted instance: find a <= k cover of the sample exactly (the same
  // primitive Algorithm 1 step 3c uses) and verify full-universe coverage.
  const std::size_t n = 2000, m = 24, k = 4;
  const double rho = 0.2;
  Rng rng(3);
  int good = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system = PlantedCoverInstance(n, m, k, rng, &planted);
    const double rate = ElementSamplingRate(n, m, k, rho, 1.0);
    const DynamicBitset sampled =
        SampleElements(DynamicBitset::Full(n), rate, rng);
    SubUniverse sub(sampled);
    SetSystem projections(sub.size());
    for (std::size_t i = 0; i < system.num_sets(); ++i) {
      projections.AddSet(sub.Project(system.set(i)));
    }
    ExactSetCoverOptions options;
    options.size_limit = k;  // a k-cover exists: the planted blocks
    const ExactSetCoverResult cover = SolveExactSetCover(projections, options);
    ASSERT_TRUE(cover.feasible);
    ASSERT_LE(cover.solution.size(), k);
    const Count covered = system.CoverageOf(cover.solution.chosen);
    if (static_cast<double>(covered) >= (1.0 - rho) * n) ++good;
  }
  EXPECT_GE(good, trials - 2);
}

TEST(SamplingTest, UndersamplingBreaksTheGuarantee) {
  // The converse direction the E2 bench sweeps: far below the Lemma 3.12
  // rate, covers of the sample routinely miss > rho n elements. Uniform
  // sets (0.4·n each) admit many 4-covers of a tiny sample, all covering
  // only ~1-(0.6)^4 ≈ 87% of [n] — far below the (1-ρ) = 98% target.
  // (A planted instance would be wrong here: its only 4-covers are the
  // planted blocks, which the exact solver recovers even from a tiny
  // sample.)
  const std::size_t n = 4000, m = 40, k = 4;
  const double rho = 0.02;
  Rng rng(4);
  int bad = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    const SetSystem system = UniformRandomInstance(n, m, (2 * n) / 5, rng);
    const double rate = ElementSamplingRate(n, m, k, rho, 1.0 / 256.0);
    const DynamicBitset sampled =
        SampleElements(DynamicBitset::Full(n), rate, rng);
    SubUniverse sub(sampled);
    SetSystem projections(sub.size());
    for (std::size_t i = 0; i < system.num_sets(); ++i) {
      projections.AddSet(sub.Project(system.set(i)));
    }
    ExactSetCoverOptions options;
    options.size_limit = k;
    const ExactSetCoverResult cover = SolveExactSetCover(projections, options);
    if (!cover.feasible || cover.solution.size() > k) continue;
    const Count covered = system.CoverageOf(cover.solution.chosen);
    if (static_cast<double>(covered) < (1.0 - rho) * n) ++bad;
  }
  EXPECT_GE(bad, trials / 2);
}

}  // namespace
}  // namespace streamsc
