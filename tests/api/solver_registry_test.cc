// SolverRegistry: the string-keyed front door must be (a) *complete* —
// every registered name constructs and runs; (b) *faithful* — a
// registry-built solver produces byte-identical solutions and stats to
// direct config-struct construction; and (c) *safe* — arbitrary
// malformed key=value input comes back as an actionable Status, never an
// abort. The death tests at the bottom pin the deliberate asymmetry:
// hand-built config structs keep their STREAMSC_CHECK crash-on-misuse
// contract while the registry path for the same bad value reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_registry.h"
#include "core/assadi_set_cover.h"
#include "core/demaine_set_cover.h"
#include "core/emek_rosen_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "core/max_coverage.h"
#include "core/one_pass_set_cover.h"
#include "core/pair_finder.h"
#include "core/threshold_greedy.h"
#include "instance/generators.h"
#include "stream/set_stream.h"
#include "testing/solver_matrix.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::SolverOutcome;
using testing::ToOutcome;

constexpr const char* kAllSolvers[] = {
    "assadi",   "har_peled",        "demaine",
    "emek_rosen", "one_pass",       "threshold_greedy",
    "sieve_mc", "element_sampling_mc", "pair_finder"};

SetSystem SmallInstance(std::uint64_t seed) {
  Rng rng(seed);
  return PlantedCoverInstance(128, 16, 4, rng);
}

SetSystem SmallPairInstance() {
  SetSystem system(64);
  std::vector<ElementId> low, high, decoy;
  for (ElementId e = 0; e < 64; ++e) {
    (e < 32 ? low : high).push_back(e);
    if (e > 0 && e % 3 == 0) decoy.push_back(e);
  }
  system.AddSetFromIndices(low);
  system.AddSetFromIndices(high);
  system.AddSetFromIndices(decoy);
  return system;
}

// Runs a registry-built solver sequentially over a fresh stream.
SolverOutcome RunRegistry(const SetSystem& system, const std::string& name,
                          const std::vector<std::string>& options) {
  StatusOr<std::unique_ptr<AnySolver>> solver =
      SolverRegistry::Global().Create(name, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  if (!solver.ok()) return {};
  VectorSetStream stream(system);
  StatusOr<SolveReport> report = (*solver)->Run(stream, RunContext{});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  return ToOutcome(*report);
}

void ExpectSameOutcome(const SolverOutcome& direct,
                       const SolverOutcome& registry) {
  EXPECT_EQ(registry.chosen, direct.chosen);
  EXPECT_EQ(registry.feasible, direct.feasible);
  EXPECT_EQ(registry.passes, direct.passes);
  EXPECT_EQ(registry.items_scanned, direct.items_scanned);
  EXPECT_EQ(registry.sets_taken, direct.sets_taken);
  EXPECT_EQ(registry.elements_covered, direct.elements_covered);
  EXPECT_EQ(registry.peak_space_bytes, direct.peak_space_bytes);
  EXPECT_EQ(registry.extra, direct.extra);
  // Vacuity guard: a mutually-empty run would "agree" trivially.
  EXPECT_TRUE(direct.feasible);
  EXPECT_FALSE(direct.chosen.empty());
}

// ---------------------------------------------------------------------------
// Completeness + listing.

TEST(SolverRegistryTest, ListsAllNineSolvers) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  ASSERT_EQ(names.size(), 9u);
  for (const char* expected : kAllSolvers) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing solver: " << expected;
  }
  // Sorted listing (std::map order) — stable for docs and scripting.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistryTest, EverySolverHasDocumentedOptions) {
  for (const std::string& name : SolverRegistry::Global().Names()) {
    const SolverInfo* info = SolverRegistry::Global().Find(name);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->summary.empty());
    for (const OptionDescriptor& desc : info->options) {
      EXPECT_FALSE(desc.name.empty());
      EXPECT_FALSE(desc.doc.empty()) << name << "." << desc.name;
      EXPECT_FALSE(desc.RangeText().empty());
      EXPECT_FALSE(desc.DefaultText().empty());
    }
  }
}

TEST(SolverRegistryTest, FindUnknownReturnsNull) {
  EXPECT_EQ(SolverRegistry::Global().Find("nope"), nullptr);
}

TEST(SolverRegistryTest, EveryRegisteredNameConstructsWithDefaults) {
  for (const std::string& name : SolverRegistry::Global().Names()) {
    StatusOr<std::unique_ptr<AnySolver>> solver =
        SolverRegistry::Global().Create(name, {});
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status().ToString();
    EXPECT_EQ((*solver)->solver(), name);
    EXPECT_FALSE((*solver)->algorithm_name().empty());
  }
}

// ---------------------------------------------------------------------------
// Round-trip faithfulness: registry construction == direct construction,
// byte for byte, for every solver (non-default options on purpose; all
// numeric literals round-trip exactly through the text parser).

TEST(SolverRegistryRoundTripTest, Assadi) {
  const SetSystem system = SmallInstance(3);
  AssadiConfig config;
  config.alpha = 3;
  config.epsilon = 0.25;
  config.seed = 5;
  config.use_exact_subsolver = false;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(AssadiSetCover(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "assadi",
                                {"alpha=3", "epsilon=0.25", "seed=5",
                                 "use_exact_subsolver=false"}));
}

TEST(SolverRegistryRoundTripTest, HarPeled) {
  const SetSystem system = SmallInstance(4);
  HarPeledConfig config;
  config.alpha = 3;
  config.seed = 5;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(HarPeledSetCover(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "har_peled", {"alpha=3", "seed=5"}));
}

TEST(SolverRegistryRoundTripTest, Demaine) {
  const SetSystem system = SmallInstance(5);
  DemaineConfig config;
  config.alpha = 4;
  config.seed = 9;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(DemaineSetCover(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "demaine", {"alpha=4", "seed=9"}));
}

TEST(SolverRegistryRoundTripTest, EmekRosen) {
  const SetSystem system = SmallInstance(6);
  EmekRosenConfig config;
  config.threshold = 6;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(EmekRosenSetCover(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "emek_rosen", {"threshold=6"}));
}

TEST(SolverRegistryRoundTripTest, OnePass) {
  const SetSystem system = SmallInstance(7);
  OnePassConfig config;
  config.min_gain_fraction = 0.125;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(OnePassSetCover(config).Run(stream));
  ExpectSameOutcome(
      direct, RunRegistry(system, "one_pass", {"min_gain_fraction=0.125"}));
}

TEST(SolverRegistryRoundTripTest, ThresholdGreedy) {
  const SetSystem system = SmallInstance(8);
  ThresholdGreedyConfig config;
  config.beta = 4.0;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(ThresholdGreedySetCover(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "threshold_greedy", {"beta=4"}));
}

TEST(SolverRegistryRoundTripTest, SieveMc) {
  const SetSystem system = SmallInstance(9);
  SieveMcConfig config;
  config.epsilon = 0.25;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(SieveMaxCoverage(config).Run(stream, 3));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "sieve_mc", {"epsilon=0.25", "k=3"}));
}

TEST(SolverRegistryRoundTripTest, ElementSamplingMc) {
  const SetSystem system = SmallInstance(10);
  ElementSamplingMcConfig config;
  config.epsilon = 0.25;
  config.seed = 5;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(ElementSamplingMaxCoverage(config).Run(stream, 3));
  ExpectSameOutcome(
      direct, RunRegistry(system, "element_sampling_mc",
                          {"epsilon=0.25", "seed=5", "k=3"}));
}

TEST(SolverRegistryRoundTripTest, PairFinder) {
  const SetSystem system = SmallPairInstance();
  PairFinderConfig config;
  config.passes = 3;
  VectorSetStream stream(system);
  const SolverOutcome direct =
      ToOutcome(ExactPairFinder(config).Run(stream));
  ExpectSameOutcome(direct,
                    RunRegistry(system, "pair_finder", {"passes=3"}));
}

// ---------------------------------------------------------------------------
// Malformed input: always a Status, never an abort, always actionable.

TEST(SolverRegistryErrorTest, UnknownSolverListsRegisteredNames) {
  StatusOr<std::unique_ptr<AnySolver>> result =
      SolverRegistry::Global().Create("asadi", {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("asadi"), std::string::npos);
  EXPECT_NE(result.status().message().find("assadi"), std::string::npos);
}

TEST(SolverRegistryErrorTest, UnknownKeyNamesSolverKeyAndAlternatives) {
  StatusOr<std::unique_ptr<AnySolver>> result =
      SolverRegistry::Global().Create("assadi", {"alhpa=2"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("assadi"), std::string::npos);
  EXPECT_NE(msg.find("alhpa"), std::string::npos);
  EXPECT_NE(msg.find("alpha"), std::string::npos);  // the valid-keys list
}

TEST(SolverRegistryErrorTest, OutOfRangeQuotesValueAndLegalRange) {
  StatusOr<std::unique_ptr<AnySolver>> result =
      SolverRegistry::Global().Create("assadi", {"alpha=0"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("alpha"), std::string::npos);
  EXPECT_NE(msg.find("'0'"), std::string::npos);
  EXPECT_NE(msg.find("[1, inf)"), std::string::npos);
}

TEST(SolverRegistryErrorTest, TypeMismatchQuotesOffendingValue) {
  StatusOr<std::unique_ptr<AnySolver>> result =
      SolverRegistry::Global().Create("assadi", {"alpha=two"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("'two'"), std::string::npos);
}

TEST(SolverRegistryErrorTest, MalformedShapesAllReport) {
  // Every class of malformed key=value input, across several solvers.
  // Each must produce !ok — and, being a gtest (not a death test), this
  // also proves none of them aborts the process.
  const struct {
    const char* solver;
    const char* arg;
  } kCases[] = {
      {"assadi", "alpha"},                    // no '='
      {"assadi", "=2"},                       // empty key
      {"assadi", "alpha="},                   // empty value
      {"assadi", "alpha=-1"},                 // negative uint
      {"assadi", "alpha=2.5"},                // fractional uint
      {"assadi", "epsilon=0"},                // open lower bound
      {"assadi", "epsilon=nan"},              // non-finite double
      {"assadi", "epsilon=x"},                // not a number
      {"assadi", "use_exact_subsolver=maybe"},// bad bool literal
      {"assadi", "seed=99999999999999999999"},// uint64 overflow
      {"threshold_greedy", "beta=1"},         // exclusive bound hit
      {"threshold_greedy", "beta=0.5"},       // below range
      {"one_pass", "min_gain_fraction=1.5"},  // above range
      {"one_pass", "min_gain_fraction=-0.1"}, // below range
      {"sieve_mc", "epsilon=1"},              // open upper bound
      {"sieve_mc", "k=0"},                    // k must be >= 1
      {"element_sampling_mc", "epsilon=1.0"}, // open upper bound
      {"pair_finder", "passes=0"},            // p >= 1
      {"pair_finder", "max_candidates=0"},    // cap >= 1
  };
  for (const auto& c : kCases) {
    StatusOr<std::unique_ptr<AnySolver>> result =
        SolverRegistry::Global().Create(c.solver, {c.arg});
    EXPECT_FALSE(result.ok()) << c.solver << " accepted '" << c.arg << "'";
  }
}

TEST(SolverRegistryErrorTest, DuplicateKeyReports) {
  StatusOr<std::unique_ptr<AnySolver>> result =
      SolverRegistry::Global().Create("assadi", {"alpha=2", "alpha=3"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("more than once"),
            std::string::npos);
}

// Property fuzz: pseudo-random garbage key=value strings thrown at every
// solver. Create() must return (ok or error) on every input — this suite
// running to completion is the no-abort proof. Valid creations are also
// exercised end to end on a small stream.
TEST(SolverRegistryPropertyTest, FuzzedOptionStringsNeverAbort) {
  const SetSystem system = SmallInstance(42);
  Rng rng(20260729);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789=._-+eE ";
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  std::size_t created = 0;
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::string& solver = names[rng.UniformInt(names.size())];
    std::vector<std::string> args;
    const std::size_t num_args = rng.UniformInt(4);
    for (std::size_t a = 0; a < num_args; ++a) {
      std::string arg;
      const std::size_t len = 1 + rng.UniformInt(24);
      for (std::size_t i = 0; i < len; ++i) {
        arg += charset[rng.UniformInt(charset.size())];
      }
      args.push_back(arg);
    }
    StatusOr<std::unique_ptr<AnySolver>> result =
        SolverRegistry::Global().Create(solver, args);
    if (result.ok()) {
      ++created;
      VectorSetStream stream(system);
      StatusOr<SolveReport> report = (*result)->Run(stream, RunContext{});
      // Stream-dependent misuse (e.g. a fuzzed emek_rosen threshold
      // larger than n) must also come back as a Status.
      (void)report;
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Sanity: defaults-only trials (num_args == 0) must all have succeeded,
  // so the fuzz genuinely exercised the success path too.
  EXPECT_GT(created, 0u);
}

// ---------------------------------------------------------------------------
// The validation asymmetry, side by side: the registry reports bad user
// input as Status; the identical misuse through the raw config struct
// keeps its STREAMSC_CHECK crash (programmer bug, release-armed).

TEST(SolverRegistryDeathTest, StructMisuseStillDiesWhereRegistryReports) {
  // threshold_greedy beta = 1: registry -> Status...
  EXPECT_FALSE(
      SolverRegistry::Global().Create("threshold_greedy", {"beta=1"}).ok());
  // ...struct -> death.
  ThresholdGreedyConfig beta_config;
  beta_config.beta = 1.0;
  EXPECT_DEATH(ThresholdGreedySetCover{beta_config}, "beta");

  // assadi epsilon = 0: registry -> Status; struct -> death.
  EXPECT_FALSE(
      SolverRegistry::Global().Create("assadi", {"epsilon=0"}).ok());
  AssadiConfig eps_config;
  eps_config.epsilon = 0.0;
  EXPECT_DEATH(AssadiSetCover{eps_config}, "epsilon");

  // emek_rosen threshold > n is stream-dependent: registry -> Status at
  // Run(); struct -> death at Run().
  const SetSystem system = SmallInstance(11);
  StatusOr<std::unique_ptr<AnySolver>> solver =
      SolverRegistry::Global().Create("emek_rosen", {"threshold=100000"});
  ASSERT_TRUE(solver.ok());
  VectorSetStream registry_stream(system);
  StatusOr<SolveReport> report =
      (*solver)->Run(registry_stream, RunContext{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kOutOfRange);

  EmekRosenConfig threshold_config;
  threshold_config.threshold = 100000;
  EmekRosenSetCover direct(threshold_config);
  VectorSetStream direct_stream(system);
  EXPECT_DEATH(direct.Run(direct_stream), "threshold");
}

}  // namespace
}  // namespace streamsc
