#include "api/solver_registry.h"

#include <limits>
#include <memory>
#include <utility>

#include "core/assadi_set_cover.h"
#include "core/demaine_set_cover.h"
#include "core/emek_rosen_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "core/max_coverage.h"
#include "core/one_pass_set_cover.h"
#include "core/pair_finder.h"
#include "core/threshold_greedy.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace streamsc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The set-cover family's run callback: `feasible` means "covered
// everything", `extra` is 0.
AnySolver::RunFn SetCoverRun(
    std::shared_ptr<StreamingSetCoverAlgorithm> algorithm) {
  return [algorithm = std::move(algorithm)](
             SetStream& stream,
             const RunContext& context) -> StatusOr<SolverRun> {
    SetCoverRunResult r = algorithm->Run(stream, context);
    return SolverRun{std::move(r.solution), r.feasible, 0,
                     std::move(r.stats)};
  };
}

std::unique_ptr<AnySolver> SetCoverSolver(
    std::string solver, std::shared_ptr<StreamingSetCoverAlgorithm> algorithm) {
  std::string name = algorithm->name();
  return std::make_unique<AnySolver>(std::move(solver), SolverKind::kSetCover,
                                     std::move(name),
                                     SetCoverRun(std::move(algorithm)));
}

// A max-coverage algorithm with its bound k. `feasible` means "returned at
// least one set"; the exact coverage of the returned sets rides in `extra`.
std::unique_ptr<AnySolver> MaxCoverageSolver(
    std::string solver,
    std::shared_ptr<StreamingMaxCoverageAlgorithm> algorithm,
    std::size_t k) {
  std::string name = algorithm->name() + "[k=" + std::to_string(k) + "]";
  return std::make_unique<AnySolver>(
      std::move(solver), SolverKind::kMaxCoverage, std::move(name),
      [algorithm = std::move(algorithm), k](
          SetStream& stream,
          const RunContext& context) -> StatusOr<SolverRun> {
        MaxCoverageRunResult r = algorithm->Run(stream, k, context);
        const bool returned_sets = !r.solution.chosen.empty();
        return SolverRun{std::move(r.solution), returned_sets, r.coverage,
                         std::move(r.stats)};
      });
}

// Shared descriptor snippets (the sampling solvers repeat these).
OptionDescriptor SeedOption() {
  return UintOption("seed", 1, "seed for the element sampling RNG");
}

OptionDescriptor BoostOption() {
  return DoubleOptionRange(
      "sampling_boost", 1.0, 0.0, kInf, /*min_exclusive=*/true,
      /*max_exclusive=*/false,
      "multiplier on the paper's sampling rate (1.0 = paper)");
}

OptionDescriptor BudgetOption(std::uint64_t def) {
  return UintOptionMin("exact_node_budget", def, 1,
                       "branch-and-bound node budget per exact sub-solve; "
                       "a guess whose search exhausts it fails");
}

OptionDescriptor KnownOptOption() {
  return UintOption("known_opt", 0,
                    "skip the geometric õpt guessing and use this value "
                    "(0 = guess)");
}

OptionDescriptor KOption() {
  return UintOptionMin("k", 3, 1, "coverage budget: pick at most k sets");
}

}  // namespace

Status AnySolver::RunInto(SetStream& stream, const RunContext& context,
                          SolveReport* report) const {
  const Stopwatch timer;
  StatusOr<SolverRun> run = [&] {
    // The solver span brackets the run only (not the report fill), so it
    // has retired before any post-run merge of the recorder.
    const TraceSpan span(context.trace, TraceCategory::kSolver,
                         solver_.c_str());
    return run_(stream, context);
  }();
  if (!run.ok()) return run.status();
  FillReport(solver_, kind_, algorithm_name_, *run, timer.ElapsedSeconds(),
             report);
  return Status::Ok();
}

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* const kRegistry = new SolverRegistry();
  return *kRegistry;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

const SolverInfo* SolverRegistry::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second.info;
}

StatusOr<std::unique_ptr<AnySolver>> SolverRegistry::Create(
    const std::string& name, const std::vector<std::string>& options) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string registered;
    for (const std::string& key : Names()) {
      if (!registered.empty()) registered += ", ";
      registered += key;
    }
    return Status::NotFound("unknown solver '" + name +
                            "' (registered: " + registered + ")");
  }
  StatusOr<ParsedOptions> parsed =
      ParseOptions(name, it->second.info.options, options);
  if (!parsed.ok()) return parsed.status();
  return it->second.make(*parsed);
}

void SolverRegistry::Register(SolverInfo info, Factory make) {
  const std::string name = info.name;
  entries_.emplace(name, Entry{std::move(info), std::move(make)});
}

SolverRegistry::SolverRegistry() {
  // -- assadi -------------------------------------------------------------
  Register(
      {"assadi",
       SolverKind::kSetCover,
       "Assadi (PODS'17) Theorem 2: (alpha+eps)-approximation in 2*alpha+1 "
       "passes via one-shot pruning + per-iteration element sampling",
       {UintOptionMin("alpha", 2, 1, "target approximation factor"),
        DoubleOptionRange("epsilon", 0.5, 0.0, kInf, true, false,
                          "slack in the (alpha+eps) approximation"),
        BoostOption(), SeedOption(), BudgetOption(20'000'000),
        BoolOption("use_exact_subsolver", true,
                   "solve sub-instances optimally (paper) vs plain greedy "
                   "(the A2 ablation)"),
        BoolOption("ensure_feasible", true,
                   "add a cleanup pass if a residue survives the alpha "
                   "iterations"),
        KnownOptOption()}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        AssadiConfig c;
        c.alpha = static_cast<std::size_t>(o.Uint("alpha"));
        c.epsilon = o.Double("epsilon");
        c.sampling_boost = o.Double("sampling_boost");
        c.seed = o.Uint("seed");
        c.exact_node_budget = o.Uint("exact_node_budget");
        c.use_exact_subsolver = o.Bool("use_exact_subsolver");
        c.ensure_feasible = o.Bool("ensure_feasible");
        c.known_opt = static_cast<std::size_t>(o.Uint("known_opt"));
        return SetCoverSolver("assadi", std::make_shared<AssadiSetCover>(c));
      });

  // -- har_peled ----------------------------------------------------------
  Register(
      {"har_peled",
       SolverKind::kSetCover,
       "Har-Peled et al. (PODS'16) style baseline: iterative pruning and "
       "the looser element-sampling rate (space exponent ~2/alpha)",
       {UintOptionMin("alpha", 2, 1, "target approximation factor"),
        BoostOption(), SeedOption(), BudgetOption(20'000'000),
        KnownOptOption()}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        HarPeledConfig c;
        c.alpha = static_cast<std::size_t>(o.Uint("alpha"));
        c.sampling_boost = o.Double("sampling_boost");
        c.seed = o.Uint("seed");
        c.exact_node_budget = o.Uint("exact_node_budget");
        c.known_opt = static_cast<std::size_t>(o.Uint("known_opt"));
        return SetCoverSolver("har_peled",
                              std::make_shared<HarPeledSetCover>(c));
      });

  // -- demaine ------------------------------------------------------------
  Register(
      {"demaine",
       SolverKind::kSetCover,
       "Demaine-Indyk-Mahabadi-Vakilian (DISC'14) baseline: O(alpha) "
       "passes, greedy sub-solves, space exponent Theta(1/log alpha)",
       {UintOptionMin("alpha", 4, 2, "target approximation factor"),
        BoostOption(), SeedOption(), KnownOptOption(),
        BoolOption("ensure_feasible", true,
                   "add a cleanup pass if a residue survives the phases")}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        DemaineConfig c;
        c.alpha = static_cast<std::size_t>(o.Uint("alpha"));
        c.sampling_boost = o.Double("sampling_boost");
        c.seed = o.Uint("seed");
        c.known_opt = static_cast<std::size_t>(o.Uint("known_opt"));
        c.ensure_feasible = o.Bool("ensure_feasible");
        return SetCoverSolver("demaine", std::make_shared<DemaineSetCover>(c));
      });

  // -- emek_rosen ---------------------------------------------------------
  Register(
      {"emek_rosen",
       SolverKind::kSetCover,
       "Emek-Rosen (ICALP'14) style single pass: threshold-and-witness, "
       "O(sqrt n) approximation in O~(n) space",
       {UintOption("threshold", 0,
                   "big-set threshold theta (0 = the sqrt(n) default); "
                   "must not exceed the streamed universe size")}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        EmekRosenConfig c;
        c.threshold = static_cast<std::size_t>(o.Uint("threshold"));
        // The threshold <= n constraint is stream-dependent: enforced
        // here as a Status before Run (the struct path CHECK-aborts).
        const auto algorithm = std::make_shared<EmekRosenSetCover>(c);
        return std::make_unique<AnySolver>(
            "emek_rosen", SolverKind::kSetCover, algorithm->name(),
            [threshold = c.threshold, run = SetCoverRun(algorithm)](
                SetStream& stream,
                const RunContext& context) -> StatusOr<SolverRun> {
              if (threshold > stream.universe_size()) {
                return Status::OutOfRange(
                    "emek_rosen: option 'threshold' = '" +
                    std::to_string(threshold) +
                    "' exceeds the streamed universe size n = " +
                    std::to_string(stream.universe_size()) +
                    " (no set could qualify as big); legal range [0, n], "
                    "0 = sqrt(n) default");
              }
              return run(stream, context);
            });
      });

  // -- one_pass -----------------------------------------------------------
  Register(
      {"one_pass",
       SolverKind::kSetCover,
       "single-pass greedy (Saha-Getoor'09 style): take any set covering "
       "max(1, frac*|U|) uncovered elements",
       {DoubleOptionRange("min_gain_fraction", 0.0, 0.0, 1.0, false, false,
                          "minimum marginal gain as a fraction of the "
                          "current uncovered count (0 = take anything "
                          "that helps)")}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        OnePassConfig c;
        c.min_gain_fraction = o.Double("min_gain_fraction");
        return SetCoverSolver("one_pass", std::make_shared<OnePassSetCover>(c));
      });

  // -- threshold_greedy ---------------------------------------------------
  Register(
      {"threshold_greedy",
       SolverKind::kSetCover,
       "multi-pass threshold greedy (CKW'10 style): geometric thresholds, "
       "O(log n) approximation, O~(n) space independent of m",
       {DoubleOptionRange("beta", 2.0, 1.0, kInf, true, false,
                          "threshold shrink factor per pass")}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        ThresholdGreedyConfig c;
        c.beta = o.Double("beta");
        return SetCoverSolver("threshold_greedy",
                              std::make_shared<ThresholdGreedySetCover>(c));
      });

  // -- sieve_mc -----------------------------------------------------------
  Register(
      {"sieve_mc",
       SolverKind::kMaxCoverage,
       "single-pass threshold sieve max k-coverage (Badanidiyuru'14 "
       "style): OPT guesses on a (1+eps) grid, (1/2-eps) guarantee",
       {DoubleOptionRange("epsilon", 0.1, 0.0, 1.0, true, true,
                          "guess-grid resolution (1+eps)"),
        KOption()}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        SieveMcConfig c;
        c.epsilon = o.Double("epsilon");
        return MaxCoverageSolver("sieve_mc",
                                 std::make_shared<SieveMaxCoverage>(c),
                                 static_cast<std::size_t>(o.Uint("k")));
      });

  // -- element_sampling_mc ------------------------------------------------
  Register(
      {"element_sampling_mc",
       SolverKind::kMaxCoverage,
       "element-sampling (1-eps) max k-coverage (McGregor-Vu style): "
       "subsample the universe, store projections, solve offline",
       {DoubleOptionRange("epsilon", 0.1, 0.0, 1.0, true, true,
                          "target (1-eps) accuracy"),
        BoostOption(), SeedOption(), BudgetOption(5'000'000),
        UintOption("exact_k_limit", 3,
                   "solve the sampled instance exactly for k <= this, "
                   "greedily otherwise"),
        KOption()}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        ElementSamplingMcConfig c;
        c.epsilon = o.Double("epsilon");
        c.sampling_boost = o.Double("sampling_boost");
        c.seed = o.Uint("seed");
        c.exact_node_budget = o.Uint("exact_node_budget");
        c.exact_k_limit = static_cast<std::size_t>(o.Uint("exact_k_limit"));
        return MaxCoverageSolver(
            "element_sampling_mc",
            std::make_shared<ElementSamplingMaxCoverage>(c),
            static_cast<std::size_t>(o.Uint("k")));
      });

  // -- pair_finder --------------------------------------------------------
  Register(
      {"pair_finder",
       SolverKind::kPairFinder,
       "exact 2-cover recovery in p passes with ~m*n/p-bit state (the "
       "linear pass/space tradeoff of Result 1)",
       {UintOptionMin("passes", 4, 1, "number of universe chunks / passes"),
        UintOptionMin("max_candidates", 4'000'000, 1,
                      "abort cap on the surviving candidate-pair list")}},
      [](const ParsedOptions& o) -> std::unique_ptr<AnySolver> {
        PairFinderConfig c;
        c.passes = static_cast<std::size_t>(o.Uint("passes"));
        c.max_candidates =
            static_cast<std::size_t>(o.Uint("max_candidates"));
        // `feasible` means "a covering pair (or singleton) was found";
        // `extra` is the candidate-list size after the seeding pass.
        const ExactPairFinder finder(c);
        return std::make_unique<AnySolver>(
            "pair_finder", SolverKind::kPairFinder, finder.name(),
            [finder](SetStream& stream,
                     const RunContext& context) -> StatusOr<SolverRun> {
              PairFinderResult r = finder.Run(stream, context);
              return SolverRun{std::move(r.solution), r.found,
                               r.candidates_after_first_pass,
                               std::move(r.stats)};
            });
      });
}

}  // namespace streamsc
