#include "api/solver_registry.h"

#include <limits>
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

// Pre-run validation hook: stream-dependent option constraints that the
// registry cannot check at Create() time (it has no stream yet).
using StreamValidator = std::function<Status(const SetStream&)>;

// Resets every solver-filled field of a (possibly reused) report. String
// assignments into a warm report reuse capacity, so steady-state refills
// never allocate.
void FillBase(const std::string& solver, SolverKind kind,
              const std::string& algorithm, SolveReport* report) {
  report->solver = solver;
  report->kind = kind;
  report->algorithm = algorithm;
  report->feasible = false;
  report->extra = 0;
  report->counters.Clear();
  report->pass_breakdown.clear();
}

// The one mapping from StreamRunStats to the uniform report — every
// wrapper fills through here so a new deterministic counter cannot be
// wired up for one family and silently zeroed for another. The wrapper's
// own timer of the Run supplies the wall time.
void FillFromRunStats(const StreamRunStats& stats, double wall_seconds,
                      SolveReport* report) {
  report->passes = stats.passes;
  report->peak_space_bytes = stats.peak_space_bytes;
  report->counters = stats.counters;
  report->wall_seconds = wall_seconds;
}

/// Wraps a StreamingSetCoverAlgorithm as an AnySolver.
class SetCoverAnySolver : public AnySolver {
 public:
  SetCoverAnySolver(std::string solver,
                    std::unique_ptr<StreamingSetCoverAlgorithm> algorithm,
                    StreamValidator validate = nullptr)
      : solver_(std::move(solver)),
        algorithm_(std::move(algorithm)),
        name_(algorithm_->name()),
        validate_(std::move(validate)) {}

  const std::string& solver() const override { return solver_; }
  SolverKind kind() const override { return SolverKind::kSetCover; }
  const std::string& algorithm_name() const override { return name_; }

  Status RunInto(SetStream& stream, const RunContext& context,
                 SolveReport* report) override {
    if (validate_) {
      const Status status = validate_(stream);
      if (!status.ok()) return status;
    }
    const Stopwatch timer;
    SetCoverRunResult r;
    {
      // The solver span brackets the run only (not the report fill), so
      // it has retired before any post-run merge of the recorder.
      const TraceSpan span(context.trace, TraceCategory::kSolver,
                           solver_.c_str());
      r = algorithm_->Run(stream, context);
    }
    FillBase(solver_, SolverKind::kSetCover, name_, report);
    report->solution = r.solution;
    report->feasible = r.feasible;
    FillFromRunStats(r.stats, timer.ElapsedSeconds(), report);
    return Status::Ok();
  }

 private:
  std::string solver_;
  std::unique_ptr<StreamingSetCoverAlgorithm> algorithm_;
  std::string name_;
  StreamValidator validate_;
};

/// Wraps a StreamingMaxCoverageAlgorithm (with its bound k) as an
/// AnySolver. `feasible` means "returned at least one set"; the exact
/// coverage of the returned sets rides in `extra`.
class MaxCoverageAnySolver : public AnySolver {
 public:
  MaxCoverageAnySolver(std::string solver,
                       std::unique_ptr<StreamingMaxCoverageAlgorithm> algorithm,
                       std::size_t k)
      : solver_(std::move(solver)),
        algorithm_(std::move(algorithm)),
        k_(k),
        name_(algorithm_->name() + "[k=" + std::to_string(k_) + "]") {}

  const std::string& solver() const override { return solver_; }
  SolverKind kind() const override { return SolverKind::kMaxCoverage; }
  const std::string& algorithm_name() const override { return name_; }

  Status RunInto(SetStream& stream, const RunContext& context,
                 SolveReport* report) override {
    const Stopwatch timer;
    MaxCoverageRunResult r;
    {
      const TraceSpan span(context.trace, TraceCategory::kSolver,
                           solver_.c_str());
      r = algorithm_->Run(stream, k_, context);
    }
    FillBase(solver_, SolverKind::kMaxCoverage, name_, report);
    report->solution = r.solution;
    report->feasible = !r.solution.chosen.empty();
    report->extra = r.coverage;
    FillFromRunStats(r.stats, timer.ElapsedSeconds(), report);
    return Status::Ok();
  }

 private:
  std::string solver_;
  std::unique_ptr<StreamingMaxCoverageAlgorithm> algorithm_;
  std::size_t k_;
  std::string name_;
};

/// Wraps the ExactPairFinder as an AnySolver. `feasible` means "a
/// covering pair (or singleton) was found"; `extra` reports the
/// candidate-list size after the seeding pass.
class PairFinderAnySolver : public AnySolver {
 public:
  PairFinderAnySolver(std::string solver, PairFinderConfig config)
      : solver_(std::move(solver)), finder_(config), name_(finder_.name()) {}

  const std::string& solver() const override { return solver_; }
  SolverKind kind() const override { return SolverKind::kPairFinder; }
  const std::string& algorithm_name() const override { return name_; }

  Status RunInto(SetStream& stream, const RunContext& context,
                 SolveReport* report) override {
    const Stopwatch timer;
    PairFinderResult r;
    {
      const TraceSpan span(context.trace, TraceCategory::kSolver,
                           solver_.c_str());
      r = finder_.Run(stream, context);
    }
    FillBase(solver_, SolverKind::kPairFinder, name_, report);
    report->solution = r.solution;
    report->feasible = r.found;
    report->extra = r.candidates_after_first_pass;
    FillFromRunStats(r.stats, timer.ElapsedSeconds(), report);
    return Status::Ok();
  }

 private:
  std::string solver_;
  ExactPairFinder finder_;
  std::string name_;
};

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
        return std::make_unique<SetCoverAnySolver>(
            "assadi", std::make_unique<AssadiSetCover>(c));
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
        return std::make_unique<SetCoverAnySolver>(
            "har_peled", std::make_unique<HarPeledSetCover>(c));
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
        return std::make_unique<SetCoverAnySolver>(
            "demaine", std::make_unique<DemaineSetCover>(c));
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
        const std::size_t threshold = c.threshold;
        return std::make_unique<SetCoverAnySolver>(
            "emek_rosen", std::make_unique<EmekRosenSetCover>(c),
            [threshold](const SetStream& stream) -> Status {
              if (threshold > stream.universe_size()) {
                return Status::OutOfRange(
                    "emek_rosen: option 'threshold' = '" +
                    std::to_string(threshold) +
                    "' exceeds the streamed universe size n = " +
                    std::to_string(stream.universe_size()) +
                    " (no set could qualify as big); legal range [0, n], "
                    "0 = sqrt(n) default");
              }
              return Status::Ok();
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
        return std::make_unique<SetCoverAnySolver>(
            "one_pass", std::make_unique<OnePassSetCover>(c));
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
        return std::make_unique<SetCoverAnySolver>(
            "threshold_greedy",
            std::make_unique<ThresholdGreedySetCover>(c));
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
        return std::make_unique<MaxCoverageAnySolver>(
            "sieve_mc", std::make_unique<SieveMaxCoverage>(c),
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
        return std::make_unique<MaxCoverageAnySolver>(
            "element_sampling_mc",
            std::make_unique<ElementSamplingMaxCoverage>(c),
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
        return std::make_unique<PairFinderAnySolver>("pair_finder", c);
      });
}

}  // namespace streamsc
