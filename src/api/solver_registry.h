#ifndef STREAMSC_API_SOLVER_REGISTRY_H_
#define STREAMSC_API_SOLVER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/solve_report.h"
#include "api/solver_options.h"
#include "stream/set_stream.h"
#include "stream/stream_algorithm.h"
#include "util/status.h"

/// \file solver_registry.h
/// SolverRegistry: the string-keyed front door to every streaming solver
/// in core/. Before it existed the repo exposed the paper's family of
/// pass/space/approximation trade-offs as 9 unrelated config structs, and
/// every bench, test, and CLI hand-wired its own subset — `workload_tool
/// solve` could literally only run Assadi. The registry gives each solver
/// configuration a stable name, a self-describing option schema
/// (solver_options.h), and one uniform runnable shape (AnySolver), so any
/// caller can drive any solver data-driven:
///
///   auto solver = SolverRegistry::Global().Create(
///       "assadi", {"alpha=2", "epsilon=0.5"});
///   if (!solver.ok()) { /* actionable Status, never an abort */ }
///   StatusOr<SolveReport> report = (*solver)->Run(stream, RunContext{});
///
/// Construction-time validation is two-tier by design: the registry
/// parses and range-checks *user input* into Status errors, while the
/// config-struct constructors keep their STREAMSC_CHECKs as the
/// programmer-misuse backstop (death-tested per solver). Registry ranges
/// are at least as strict as the CHECKs, so Create() can never abort.

namespace streamsc {

/// A solver created by the registry: options already bound, runnable over
/// any SetStream with per-run execution resources (RunContext). Stateless
/// across runs — the same AnySolver may be Run() repeatedly, also on
/// different streams. One concrete class for every family: the family
/// lives in the run callback the registry binds, which runs the algorithm
/// and maps its result to the report's solution, feasible and extra
/// fields (see SolverKind).
class AnySolver {
 public:
  /// One run of the bound algorithm. Stream-dependent option misuse (an
  /// emek_rosen threshold larger than the stream's universe) returns a
  /// Status before anything runs.
  using RunFn =
      std::function<StatusOr<SolverRun>(SetStream&, const RunContext&)>;

  AnySolver(std::string solver, SolverKind kind, std::string algorithm_name,
            RunFn run)
      : solver_(std::move(solver)),
        kind_(kind),
        algorithm_name_(std::move(algorithm_name)),
        run_(std::move(run)) {}

  /// Registry key this solver was created under.
  const std::string& solver() const { return solver_; }

  /// Problem family (drives interpretation of SolveReport fields).
  SolverKind kind() const { return kind_; }

  /// Parametrized display name, e.g. "assadi(alpha=2,eps=0.500000)".
  /// Computed once at construction; returning it never rebuilds it.
  const std::string& algorithm_name() const { return algorithm_name_; }

  /// Runs over \p stream under one solver trace span and one timer,
  /// writing the outcome into \p report (which must be non-null) through
  /// FillReport: every solver-filled field is overwritten, the
  /// session-filled fields (source/threads/arena_*) are left untouched.
  /// Reusing one SolveReport across runs reaches a zero-allocation steady
  /// state: its strings and solution vector keep their capacity, and with
  /// a warm RunContext arena the whole run touches no heap (the `alloc`
  /// test label pins this down for all nine solvers).
  Status RunInto(SetStream& stream, const RunContext& context,
                 SolveReport* report) const;

  /// Convenience wrapper over RunInto with a fresh report.
  StatusOr<SolveReport> Run(SetStream& stream,
                            const RunContext& context) const {
    SolveReport report;
    const Status status = RunInto(stream, context, &report);
    if (!status.ok()) return status;
    return report;
  }

 private:
  std::string solver_;
  SolverKind kind_;
  std::string algorithm_name_;
  RunFn run_;
};

/// Everything a caller needs to present a registered solver: key, family,
/// one-line summary, and the full option schema.
struct SolverInfo {
  std::string name;
  SolverKind kind = SolverKind::kSetCover;
  std::string summary;
  std::vector<OptionDescriptor> options;
};

/// The process-wide, immutable-after-construction solver catalogue.
class SolverRegistry {
 public:
  /// The global registry with all 9 built-in solver configurations:
  /// assadi, har_peled, demaine, emek_rosen, one_pass, threshold_greedy,
  /// sieve_mc, element_sampling_mc, pair_finder.
  static const SolverRegistry& Global();

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Metadata for \p name, or nullptr if not registered.
  const SolverInfo* Find(const std::string& name) const;

  /// Parses \p options (key=value strings) against \p name's schema and
  /// constructs the solver. Unknown solver, unknown key, malformed value,
  /// and out-of-range value all return a Status quoting the offending
  /// input and the legal alternatives — never an abort.
  StatusOr<std::unique_ptr<AnySolver>> Create(
      const std::string& name,
      const std::vector<std::string>& options) const;

 private:
  using Factory =
      std::function<std::unique_ptr<AnySolver>(const ParsedOptions&)>;

  struct Entry {
    SolverInfo info;
    Factory make;
  };

  SolverRegistry();  // registers the built-ins

  void Register(SolverInfo info, Factory make);

  std::map<std::string, Entry> entries_;
};

}  // namespace streamsc

#endif  // STREAMSC_API_SOLVER_REGISTRY_H_
