#include "api/solve_report.h"

namespace streamsc {

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSetCover:
      return "set-cover";
    case SolverKind::kMaxCoverage:
      return "max-coverage";
    case SolverKind::kPairFinder:
      return "pair-finder";
  }
  return "unknown";
}

void FillReport(const std::string& solver, SolverKind kind,
                const std::string& algorithm, const SolverRun& run,
                double wall_seconds, SolveReport* report) {
  report->solver = solver;
  report->kind = kind;
  report->algorithm = algorithm;
  report->solution = run.solution;
  report->feasible = run.feasible;
  report->extra = run.extra;
  report->passes = run.stats.passes;
  report->peak_space_bytes = run.stats.peak_space_bytes;
  report->counters = run.stats.counters;
  report->wall_seconds = wall_seconds;
  report->pass_breakdown.clear();
}

}  // namespace streamsc
