// Golden pin for the sampling solvers' õpt-guess driver (assadi,
// har_peled, demaine). Every expected fingerprint below was recorded
// while each solver still ran its own hand-rolled driver; a refactor of
// the shared driver or of the sample/project/solve/subtract step must
// leave them unchanged — chosen ids in take order, feasibility, passes,
// peak space, the engine's take counters and every interned counter, at
// one and two threads.
//
// One deliberate exception: the sub-solve memo. The cases with a
// saturated sample and a greedy sub-solve (demaine alpha 2 and 4,
// assadi use_exact_subsolver=false) were re-pinned when later guesses
// started reusing the first guess's sub-solve. Only passes,
// engine.passes, engine.items_scanned, engine.shard_* and
// offline.subsolve_memo_hits moved; chosen, feasible, space, taken and
// covered kept their original values. The differential test at the end
// of this file checks every memoized run against memo-less replays.
//
// CoverRunGoldenTest pins the same fingerprint for the single-run
// set-cover solvers (threshold_greedy, one_pass, emek_rosen) and for the
// session's warm re-solve, plus the names of every registry default, so
// the run state and report fill those share can be refactored safely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/solve_session.h"
#include "api/solver_registry.h"
#include "core/assadi_set_cover.h"
#include "core/demaine_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "storage/binary_instance_writer.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/arena.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

// One line holding everything the pin covers. Counters are listed by name
// (interning order is per process), so the string is stable across runs.
std::string Fingerprint(const Solution& solution, bool feasible,
                        std::uint64_t passes, Bytes peak_space_bytes,
                        std::uint64_t sets_taken,
                        std::uint64_t elements_covered,
                        const CounterSet& counters) {
  std::ostringstream out;
  out << "chosen=[";
  for (std::size_t i = 0; i < solution.size(); ++i) {
    out << (i == 0 ? "" : ",") << solution.chosen[i];
  }
  out << "] feasible=" << feasible << " passes=" << passes
      << " space=" << peak_space_bytes << " taken=" << sets_taken
      << " covered=" << elements_covered << " counters={";
  std::vector<std::pair<std::string, std::uint64_t>> values;
  counters.ForEachNonZero(
      [&](CounterId id, CounterKind /*kind*/, std::uint64_t value) {
        values.emplace_back(std::string(id.name()), value);
      });
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << values[i].first << ":" << values[i].second;
  }
  out << "}";
  return out.str();
}

SetSystem PlantedInstance() {
  Rng rng(21);
  return PlantedCoverInstance(768, 64, 4, rng);
}

SetSystem UniformInstance() {
  Rng rng(22);
  return UniformRandomInstance(512, 64, 48, rng);
}

std::string RegistryFingerprint(const SetSystem& system,
                                const std::string& solver,
                                const std::vector<std::string>& options,
                                std::size_t threads) {
  StatusOr<std::unique_ptr<AnySolver>> created =
      SolverRegistry::Global().Create(solver, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return "";
  const std::unique_ptr<ParallelPassEngine> engine = MakeEngine(threads);
  RunContext context;
  context.engine = engine.get();
  VectorSetStream stream(system);
  StatusOr<SolveReport> report = (*created)->Run(stream, context);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  return Fingerprint(report->solution, report->feasible, report->passes,
                     report->peak_space_bytes,
                     report->counters.value(engine_counters::SetsTaken()),
                     report->counters.value(engine_counters::ElementsCovered()),
                     report->counters);
}

// A registry configuration run on one instance at one engine width.
struct GoldenCase {
  const char* solver;
  std::vector<std::string> options;
  const char* instance;  // "planted" or "uniform"
  std::size_t threads;
  const char* expected;
};

// The configurations reach every branch of the per-guess step: the exact
// sub-solve (proven-infeasible guesses and, at exact_node_budget=1,
// budget-stopped ones), assadi's greedy ablation, a single known õpt that
// fails, demaine's full-universe phases (alpha 2 and 4 sample at rate 1)
// and, at alpha 8 with a tiny sampling boost, empty samples plus the
// cleanup pass or, without it, partial covers that fail their guess.
const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase> cases = {
      {"assadi", {}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=9 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:576,"
       "engine.passes:9,engine.sets_taken:4,offline.exact_nodes:4}"},
      {"assadi", {}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=9 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:576,"
       "engine.passes:9,engine.sets_taken:4,engine.shard_items:512,"
       "engine.shard_jobs:8,offline.exact_nodes:4}"},
      {"assadi", {}, "uniform", 1,
       "chosen=[0,1,2,3,4,6,8,12,19,26,21,7,34,62,10,41,38,39,25,16,32,60,56,"
       "35,22,58,31,11,24,33,29,20] feasible=1 passes=21 space=4416 taken=36 "
       "covered=686 counters={engine.elements_covered:686,"
       "engine.items_scanned:1344,engine.passes:21,engine.sets_taken:36,"
       "offline.exact_nodes:59368}"},
      {"assadi", {}, "uniform", 2,
       "chosen=[0,1,2,3,4,6,8,12,19,26,21,7,34,62,10,41,38,39,25,16,32,60,56,"
       "35,22,58,31,11,24,33,29,20] feasible=1 passes=21 space=4416 taken=36 "
       "covered=686 counters={engine.elements_covered:686,"
       "engine.items_scanned:1344,engine.passes:21,engine.sets_taken:36,"
       "engine.shard_items:1280,engine.shard_jobs:20,"
       "offline.exact_nodes:59368}"},
      {"assadi", {"use_exact_subsolver=false"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=5 space=6496 taken=8 covered=1536 "
       "counters={engine.elements_covered:1536,engine.items_scanned:320,"
       "engine.passes:5,engine.sets_taken:8,offline.subsolve_memo_hits:1}"},
      {"assadi", {"use_exact_subsolver=false"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=5 space=6496 taken=8 covered=1536 "
       "counters={engine.elements_covered:1536,engine.items_scanned:320,"
       "engine.passes:5,engine.sets_taken:8,engine.shard_items:192,"
       "engine.shard_jobs:3,offline.subsolve_memo_hits:1}"},
      {"assadi", {"use_exact_subsolver=false"}, "uniform", 1,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=17 "
       "space=4416 taken=288 covered=4096 "
       "counters={engine.elements_covered:4096,engine.items_scanned:1088,"
       "engine.passes:17,engine.sets_taken:288,offline.subsolve_memo_hits:7}"},
      {"assadi", {"use_exact_subsolver=false"}, "uniform", 2,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=17 "
       "space=4416 taken=288 covered=4096 "
       "counters={engine.elements_covered:4096,engine.items_scanned:1088,"
       "engine.passes:17,engine.sets_taken:288,engine.shard_items:576,"
       "engine.shard_jobs:9,offline.subsolve_memo_hits:7}"},
      {"assadi", {"exact_node_budget=1"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=9 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:576,"
       "engine.passes:9,engine.sets_taken:4,offline.exact_nodes:4}"},
      {"assadi", {"exact_node_budget=1"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=9 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:576,"
       "engine.passes:9,engine.sets_taken:4,engine.shard_items:512,"
       "engine.shard_jobs:8,offline.exact_nodes:4}"},
      {"assadi", {"exact_node_budget=1"}, "uniform", 1,
       "chosen=[0,1,2,3,4,6,8,12,19,32,47,62,10,63,24,40,35,38,16,7,11,22,60,"
       "25,41,56,20,21,31,33,39,26,28] feasible=1 passes=21 space=4416 "
       "taken=37 covered=686 counters={engine.elements_covered:686,"
       "engine.items_scanned:1344,engine.passes:21,engine.sets_taken:37,"
       "offline.exact_budget_failures:3,offline.exact_budget_hits:4,"
       "offline.exact_nodes:14}"},
      {"assadi", {"exact_node_budget=1"}, "uniform", 2,
       "chosen=[0,1,2,3,4,6,8,12,19,32,47,62,10,63,24,40,35,38,16,7,11,22,60,"
       "25,41,56,20,21,31,33,39,26,28] feasible=1 passes=21 space=4416 "
       "taken=37 covered=686 counters={engine.elements_covered:686,"
       "engine.items_scanned:1344,engine.passes:21,engine.sets_taken:37,"
       "engine.shard_items:1280,engine.shard_jobs:20,"
       "offline.exact_budget_failures:3,offline.exact_budget_hits:4,"
       "offline.exact_nodes:14}"},
      {"assadi", {"known_opt=4"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,offline.exact_nodes:1}"},
      {"assadi", {"known_opt=4"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,engine.shard_items:128,"
       "engine.shard_jobs:2,offline.exact_nodes:1}"},
      {"assadi", {"known_opt=4"}, "uniform", 1,
       "chosen=[] feasible=0 passes=2 space=4416 taken=0 covered=0 "
       "counters={engine.items_scanned:128,engine.passes:2,"
       "offline.exact_nodes:1}"},
      {"assadi", {"known_opt=4"}, "uniform", 2,
       "chosen=[] feasible=0 passes=2 space=4416 taken=0 covered=0 "
       "counters={engine.items_scanned:128,engine.passes:2,"
       "engine.shard_items:128,engine.shard_jobs:2,offline.exact_nodes:1}"},
      {"har_peled", {}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,offline.exact_nodes:1}"},
      {"har_peled", {}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,engine.shard_items:192,"
       "engine.shard_jobs:3,offline.exact_nodes:1}"},
      {"har_peled", {}, "uniform", 1,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,29,32,41,"
       "52,26,21,39,34,53,27,60,58,31,38,33,48,43] feasible=1 passes=13 "
       "space=4416 taken=60 covered=1190 "
       "counters={engine.elements_covered:1190,engine.items_scanned:832,"
       "engine.passes:13,engine.sets_taken:60,offline.exact_nodes:1006}"},
      {"har_peled", {}, "uniform", 2,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,29,32,41,"
       "52,26,21,39,34,53,27,60,58,31,38,33,48,43] feasible=1 passes=13 "
       "space=4416 taken=60 covered=1190 "
       "counters={engine.elements_covered:1190,engine.items_scanned:832,"
       "engine.passes:13,engine.sets_taken:60,engine.shard_items:768,"
       "engine.shard_jobs:12,offline.exact_nodes:1006}"},
      {"har_peled", {"exact_node_budget=1"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,offline.exact_nodes:1}"},
      {"har_peled", {"exact_node_budget=1"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,engine.shard_items:192,"
       "engine.shard_jobs:3,offline.exact_nodes:1}"},
      {"har_peled", {"exact_node_budget=1"}, "uniform", 1,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,29,32,41,"
       "52,31,27,34,30,43,22,49,21,25,26,33,39,42,47,53] feasible=1 "
       "passes=13 space=4416 taken=62 covered=1190 "
       "counters={engine.elements_covered:1190,engine.items_scanned:832,"
       "engine.passes:13,engine.sets_taken:62,"
       "offline.exact_budget_failures:1,offline.exact_budget_hits:2,"
       "offline.exact_nodes:8}"},
      {"har_peled", {"exact_node_budget=1"}, "uniform", 2,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,29,32,41,"
       "52,31,27,34,30,43,22,49,21,25,26,33,39,42,47,53] feasible=1 "
       "passes=13 space=4416 taken=62 covered=1190 "
       "counters={engine.elements_covered:1190,engine.items_scanned:832,"
       "engine.passes:13,engine.sets_taken:62,engine.shard_items:768,"
       "engine.shard_jobs:12,offline.exact_budget_failures:1,"
       "offline.exact_budget_hits:2,offline.exact_nodes:8}"},
      {"demaine", {"alpha=2"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=8 covered=1536 "
       "counters={engine.elements_covered:1536,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:8,offline.subsolve_memo_hits:1}"},
      {"demaine", {"alpha=2"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=6496 taken=8 covered=1536 "
       "counters={engine.elements_covered:1536,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:8,engine.shard_items:64,"
       "engine.shard_jobs:1,offline.subsolve_memo_hits:1}"},
      {"demaine", {"alpha=2"}, "uniform", 1,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=7 "
       "space=4416 taken=216 covered=3072 "
       "counters={engine.elements_covered:3072,engine.items_scanned:448,"
       "engine.passes:7,engine.sets_taken:216,offline.subsolve_memo_hits:5}"},
      {"demaine", {"alpha=2"}, "uniform", 2,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=7 "
       "space=4416 taken=216 covered=3072 "
       "counters={engine.elements_covered:3072,engine.items_scanned:448,"
       "engine.passes:7,engine.sets_taken:216,engine.shard_items:64,"
       "engine.shard_jobs:1,offline.subsolve_memo_hits:5}"},
      {"demaine", {"alpha=4"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=2 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:4}"},
      {"demaine", {"alpha=4"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=2 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:4,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
      {"demaine", {"alpha=4"}, "uniform", 1,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=6 "
       "space=4416 taken=180 covered=2560 "
       "counters={engine.elements_covered:2560,engine.items_scanned:384,"
       "engine.passes:6,engine.sets_taken:180,offline.subsolve_memo_hits:4}"},
      {"demaine", {"alpha=4"}, "uniform", 2,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=6 "
       "space=4416 taken=180 covered=2560 "
       "counters={engine.elements_covered:2560,engine.items_scanned:384,"
       "engine.passes:6,engine.sets_taken:180,engine.shard_items:64,"
       "engine.shard_jobs:1,offline.subsolve_memo_hits:4}"},
      {"demaine", {"ensure_feasible=false"}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=2 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:4}"},
      {"demaine", {"ensure_feasible=false"}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=2 space=6496 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:4,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
      {"demaine", {"ensure_feasible=false"}, "uniform", 1,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=6 "
       "space=4416 taken=180 covered=2560 "
       "counters={engine.elements_covered:2560,engine.items_scanned:384,"
       "engine.passes:6,engine.sets_taken:180,offline.subsolve_memo_hits:4}"},
      {"demaine", {"ensure_feasible=false"}, "uniform", 2,
       "chosen=[0,11,7,32,19,10,12,62,2,8,38,24,63,27,47,33,35,3,14,40,60,9,"
       "22,26,51,20,56,1,4,16,21,23,25,28,39,41] feasible=1 passes=6 "
       "space=4416 taken=180 covered=2560 "
       "counters={engine.elements_covered:2560,engine.items_scanned:384,"
       "engine.passes:6,engine.sets_taken:180,engine.shard_items:64,"
       "engine.shard_jobs:1,offline.subsolve_memo_hits:4}"},
      {"demaine", {"alpha=8", "sampling_boost=0.05"}, "planted", 1,
       "chosen=[5,8,0,2,1,3] feasible=1 passes=8 space=804 taken=6 "
       "covered=768 counters={engine.elements_covered:768,"
       "engine.items_scanned:512,engine.passes:8,engine.sets_taken:6}"},
      {"demaine", {"alpha=8", "sampling_boost=0.05"}, "planted", 2,
       "chosen=[5,8,0,2,1,3] feasible=1 passes=8 space=804 taken=6 "
       "covered=768 counters={engine.elements_covered:768,"
       "engine.items_scanned:512,engine.passes:8,engine.sets_taken:6,"
       "engine.shard_items:256,engine.shard_jobs:4}"},
      {"demaine", {"alpha=8", "sampling_boost=0.05"}, "uniform", 1,
       "chosen=[4,9,19,40,11,31,1,39,2,29,8,0,14,10,12,15,3,5,6,7,13,16,17,"
       "18,20,21,22,23,24,25,26,27,28,30,32,33,34,38,41,42,43,47,53] "
       "feasible=1 passes=64 space=568 taken=172 covered=2048 "
       "counters={engine.elements_covered:2048,engine.items_scanned:4096,"
       "engine.passes:64,engine.sets_taken:172}"},
      {"demaine", {"alpha=8", "sampling_boost=0.05"}, "uniform", 2,
       "chosen=[4,9,19,40,11,31,1,39,2,29,8,0,14,10,12,15,3,5,6,7,13,16,17,"
       "18,20,21,22,23,24,25,26,27,28,30,32,33,34,38,41,42,43,47,53] "
       "feasible=1 passes=64 space=568 taken=172 covered=2048 "
       "counters={engine.elements_covered:2048,engine.items_scanned:4096,"
       "engine.passes:64,engine.sets_taken:172,engine.shard_items:1920,"
       "engine.shard_jobs:30}"},
      {"demaine",
       {"alpha=8", "sampling_boost=0.05", "ensure_feasible=false"},
       "planted", 1,
       "chosen=[5,8,0,2,1,3] feasible=1 passes=8 space=804 taken=6 "
       "covered=768 counters={engine.elements_covered:768,"
       "engine.items_scanned:512,engine.passes:8,engine.sets_taken:6}"},
      {"demaine",
       {"alpha=8", "sampling_boost=0.05", "ensure_feasible=false"},
       "planted", 2,
       "chosen=[5,8,0,2,1,3] feasible=1 passes=8 space=804 taken=6 "
       "covered=768 counters={engine.elements_covered:768,"
       "engine.items_scanned:512,engine.passes:8,engine.sets_taken:6,"
       "engine.shard_items:256,engine.shard_jobs:4}"},
      {"demaine",
       {"alpha=8", "sampling_boost=0.05", "ensure_feasible=false"},
       "uniform", 1,
       "chosen=[45,8,59,7,25,0,29,13,5,23,41,33,20,1,24,2,30,32,12,62,19,6,"
       "10,15,22,39,58,16,34,38,51,27,3,31,11,21,26,42] feasible=1 "
       "passes=104 space=692 taken=150 covered=3071 "
       "counters={engine.elements_covered:3071,engine.items_scanned:6656,"
       "engine.passes:104,engine.sets_taken:150}"},
      {"demaine",
       {"alpha=8", "sampling_boost=0.05", "ensure_feasible=false"},
       "uniform", 2,
       "chosen=[45,8,59,7,25,0,29,13,5,23,41,33,20,1,24,2,30,32,12,62,19,6,"
       "10,15,22,39,58,16,34,38,51,27,3,31,11,21,26,42] feasible=1 "
       "passes=104 space=692 taken=150 covered=3071 "
       "counters={engine.elements_covered:3071,engine.items_scanned:6656,"
       "engine.passes:104,engine.sets_taken:150,engine.shard_items:3328,"
       "engine.shard_jobs:52}"},
  };
  return cases;
}

TEST(GuessDriverGoldenTest, RegistryRunsMatchThePinnedFingerprints) {
  const SetSystem planted = PlantedInstance();
  const SetSystem uniform = UniformInstance();
  for (const GoldenCase& c : GoldenCases()) {
    std::string label = std::string(c.solver) + " " + c.instance +
                        " threads=" + std::to_string(c.threads);
    for (const std::string& option : c.options) label += " " + option;
    SCOPED_TRACE(label);
    const SetSystem& system =
        std::string(c.instance) == "planted" ? planted : uniform;
    EXPECT_EQ(RegistryFingerprint(system, c.solver, c.options, c.threads),
              c.expected);
  }
}

// The single-run set-cover solvers at their registry defaults: the same
// fingerprint as above, so a change to how they keep U and the solution
// (or to how the registry fills their report) must leave it unchanged.
const std::vector<GoldenCase>& CoverRunCases() {
  static const std::vector<GoldenCase> cases = {
      {"threshold_greedy", {}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=112 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4}"},
      {"threshold_greedy", {}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=3 space=112 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:192,"
       "engine.passes:3,engine.sets_taken:4,engine.shard_items:192,"
       "engine.shard_jobs:3}"},
      {"threshold_greedy", {}, "uniform", 1,
       "chosen=[0,1,2,3,4,8,32,5,6,7,9,10,11,12,19,63,14,15,18,21,35,44,22,27,"
       "29,30,38,58,26,31,33,34,41,13,25,39,42,53] feasible=1 passes=10 "
       "space=216 taken=38 covered=512 counters={engine.elements_covered:512,"
       "engine.items_scanned:640,engine.passes:10,engine.sets_taken:38}"},
      {"threshold_greedy", {}, "uniform", 2,
       "chosen=[0,1,2,3,4,8,32,5,6,7,9,10,11,12,19,63,14,15,18,21,35,44,22,27,"
       "29,30,38,58,26,31,33,34,41,13,25,39,42,53] feasible=1 passes=10 "
       "space=216 taken=38 covered=512 counters={engine.elements_covered:512,"
       "engine.items_scanned:640,engine.passes:10,engine.sets_taken:38,"
       "engine.shard_items:640,engine.shard_jobs:10}"},
      {"one_pass", {}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=1 space=112 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:4}"},
      {"one_pass", {}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=1 space=112 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:4,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
      {"one_pass", {}, "uniform", 1,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,"
       "24,25,26,27,28,29,30,31,32,33,34,38,39,41,42,43,47,53] feasible=1 "
       "passes=1 space=232 taken=42 covered=512 "
       "counters={engine.elements_covered:512,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:42}"},
      {"one_pass", {}, "uniform", 2,
       "chosen=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,"
       "24,25,26,27,28,29,30,31,32,33,34,38,39,41,42,43,47,53] feasible=1 "
       "passes=1 space=232 taken=42 covered=512 "
       "counters={engine.elements_covered:512,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:42,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
      {"emek_rosen", {}, "planted", 1,
       "chosen=[0,1,2,3] feasible=1 passes=1 space=3184 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:4}"},
      {"emek_rosen", {}, "planted", 2,
       "chosen=[0,1,2,3] feasible=1 passes=1 space=3184 taken=4 covered=768 "
       "counters={engine.elements_covered:768,engine.items_scanned:64,"
       "engine.passes:1,engine.sets_taken:4,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
      {"emek_rosen", {}, "uniform", 1,
       "chosen=[0,1,2,3,4,5,6,8,10,12,19,32,7,9,11,13,14,15,16,17,18,20,21,22,"
       "23,24,25,26,27,28,29,30,31,33,34,38,39,41,42,43,47,53] feasible=1 "
       "passes=2 space=2280 taken=42 covered=512 "
       "counters={engine.elements_covered:512,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:42}"},
      {"emek_rosen", {}, "uniform", 2,
       "chosen=[0,1,2,3,4,5,6,8,10,12,19,32,7,9,11,13,14,15,16,17,18,20,21,22,"
       "23,24,25,26,27,28,29,30,31,33,34,38,39,41,42,43,47,53] feasible=1 "
       "passes=2 space=2280 taken=42 covered=512 "
       "counters={engine.elements_covered:512,engine.items_scanned:128,"
       "engine.passes:2,engine.sets_taken:42,engine.shard_items:64,"
       "engine.shard_jobs:1}"},
  };
  return cases;
}

TEST(CoverRunGoldenTest, RegistryRunsMatchThePinnedFingerprints) {
  const SetSystem planted = PlantedInstance();
  const SetSystem uniform = UniformInstance();
  for (const GoldenCase& c : CoverRunCases()) {
    SCOPED_TRACE(std::string(c.solver) + " " + c.instance +
                 " threads=" + std::to_string(c.threads));
    const SetSystem& system =
        std::string(c.instance) == "planted" ? planted : uniform;
    EXPECT_EQ(RegistryFingerprint(system, c.solver, c.options, c.threads),
              c.expected);
  }
}

// The name, family and display name of every registry default.
TEST(CoverRunGoldenTest, RegistryDefaultsKeepTheirNames) {
  std::string names;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    StatusOr<std::unique_ptr<AnySolver>> created =
        SolverRegistry::Global().Create(name, {});
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    names += (*created)->solver() + "|" +
             SolverKindName((*created)->kind()) + "|" +
             (*created)->algorithm_name() + "\n";
  }
  EXPECT_EQ(names,
            "assadi|set-cover|assadi(alpha=2,eps=0.500000)\n"
            "demaine|set-cover|demaine(alpha=4)\n"
            "element_sampling_mc|max-coverage|"
            "element-sampling-mc(eps=0.100000)[k=3]\n"
            "emek_rosen|set-cover|emek-rosen(sqrt n)\n"
            "har_peled|set-cover|har-peled(alpha=2)\n"
            "one_pass|set-cover|one-pass-greedy(frac=0.000000)\n"
            "pair_finder|pair-finder|exact-pair-finder(p=4)\n"
            "sieve_mc|max-coverage|sieve-mc(eps=0.100000)[k=3]\n"
            "threshold_greedy|set-cover|threshold-greedy(beta=2.000000)\n");
}

// The warm re-solve of an overlay session: the cold assadi alpha=2 solve
// memoizes its cover, a delta is applied, and the second solve keeps the
// surviving prefix. Pinned with the report's solver and algorithm, and
// its warm-start fields.
std::string WarmFingerprint(const SolveReport& report) {
  return Fingerprint(report.solution, report.feasible, report.passes,
                     report.peak_space_bytes,
                     report.counters.value(engine_counters::SetsTaken()),
                     report.counters.value(engine_counters::ElementsCovered()),
                     report.counters) +
         " solver=" + report.solver + " algorithm=" + report.algorithm +
         " warm=" + std::to_string(report.warm_start) +
         " prefix=" + std::to_string(report.surviving_prefix) +
         " residue=" + std::to_string(report.residue_elements);
}

// Which delta the warm re-solve sees.
enum class WarmDelta {
  kUnchanged,       // nothing: the whole memo survives, no residue
  kBenign,          // two added sets and one unchosen slot removed
  kReplaceLastPick  // the last chosen slot rewritten: a residue to re-cover
};

std::string WarmReSolveFingerprint(std::uint64_t seed, WarmDelta delta) {
  ScopedTempDir dir;
  Rng rng(seed);
  const SetSystem base = PlantedCoverInstance(512, 32, 2, rng);
  const std::string base_path = dir.FilePath("base.sscb1");
  const std::string delta_path = dir.FilePath("delta.sscd1");
  EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(base, base_path).ok());
  EXPECT_TRUE(
      DeltaLogWriter(delta_path, base.universe_size(), base.num_sets())
          .Finish()
          .ok());
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(base_path, delta_path);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return "";
  const std::vector<std::string> args = {"alpha=2"};
  StatusOr<SolveReport> cold = session->Solve("assadi", args);
  EXPECT_TRUE(cold.ok() && cold->feasible);
  if (!cold.ok()) return "";

  if (delta != WarmDelta::kUnchanged) {
    const OverlaySetStream& overlay = *session->overlay();
    std::vector<bool> chosen_slot(overlay.num_slots(), false);
    for (const SetId id : cold->solution.chosen) {
      chosen_slot[overlay.live_to_slot(id)] = true;
    }
    DeltaLogWriter writer(delta_path);
    EXPECT_TRUE(writer.status().ok()) << writer.status().ToString();
    if (delta == WarmDelta::kBenign) {
      Rng set_rng(13);
      for (int added = 0; added < 2; ++added) {
        DynamicBitset set(base.universe_size());
        while (set.CountSet() < 16) {
          set.Set(static_cast<std::size_t>(
              set_rng.UniformInt(base.universe_size())));
        }
        EXPECT_TRUE(writer.AddSet(set).ok());
      }
      const auto victim =
          std::find(chosen_slot.begin(), chosen_slot.end(), false);
      EXPECT_NE(victim, chosen_slot.end());
      EXPECT_TRUE(writer.RemoveSet(static_cast<std::uint64_t>(
                                       victim - chosen_slot.begin()))
                      .ok());
    } else {
      EXPECT_TRUE(writer
                      .ReplaceSet(overlay.live_to_slot(
                                      cold->solution.chosen.back()),
                                  DynamicBitset::Full(base.universe_size()))
                      .ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(session->RefreshDelta().ok());
  }

  StatusOr<SolveReport> warm = session->Solve("assadi", args);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  if (!warm.ok()) return "";
  return WarmFingerprint(*warm);
}

TEST(CoverRunGoldenTest, WarmReSolvesMatchThePinnedFingerprints) {
  EXPECT_EQ(WarmReSolveFingerprint(7, WarmDelta::kUnchanged),
            "chosen=[0,1] feasible=1 passes=1 space=72 taken=2 covered=512 "
            "counters={arena.high_water_bytes:72,arena.reserved_bytes:65536,"
            "dynamic.surviving_prefix:2,dynamic.warm_solves:1,"
            "engine.elements_covered:512,engine.items_scanned:32,"
            "engine.passes:1,engine.sets_taken:2} solver=assadi "
            "algorithm=assadi(alpha=2,eps=0.500000) warm=1 prefix=2 residue=0");
  EXPECT_EQ(WarmReSolveFingerprint(11, WarmDelta::kBenign),
            "chosen=[0,1] feasible=1 passes=1 space=72 taken=2 covered=512 "
            "counters={arena.high_water_bytes:72,arena.reserved_bytes:65536,"
            "dynamic.delta_records:3,dynamic.surviving_prefix:2,"
            "dynamic.warm_solves:1,engine.elements_covered:512,"
            "engine.items_scanned:33,engine.passes:1,engine.sets_taken:2} "
            "solver=assadi algorithm=assadi(alpha=2,eps=0.500000) warm=1 "
            "prefix=2 residue=0");
  EXPECT_EQ(WarmReSolveFingerprint(11, WarmDelta::kReplaceLastPick),
            "chosen=[0,1] feasible=1 passes=2 space=72 taken=2 covered=512 "
            "counters={arena.high_water_bytes:76,arena.reserved_bytes:65536,"
            "dynamic.delta_records:1,dynamic.residue_elements:256,"
            "dynamic.surviving_prefix:1,dynamic.warm_solves:1,"
            "engine.elements_covered:512,engine.items_scanned:64,"
            "engine.passes:2,engine.sets_taken:2} solver=assadi "
            "algorithm=assadi(alpha=2,eps=0.500000) warm=1 prefix=1 "
            "residue=256");
}

// A known õpt is one guess: Run must report exactly what RunWithGuess
// reports for that guess (same seed), so the driver adds no passes, no
// space and no sets of its own.
template <typename Solver, typename Config>
void ExpectKnownOptRunMatchesRunWithGuess(Config config,
                                          const SetSystem& system) {
  const std::size_t opt = 4;
  config.known_opt = opt;
  VectorSetStream run_stream(system);
  const SetCoverRunResult run = Solver(config).Run(run_stream);
  VectorSetStream guess_stream(system);
  Rng rng(config.seed);
  const GuessResult guess = Solver(config).RunWithGuess(guess_stream, opt, rng);
  EXPECT_EQ(run.stats.passes, guess.stats.passes);
  EXPECT_EQ(run.stats.peak_space_bytes, guess.stats.peak_space_bytes);
  EXPECT_EQ(run.stats.counters.value(engine_counters::SetsTaken()),
            guess.stats.counters.value(engine_counters::SetsTaken()));
  EXPECT_EQ(run.stats.counters.value(engine_counters::ElementsCovered()),
            guess.stats.counters.value(engine_counters::ElementsCovered()));
  EXPECT_EQ(run.feasible, guess.within_budget);
  if (run.feasible) {
    EXPECT_EQ(run.solution.chosen, guess.solution.chosen);
  }
}

TEST(GuessDriverGoldenTest, KnownOptRunMatchesRunWithGuess) {
  for (const SetSystem& system : {PlantedInstance(), UniformInstance()}) {
    ExpectKnownOptRunMatchesRunWithGuess<AssadiSetCover>(AssadiConfig{},
                                                         system);
    ExpectKnownOptRunMatchesRunWithGuess<HarPeledSetCover>(HarPeledConfig{},
                                                           system);
    ExpectKnownOptRunMatchesRunWithGuess<DemaineSetCover>(DemaineConfig{},
                                                          system);
  }
}

// Replays every guess Run tries, in RunGuesses' order, twice: through
// the memo-less RunWithGuess and through RunWithGuess with one shared
// SubsolveMemo, each with its own Rng(seed). Every memoized guess must
// report what its memo-less twin reports — cover, feasibility, space,
// take counters — with exactly one pass fewer per memo hit. The full
// Run (on a run arena, as the api layer runs it) must then match the
// memo-less replay's totals. Returns Run's hit count.
template <typename Solver, typename Config>
std::uint64_t ExpectRunMatchesReplay(const Config& config, double growth,
                                     const SetSystem& system) {
  static const CounterId hits_id =
      CounterId::Counter("offline.subsolve_memo_hits");
  const Solver solver(config);
  MonotonicArena arena;
  SubsolveMemo memo(&arena);
  Rng replay_rng(config.seed);
  Rng memo_rng(config.seed);
  Solution replay_solution;
  bool replay_feasible = false;
  std::uint64_t replay_passes = 0;
  std::uint64_t replay_hits = 0;
  Bytes replay_peak = 0;
  std::uint64_t replay_taken = 0;
  std::uint64_t replay_covered = 0;
  std::size_t prev = 0;
  for (double g = 1.0;
       static_cast<std::size_t>(g) <= system.universe_size(); g *= growth) {
    const std::size_t guess = static_cast<std::size_t>(std::ceil(g));
    if (guess == prev) continue;
    prev = guess;
    SCOPED_TRACE("guess=" + std::to_string(guess));
    VectorSetStream replay_stream(system);
    GuessResult r = solver.RunWithGuess(replay_stream, guess, replay_rng);
    VectorSetStream memo_stream(system);
    const GuessResult m =
        solver.RunWithGuess(memo_stream, guess, memo_rng, {}, &memo);
    const std::uint64_t hits = m.stats.counters.value(hits_id);
    EXPECT_EQ(m.solution.chosen, r.solution.chosen);
    EXPECT_EQ(m.within_budget, r.within_budget);
    EXPECT_EQ(m.stats.peak_space_bytes, r.stats.peak_space_bytes);
    EXPECT_EQ(m.stats.counters.value(engine_counters::SetsTaken()),
              r.stats.counters.value(engine_counters::SetsTaken()));
    EXPECT_EQ(m.stats.counters.value(engine_counters::ElementsCovered()),
              r.stats.counters.value(engine_counters::ElementsCovered()));
    EXPECT_EQ(m.stats.passes + hits, r.stats.passes);
    replay_hits += hits;
    replay_passes += r.stats.passes;
    replay_peak = std::max(replay_peak, r.stats.peak_space_bytes);
    replay_taken += r.stats.counters.value(engine_counters::SetsTaken());
    replay_covered +=
        r.stats.counters.value(engine_counters::ElementsCovered());
    if (r.within_budget) {
      replay_solution = std::move(r.solution);
      replay_feasible = true;
      break;
    }
  }

  MonotonicArena run_arena;
  RunContext context;
  context.arena = &run_arena;
  VectorSetStream stream(system);
  const SetCoverRunResult run = Solver(config).Run(stream, context);
  const std::uint64_t hits = run.stats.counters.value(hits_id);
  EXPECT_EQ(run.solution.chosen, replay_solution.chosen);
  EXPECT_EQ(run.feasible, replay_feasible);
  EXPECT_EQ(run.stats.peak_space_bytes, replay_peak);
  EXPECT_EQ(run.stats.counters.value(engine_counters::SetsTaken()),
            replay_taken);
  EXPECT_EQ(run.stats.counters.value(engine_counters::ElementsCovered()),
            replay_covered);
  EXPECT_EQ(run.stats.passes + hits, replay_passes);
  EXPECT_EQ(hits, replay_hits);
  return hits;
}

std::vector<std::pair<std::string, SetSystem>> DifferentialInstances(
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, SetSystem>> out;
  out.emplace_back("planted", PlantedCoverInstance(600, 48, 5, rng));
  out.emplace_back("uniform", UniformRandomInstance(400, 60, 40, rng));
  out.emplace_back("zipf", ZipfInstance(500, 80, 1.2, 120, rng));
  return out;
}

TEST(SubsolveMemoDifferentialTest, MemoizedRunsMatchMemolessReplays) {
  std::uint64_t total_hits = 0;
  for (const std::uint64_t seed : {3u, 17u, 41u}) {
    for (const auto& [family, system] : DifferentialInstances(seed)) {
      for (const std::size_t alpha : {2u, 4u}) {
        SCOPED_TRACE(family + " seed=" + std::to_string(seed) +
                     " demaine alpha=" + std::to_string(alpha));
        DemaineConfig config;
        config.alpha = alpha;
        config.seed = seed;
        total_hits +=
            ExpectRunMatchesReplay<DemaineSetCover>(config, 2.0, system);
      }
      SCOPED_TRACE(family + " seed=" + std::to_string(seed) +
                   " assadi use_exact_subsolver=false");
      AssadiConfig config;
      config.use_exact_subsolver = false;
      config.seed = seed;
      total_hits += ExpectRunMatchesReplay<AssadiSetCover>(
          config, 1.0 + config.epsilon, system);
    }
  }
  // The saturated configurations must actually exercise the memo.
  EXPECT_GT(total_hits, 0u);
}

// Below-one sampling rates draw from the Rng, so no step is memoized:
// demaine alpha=8 with a tiny boost, and assadi alpha=1 with a tiny boost,
// whose consecutive guesses often enter their one step with the same U.
TEST(SubsolveMemoDifferentialTest, SubSaturatedRatesNeverHit) {
  for (const SetSystem& system : {PlantedInstance(), UniformInstance()}) {
    DemaineConfig demaine;
    demaine.alpha = 8;
    demaine.sampling_boost = 0.05;
    EXPECT_EQ(ExpectRunMatchesReplay<DemaineSetCover>(demaine, 2.0, system),
              0u);
    AssadiConfig assadi;
    assadi.alpha = 1;
    assadi.sampling_boost = 0.001;
    assadi.use_exact_subsolver = false;
    EXPECT_EQ(ExpectRunMatchesReplay<AssadiSetCover>(
                  assadi, 1.0 + assadi.epsilon, system),
              0u);
  }
}

}  // namespace
}  // namespace streamsc
