// E14: the on-disk instance store — ssc1 text vs the sscb1 mmap store vs
// in-memory on a multi-pass solve.
//
// The streaming model is only honest at scale when the instance does not
// fit in memory; this bench measures what each disk path costs there:
//
//   memory  VectorSetStream over the generated SetSystem (upper bound:
//           what the paths below give up by leaving RAM);
//   ssc1    the text file mapped and parsed once by LoadSetSystem — the
//           same parser SolveSession::Open runs — then streamed from
//           memory ("ssc1 load + in-memory passes"; its ms include the
//           load, which also has its own row);
//   mmap    MmapSetStream serving zero-copy SetViews over the sscb1
//           binary store written by `convert` (TranscodeText), so the
//           ParallelPassEngine can shard disk-resident passes.
//
// Three measurements per source:
//
//   drain   P passes of read-everything (CountSet over every item): the
//           pure pass cost with no solver work;
//   assadi  the full multi-pass Assadi run (known õpt, greedy
//           sub-solver) with a thread sweep {1,2,8};
//   tgreedy multi-pass threshold greedy (β = 8), same sweep.
//
// The planted opt defaults to 8 so the Lemma 3.12 sampling rate stays
// below 1 at n = 1e6 (16·õpt·ln m < n^{1/α}·√n): that is the regime where
// Assadi's per-pass cost — not the offline sub-solve — dominates, i.e.
// exactly where the storage layer matters. The resulting sets are dense
// (n/8 elements), so this also exercises the sscb1 dense-words payloads;
// drain covers the sparse-payload path implicitly via the index checksum.
//
// Acceptance gates (defaults, n = 1e6):
//   [1] solving from ssc1 (load + 1-thread solve) takes <= 1.1x converting
//       to sscb1 and solving that (convert + 1-thread mmap solve), for
//       both Assadi and threshold greedy;
//   [2] Assadi and threshold-greedy solutions byte-identical across
//       {memory, ssc1, mmap} x {1, 2, 8} threads.
//
// Usage: bench_e14_disk [n] [opt] [decoys] [drain_passes]
//   defaults: n=1000000 opt=8 decoys=24 drain_passes=3
//   (planted block size = n/opt; m = opt + decoys)

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/assadi_set_cover.h"
#include "core/threshold_greedy.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/parallel_pass_engine.h"
#include "stream/set_stream.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace streamsc;

// A coverable planted instance: a partition into n/block blocks plus
// `decoys` random block-sized subsets (the e13 scale-family shape). With
// the default opt=8 the blocks are dense (n/8 elements each); pass a
// larger opt for the sparse-payload variant.
SetSystem PlantedBlocks(std::size_t n, std::size_t block, std::size_t decoys,
                        Rng& rng) {
  SetSystem system(n);
  for (std::size_t lo = 0; lo < n; lo += block) {
    std::vector<ElementId> members;
    for (std::size_t e = lo; e < std::min(lo + block, n); ++e) {
      members.push_back(static_cast<ElementId>(e));
    }
    system.AddSetFromIndices(members);
  }
  for (std::size_t d = 0; d < decoys; ++d) {
    system.AddSetFromIndices(rng.RandomSubsetOfSize(n, block).ToIndices());
  }
  return system;
}

// P read-everything passes; returns total ms and folds per-item counts
// into a checksum so the reads cannot be optimized away.
double DrainMs(SetStream& stream, int passes, Count* checksum) {
  Stopwatch timer;
  StreamItem item;
  for (int p = 0; p < passes; ++p) {
    stream.BeginPass();
    while (stream.Next(&item)) *checksum += item.set.CountSet();
  }
  return timer.ElapsedMillis();
}

struct SolveOutcome {
  ArenaVector<SetId> solution;
  std::uint64_t passes = 0;
  double millis = 0.0;
  bool feasible = false;
};

SolveOutcome Run(StreamingSetCoverAlgorithm& algorithm, SetStream& stream,
                 ParallelPassEngine* engine) {
  Stopwatch timer;
  RunContext context;
  context.engine = engine;
  const SetCoverRunResult result = algorithm.Run(stream, context);
  SolveOutcome out;
  out.millis = timer.ElapsedMillis();
  out.solution = result.solution.chosen;
  out.passes = result.stats.passes;
  out.feasible = result.feasible;
  return out;
}

SolveOutcome SolveAssadi(SetStream& stream, std::size_t known_opt,
                         ParallelPassEngine* engine) {
  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  config.seed = 11;
  config.known_opt = known_opt;
  // Greedy sub-solver: deterministic and fast at this sub-instance size,
  // so the timing isolates the streaming path, not branch-and-bound luck.
  config.use_exact_subsolver = false;
  AssadiSetCover algorithm(config);
  return Run(algorithm, stream, engine);
}

SolveOutcome SolveThresholdGreedy(SetStream& stream,
                                  ParallelPassEngine* engine) {
  ThresholdGreedyConfig config;
  config.beta = 8.0;  // fewer, fatter passes; still genuinely multi-pass
  ThresholdGreedySetCover algorithm(config);
  return Run(algorithm, stream, engine);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;
  const std::size_t opt = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const std::size_t decoys =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 24;
  const int drain_passes =
      argc > 4 ? static_cast<int>(std::strtoull(argv[4], nullptr, 10)) : 3;
  const std::size_t block = (n + opt - 1) / opt;

  bench::Banner("E14-disk",
                "solving from ssc1 (load once + in-memory passes) costs no "
                "more than convert + mmap solve; byte-identical solutions "
                "across {memory,ssc1,mmap} x {1,2,8} threads");
  bench::Params("n=" + std::to_string(n) + " block=" + std::to_string(block) +
                " opt=" + std::to_string(opt) +
                " decoys=" + std::to_string(decoys) +
                " drain_passes=" + std::to_string(drain_passes));

  Rng rng(7);
  const SetSystem system = PlantedBlocks(n, block, decoys, rng);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "streamsc_bench_e14";
  std::filesystem::create_directories(dir);
  const std::string text_path = (dir / "instance.ssc").string();
  const std::string binary_path = (dir / "instance.sscb1").string();

  Stopwatch timer;
  if (!SaveSetSystem(system, text_path).ok()) {
    std::cerr << "cannot write " << text_path << "\n";
    return 1;
  }
  const double save_text_ms = timer.ElapsedMillis();
  timer.Restart();
  if (!BinaryInstanceWriter::TranscodeText(text_path, binary_path).ok()) {
    std::cerr << "cannot transcode to " << binary_path << "\n";
    return 1;
  }
  const double convert_ms = timer.ElapsedMillis();
  timer.Restart();
  const StatusOr<SetSystem> loaded = LoadSetSystem(text_path);
  if (!loaded.ok()) {
    std::cerr << "ssc1 load failed: " << loaded.status().ToString() << "\n";
    return 1;
  }
  const double load_ms = timer.ElapsedMillis();
  std::cout << "# instance: m=" << system.num_sets() << " opt=" << opt
            << " text=" << HumanBytes(std::filesystem::file_size(text_path))
            << " binary="
            << HumanBytes(std::filesystem::file_size(binary_path)) << "\n";

  // --- One-off costs: each path's preparation, on its own row. ----------
  TablePrinter setup_table({"step", "ms"});
  const auto add_setup = [&](const std::string& name, double ms) {
    setup_table.BeginRow();
    setup_table.AddCell(name);
    setup_table.AddCell(ms, 1);
  };
  add_setup("ssc1 save", save_text_ms);
  add_setup("ssc1 load (LoadSetSystem)", load_ms);
  add_setup("convert (ssc1 -> sscb1)", convert_ms);
  setup_table.PrintWithTitle(std::cout, "setup: one-off costs");

  // --- Drain: pure pass cost. -------------------------------------------
  TablePrinter drain_table({"source", "passes", "total_ms", "ms_per_pass"});
  Count checksum_memory = 0, checksum_text = 0, checksum_mmap = 0;
  double drain_memory_ms = 0.0, drain_text_ms = 0.0, drain_mmap_ms = 0.0;
  {
    VectorSetStream stream(system);
    drain_memory_ms = DrainMs(stream, drain_passes, &checksum_memory);
  }
  {
    VectorSetStream stream(*loaded);
    drain_text_ms = DrainMs(stream, drain_passes, &checksum_text);
  }
  {
    MmapSetStream stream(binary_path);
    if (!stream.status().ok()) {
      std::cerr << "mmap stream failed: " << stream.status().ToString()
                << "\n";
      return 1;
    }
    drain_mmap_ms = DrainMs(stream, drain_passes, &checksum_mmap);
  }
  const bool checksums_ok =
      checksum_memory == checksum_text && checksum_text == checksum_mmap;
  const auto add_drain = [&](const std::string& name, double ms) {
    drain_table.BeginRow();
    drain_table.AddCell(name);
    drain_table.AddCell(static_cast<std::uint64_t>(drain_passes));
    drain_table.AddCell(ms, 1);
    drain_table.AddCell(ms / drain_passes, 2);
  };
  add_drain("memory", drain_memory_ms);
  add_drain("ssc1 in-memory passes (load excluded)", drain_text_ms);
  add_drain("mmap (sscb1)", drain_mmap_ms);
  drain_table.PrintWithTitle(std::cout, "drain: read every item, no solver");

  // --- Solve: multi-pass Assadi and threshold greedy. -------------------
  bool identical_ok = true;
  bool feasible_ok = true;

  // Runs one algorithm over {memory, ssc1, mmap} x {1,2,8}, checking
  // solution identity; returns the 1-thread {ssc1 load + solve, mmap
  // solve} milliseconds.
  const auto sweep = [&](const std::string& title, const auto& solve) {
    TablePrinter solve_table({"source", "threads", "sets", "passes", "ms"});
    ArenaVector<SetId> reference;
    bool have_reference = false;
    double text_1t_ms = 0.0, mmap_1t_ms = 0.0;

    const auto record = [&](const std::string& name, std::size_t threads,
                            const SolveOutcome& outcome, double ms) {
      if (!have_reference) {
        reference = outcome.solution;
        have_reference = true;
      } else if (outcome.solution != reference) {
        identical_ok = false;
      }
      feasible_ok = feasible_ok && outcome.feasible;
      solve_table.BeginRow();
      solve_table.AddCell(name);
      solve_table.AddCell(static_cast<std::uint64_t>(threads));
      solve_table.AddCell(static_cast<std::uint64_t>(outcome.solution.size()));
      solve_table.AddCell(outcome.passes);
      solve_table.AddCell(ms, 1);
    };

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      std::optional<ParallelPassEngine> engine;
      if (threads > 1) engine.emplace(threads);
      {
        VectorSetStream stream(system);
        const SolveOutcome outcome =
            solve(stream, engine ? &*engine : nullptr);
        record("memory", threads, outcome, outcome.millis);
      }
      {
        // The instance is loaded once above; every row is charged that
        // load, as a fresh solve of the ssc1 file would be.
        VectorSetStream stream(*loaded);
        const SolveOutcome outcome =
            solve(stream, engine ? &*engine : nullptr);
        const double ms = load_ms + outcome.millis;
        if (threads == 1) text_1t_ms = ms;
        record("ssc1 load + in-memory passes", threads, outcome, ms);
      }
      {
        MmapSetStream stream(binary_path);
        const SolveOutcome outcome =
            solve(stream, engine ? &*engine : nullptr);
        if (threads == 1) mmap_1t_ms = outcome.millis;
        record("mmap (sscb1)", threads, outcome, outcome.millis);
      }
    }
    solve_table.PrintWithTitle(std::cout, title);
    return std::pair<double, double>(text_1t_ms, mmap_1t_ms);
  };

  const auto [assadi_text_ms, assadi_mmap_ms] = sweep(
      "solve: multi-pass Assadi, known opt",
      [&](SetStream& stream, ParallelPassEngine* engine) {
        return SolveAssadi(stream, opt, engine);
      });
  const auto [tg_text_ms, tg_mmap_ms] = sweep(
      "solve: multi-pass threshold greedy (beta=8)",
      [&](SetStream& stream, ParallelPassEngine* engine) {
        return SolveThresholdGreedy(stream, engine);
      });

  std::filesystem::remove_all(dir);

  // --- Acceptance gates. ------------------------------------------------
  constexpr double kMaxTextOverConvert = 1.1;
  const double assadi_ratio =
      assadi_text_ms / std::max(1e-9, convert_ms + assadi_mmap_ms);
  const double tg_ratio = tg_text_ms / std::max(1e-9, convert_ms + tg_mmap_ms);
  const bool text_cost_ok =
      assadi_ratio <= kMaxTextOverConvert && tg_ratio <= kMaxTextOverConvert;
  std::cout << "\n[gate] ssc1 (load + solve) / (convert + mmap solve), 1 "
            << "thread: Assadi " << assadi_ratio << "x, threshold greedy "
            << tg_ratio << "x -> " << (text_cost_ok ? "PASS" : "FAIL")
            << " (need <= " << kMaxTextOverConvert << "x)\n";
  std::cout << "[gate] Assadi + threshold-greedy solutions identical across "
            << "sources x threads, checksums match: "
            << ((identical_ok && feasible_ok && checksums_ok) ? "PASS"
                                                              : "FAIL")
            << "\n";
  return text_cost_ok && identical_ok && feasible_ok && checksums_ok ? 0 : 1;
}
