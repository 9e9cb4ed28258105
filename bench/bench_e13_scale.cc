// E13: hybrid sparse/dense substrate + parallel pass engine at scale.
//
// Measures the two per-pass hot paths on sparse instances (density <= 1%):
//
//   projection  S'_i = S_i ∩ U_smpl for every set (the space-dominant
//               pass of the sampling algorithms), and
//   pass scan   the pruning scan |S_i ∩ U| / subtract loop.
//
// Three configurations per instance:
//
//   baseline  all-dense storage, element-at-a-time projection (the seed
//             code path: one Test per sampled element) and dense scans;
//   hybrid    SetSystem's density-thresholded storage, word-gather /
//             O(k) projection, SetView scans;
//   parallel  hybrid + ParallelPassEngine thread sweep, verifying the
//             determinism contract (byte-identical results for 1, 2, and
//             8 threads).
//
// Acceptance: hybrid >= 5x over baseline on projection+scan combined for
// density <= 1%, and identical bytes across the thread sweep.
//
// Usage: bench_e13_scale [n] [decoys] [densities_permille] [sample_pct]
//   defaults: n=200000 decoys=256 densities=2,5,10 sample_pct=10
//   (drive n up to 1000000 for the scale sweep)

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sampling.h"
#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace streamsc;

// The seed's projection loop: one Test/Set round-trip per sampled
// element, regardless of the set's density. Kept here as the measured
// baseline.
DynamicBitset NaiveProject(const SubUniverse& sub, SetView set) {
  DynamicBitset out(sub.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (set.Test(sub.ToFull(i))) out.Set(i);
  }
  return out;
}

// A coverable sparse instance: a planted partition into n/k blocks of k
// elements plus `decoys` random k-subsets.
std::vector<std::vector<ElementId>> SparseInstanceMembers(std::size_t n,
                                                          std::size_t k,
                                                          std::size_t decoys,
                                                          Rng& rng) {
  std::vector<std::vector<ElementId>> members;
  for (std::size_t lo = 0; lo < n; lo += k) {
    std::vector<ElementId> block;
    for (std::size_t e = lo; e < std::min(lo + k, n); ++e) {
      block.push_back(static_cast<ElementId>(e));
    }
    members.push_back(std::move(block));
  }
  for (std::size_t d = 0; d < decoys; ++d) {
    members.push_back(rng.RandomSubsetOfSize(n, k).ToIndices());
  }
  return members;
}

std::uint64_t HashBitset(const DynamicBitset& bs) { return bs.Hash(); }

std::uint64_t HashRun(const std::vector<SetId>& taken,
                      const DynamicBitset& uncovered,
                      const SetSystem& projections) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (SetId id : taken) mix(id);
  mix(HashBitset(uncovered));
  // Hash the dense materialization so the value depends only on content,
  // not on which representation the projection pass chose.
  for (SetId id = 0; id < projections.num_sets(); ++id) {
    mix(HashBitset(projections.set(id).ToDense()));
  }
  return h;
}

std::vector<std::size_t> ParseCsvSizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  const std::size_t decoys =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256;
  const std::vector<std::size_t> densities_permille =
      argc > 3 ? ParseCsvSizes(argv[3]) : std::vector<std::size_t>{2, 5, 10};
  const double sample_rate =
      (argc > 4 ? static_cast<double>(std::strtoull(argv[4], nullptr, 10))
                : 10.0) /
      100.0;

  bench::Banner("E13-scale",
                "hybrid sparse/dense sets + parallel pass engine: >=5x on "
                "sparse projection/pass scans, bit-identical across threads");
  bench::Params("n=" + std::to_string(n) + " decoys=" + std::to_string(decoys) +
                " sample=" + std::to_string(static_cast<int>(
                                 sample_rate * 100)) + "%");

  TablePrinter table({"density", "m", "mem_dense", "mem_hybrid", "proj_base_ms",
                      "proj_hyb_ms", "scan_base_ms", "scan_hyb_ms", "speedup"});
  // Acceptance: some sparse instance (density <= 1%) reaches 5x.
  bool sparse_speedup_seen = false;
  bool identical_ok = true;

  for (const std::size_t permille : densities_permille) {
    const std::size_t k = std::max<std::size_t>(1, n * permille / 1000);
    Rng rng(7);
    const auto members = SparseInstanceMembers(n, k, decoys, rng);

    // Same contents, two storage policies.
    SetSystem dense_system(n, /*sparsity_threshold=*/0.0);
    SetSystem hybrid(n);
    for (const auto& ids : members) {
      dense_system.AddSetFromIndices(ids);
      hybrid.AddSetFromIndices(ids);
    }
    const std::size_t m = hybrid.num_sets();

    Rng sample_rng(11);
    const DynamicBitset sampled = sample_rng.BernoulliSubset(n, sample_rate);
    const SubUniverse sub(sampled);

    // --- Projection pass: baseline vs hybrid (best of 3 reps). ----------
    constexpr int kReps = 3;
    const auto best_of = [](const auto& fn) {
      double best = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch timer;
        fn();
        const double ms = timer.ElapsedMillis();
        if (rep == 0 || ms < best) best = ms;
      }
      return best;
    };

    std::vector<DynamicBitset> base_projs(m);
    std::vector<DynamicBitset> hyb_projs(m);
    const double proj_base_ms = best_of([&] {
      for (SetId id = 0; id < m; ++id) {
        base_projs[id] = NaiveProject(sub, dense_system.set(id));
      }
    });
    const double proj_hyb_ms = best_of([&] {
      for (SetId id = 0; id < m; ++id) {
        hyb_projs[id] = sub.Project(hybrid.set(id));
      }
    });

    for (SetId id = 0; id < m; ++id) {
      if (!(base_projs[id] == hyb_projs[id])) identical_ok = false;
    }

    // --- Pass scan: the pruning loop, baseline vs hybrid. ---------------
    // Threshold n/10 so the scan dominates (sparse sets never reach it).
    const double threshold = static_cast<double>(n) / 10.0;
    const auto run_scan = [&](const SetSystem& system, double* millis) {
      std::uint64_t hash = 0;
      *millis = best_of([&] {
        DynamicBitset uncovered = DynamicBitset::Full(n);
        std::vector<SetId> taken;
        for (SetId id = 0; id < m; ++id) {
          const SetView view = system.set(id);
          const Count gain = view.CountAnd(uncovered);
          if (gain > 0 && static_cast<double>(gain) >= threshold) {
            taken.push_back(id);
            view.AndNotInto(uncovered);
          }
        }
        hash = HashRun(taken, uncovered, SetSystem(0));
      });
      return hash;
    };
    double scan_base_ms = 0.0, scan_hyb_ms = 0.0;
    const std::uint64_t scan_base_hash = run_scan(dense_system, &scan_base_ms);
    const std::uint64_t scan_hyb_hash = run_scan(hybrid, &scan_hyb_ms);
    if (scan_base_hash != scan_hyb_hash) identical_ok = false;

    const double speedup = (proj_base_ms + scan_base_ms) /
                           std::max(1e-9, proj_hyb_ms + scan_hyb_ms);
    if (permille <= 10 && speedup >= 5.0) sparse_speedup_seen = true;

    const SetSystem::Memory dense_mem = dense_system.MemoryUsage();
    const SetSystem::Memory hybrid_mem = hybrid.MemoryUsage();

    table.BeginRow();
    table.AddCell(std::to_string(permille) + "e-3");
    table.AddCell(static_cast<std::uint64_t>(m));
    table.AddCell(HumanBytes(dense_mem.total_bytes()));
    table.AddCell(HumanBytes(hybrid_mem.total_bytes()));
    table.AddCell(proj_base_ms, 2);
    table.AddCell(proj_hyb_ms, 2);
    table.AddCell(scan_base_ms, 2);
    table.AddCell(scan_hyb_ms, 2);
    table.AddCell(speedup, 2);
  }
  table.PrintWithTitle(std::cout, "hybrid substrate vs dense baseline");

  // --- Thread sweep: determinism + wall time. ---------------------------
  {
    const std::size_t permille = densities_permille.back();
    const std::size_t k = std::max<std::size_t>(1, n * permille / 1000);
    Rng rng(7);
    const auto members = SparseInstanceMembers(n, k, decoys, rng);
    SetSystem hybrid(n);
    for (const auto& ids : members) hybrid.AddSetFromIndices(ids);

    Rng sample_rng(11);
    const SubUniverse sub(sample_rng.BernoulliSubset(n, sample_rate));
    const double threshold = static_cast<double>(n) / 10.0;

    TablePrinter sweep({"threads", "scan_ms", "project_ms", "hash"});
    std::uint64_t reference_hash = 0;
    bool first = true;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ParallelPassEngine engine(threads);
      VectorSetStream stream(hybrid);
      EngineContext ctx(stream, &engine);

      Stopwatch timer;
      DynamicBitset uncovered = DynamicBitset::Full(n);
      std::vector<SetId> taken;
      ctx.ThresholdPass(threshold, uncovered,
                        [&taken](SetId id) { taken.push_back(id); });
      const double scan_ms = timer.ElapsedMillis();

      // Workers project into their own scratch; the commit re-homes each
      // projection into a heap system, in stream order.
      timer.Restart();
      SetSystem projections(sub.size());
      ctx.TransformPass<ProjectedSet>(
          [&sub](const StreamItem& item) {
            return sub.ProjectAdaptive(item.set,
                                       ArenaAllocator<ElementId>::Scratch());
          },
          [&projections](const StreamItem&, ProjectedSet projection) {
            StoreProjection(projections, std::move(projection));
          });
      const double project_ms = timer.ElapsedMillis();

      const std::uint64_t hash = HashRun(taken, uncovered, projections);
      if (first) {
        reference_hash = hash;
        first = false;
      } else if (hash != reference_hash) {
        identical_ok = false;
      }

      sweep.BeginRow();
      sweep.AddCell(static_cast<std::uint64_t>(threads));
      sweep.AddCell(scan_ms, 2);
      sweep.AddCell(project_ms, 2);
      sweep.AddCell(std::to_string(hash));
    }
    sweep.PrintWithTitle(std::cout,
                         "parallel pass engine thread sweep (determinism)");
  }

  std::cout << "\nresult: sparse instance (density <= 1%) with speedup >= 5x: "
            << (sparse_speedup_seen ? "PASS" : "FAIL")
            << "\nresult: byte-identical across representations/threads: "
            << (identical_ok ? "PASS" : "FAIL") << "\n";
  return (sparse_speedup_seen && identical_ok) ? 0 : 1;
}
