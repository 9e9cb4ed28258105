// workload_tool: generate / inspect / convert / solve set cover workload
// files.
//
// A small CLI over the library's generator + serialization + storage +
// solver-API surface — the "data engineer" entry point. Workloads are
// stored either in the documented ssc1 text format
// (instance/serialization.h) or the sscb1 mmap-ready binary format
// (storage/binary_format.h); info and solve sniff the format from the
// file's magic bytes, so both kinds are interchangeable everywhere
// downstream.
//
// Solving goes through the unified solver API (api/solver_registry.h +
// api/solve_session.h): *any* registered solver, configured by key=value
// options, over *any* source. `solvers` prints the catalogue with each
// solver's option schema.
//
// Usage:
//   workload_tool gen <kind> <n> <m> <param> <seed> <path>
//       kind: planted (param = opt) | uniform (param = set size)
//           | zipf (param = max size) | blog (param = hub % as integer)
//   workload_tool convert <in.ssc> <out.sscb1>
//       parses the whole text instance into memory, then writes it to
//       the binary store, so the instance must fit in memory once; an
//       sscb1 input is rejected.
//   workload_tool info <path>
//   workload_tool solvers [--names]
//       lists every registered solver with its options (name, type,
//       range, default, doc) plus the session-level options; --names
//       prints bare registry keys one per line (for scripting).
//   workload_tool solve <path> <solver> [key=value ...] [--trace=FILE]
//                 [--stats]
//       e.g.: solve w.sscb1 assadi alpha=3 threads=4
//       `threads` is a session option: the SolveSession owns the
//       ParallelPassEngine for the run (identical results for any
//       count). Binary inputs stream through MmapSetStream, so
//       multi-pass solves cost zero re-parsing and shard even from
//       disk; text inputs are parsed into memory once at open.
//       --trace=FILE arms a TraceRecorder for the run and writes a
//       chrome://tracing JSON file (per-pass and per-shard spans) plus
//       a per-pass breakdown table; --stats prints the run's counter
//       snapshot in Prometheus text format. Neither changes results.
//   workload_tool delta <base> <delta.sscd1> init
//   workload_tool delta <base> <delta.sscd1> add-uniform <count> <size> <seed>
//   workload_tool delta <base> <delta.sscd1> remove <slot>
//   workload_tool delta <base> <delta.sscd1> replace <slot> <size> <seed>
//       maintains an sscd1 delta log over a base instance (the dynamic-
//       instance path): init writes an empty log, the mutation verbs
//       append records. Slots are base order then append order.
//   workload_tool solve ... [--delta=FILE]
//       solves the live overlay (base + delta) instead of the base alone;
//       repeated solves in watch mode re-use the warm-start path.
//   workload_tool compact <base> <delta.sscd1> <out.sscb1>
//       materializes the live overlay into a fresh sscb1 (tombstones
//       dropped, ids densely renumbered — byte-compatible with what the
//       overlay streams).
//   workload_tool watch <base> <delta.sscd1> <solver> [key=value ...]
//                 [--interval-ms=N] [--max-solves=N] [--stats]
//       stat-polls base and delta (util/file_probe.h, no inotify): a
//       delta change re-reads the log and re-solves warm (surviving
//       prefix + residue re-cover); a base change reopens cold. Prints
//       one line per solve; --max-solves bounds the loop (for scripts),
//       --stats dumps the final counter snapshot.
//   workload_tool client <endpoint> ping
//   workload_tool client <endpoint> stats
//   workload_tool client <endpoint> shutdown
//   workload_tool client <endpoint> reload <instance> [<path>]
//       live-reloads the daemon's instance table: with a path, adds or
//       swaps the named instance; without, retires it. In-flight solves
//       finish on the old mapping.
//   workload_tool client <endpoint> solve <instance> <solver>
//                 [key=value ...] [--breakdown]
//       talks to a running workload_served daemon over its framed
//       socket protocol (serve/solve_client.h); endpoint is
//       unix:/path/to.sock or tcp:PORT. `solve` prints the marshalled
//       report exactly like the local command; --breakdown requests the
//       per-pass table (daemon must run with --trace). A busy daemon
//       answers UNAVAILABLE — retry later.
//
// Examples:
//   ./build/examples/workload_tool gen planted 4096 128 4 7 /tmp/w.ssc
//   ./build/examples/workload_tool convert /tmp/w.ssc /tmp/w.sscb1
//   ./build/examples/workload_tool solvers
//   ./build/examples/workload_tool solve /tmp/w.sscb1 assadi alpha=3 threads=4
//   ./build/examples/workload_tool solve /tmp/w.sscb1 threshold_greedy beta=4

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/solve_session.h"
#include "api/solver_registry.h"
#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "obs/stats_sink.h"
#include "obs/trace.h"
#include "serve/solve_client.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "util/file_probe.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace {

using namespace streamsc;

int Usage() {
  std::cerr
      << "usage:\n"
      << "  workload_tool gen <planted|uniform|zipf|blog> <n> <m> "
         "<param> <seed> <path>\n"
      << "  workload_tool convert <in.ssc> <out.sscb1>\n"
      << "  workload_tool info <path>\n"
      << "  workload_tool solvers [--names]\n"
      << "  workload_tool solve <path> <solver> [key=value ...] "
         "[--trace=FILE] [--stats] [--delta=FILE]\n"
      << "  workload_tool delta <base> <delta.sscd1> init\n"
      << "  workload_tool delta <base> <delta.sscd1> add-uniform <count> "
         "<size> <seed>\n"
      << "  workload_tool delta <base> <delta.sscd1> remove <slot>\n"
      << "  workload_tool delta <base> <delta.sscd1> replace <slot> <size> "
         "<seed>\n"
      << "  workload_tool compact <base> <delta.sscd1> <out.sscb1>\n"
      << "  workload_tool watch <base> <delta.sscd1> <solver> "
         "[key=value ...] [--interval-ms=N] [--max-solves=N] [--stats]\n"
      << "  workload_tool client <endpoint> "
         "<ping|stats|shutdown>\n"
      << "  workload_tool client <endpoint> reload <instance> [<path>]\n"
      << "  workload_tool client <endpoint> solve <instance> <solver> "
         "[key=value ...] [--breakdown]\n"
      << "run `workload_tool solvers` for solver names and their options\n";
  return 2;
}

int Generate(int argc, char** argv) {
  if (argc != 8) return Usage();
  const std::string kind = argv[2];
  const std::size_t n = std::strtoull(argv[3], nullptr, 10);
  const std::size_t m = std::strtoull(argv[4], nullptr, 10);
  const std::size_t param = std::strtoull(argv[5], nullptr, 10);
  const std::uint64_t seed = std::strtoull(argv[6], nullptr, 10);
  const std::string path = argv[7];

  Rng rng(seed);
  SetSystem system(0);
  if (kind == "planted") {
    system = PlantedCoverInstance(n, m, param, rng);
  } else if (kind == "uniform") {
    system = UniformRandomInstance(n, m, param, rng);
  } else if (kind == "zipf") {
    system = ZipfInstance(n, m, 1.1, param, rng);
  } else if (kind == "blog") {
    system = BlogTopicInstance(n, m, static_cast<double>(param) / 100.0, rng);
  } else {
    return Usage();
  }

  const Status status = SaveSetSystem(system, path);
  if (!status.ok()) {
    std::cerr << "save failed: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << system.DebugString() << " to " << path << "\n";
  return 0;
}

int Convert(int argc, char** argv) {
  if (argc != 4) return Usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  const Status status =
      BinaryInstanceWriter::TranscodeText(in_path, out_path);
  if (!status.ok()) {
    std::cerr << "convert failed: " << status.ToString() << "\n";
    return 1;
  }
  MmapSetStream check(out_path);
  if (!check.status().ok()) {
    std::cerr << "convert verification failed: "
              << check.status().ToString() << "\n";
    return 1;
  }
  std::cout << "wrote SetSystem(n=" << check.universe_size()
            << ", m=" << check.num_sets() << ") to " << out_path << " ("
            << check.file_bytes() << " bytes, " << check.sparse_sets()
            << " sparse sets)\n";
  return 0;
}

int Info(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string path = argv[2];
  StatusOr<std::unique_ptr<SetStream>> opened = OpenInstance(path);
  if (!opened.ok()) {
    std::cerr << "load failed: " << opened.status().ToString() << "\n";
    return 1;
  }
  SetStream* stream = opened->get();
  const auto* mmap_stream = dynamic_cast<const MmapSetStream*>(stream);

  // One pass over the stream computes every statistic — works identically
  // for the in-memory and the disk-resident case.
  const std::size_t n = stream->universe_size();
  Count min_size = n, max_size = 0, incidences = 0;
  Bytes dense_bytes = 0, sparse_bytes = 0;
  std::size_t dense_sets = 0, sparse_sets = 0;
  DynamicBitset covered(n);
  StreamItem item;
  stream->BeginPass();
  while (stream->Next(&item)) {
    const Count size = item.set.CountSet();
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
    incidences += size;
    item.set.OrInto(covered);
    if (item.set.is_dense_rep()) {
      ++dense_sets;
      dense_bytes += item.set.ByteSize();
    } else {
      ++sparse_sets;
      sparse_bytes += item.set.ByteSize();
    }
  }

  TablePrinter table({"property", "value"});
  table.BeginRow();
  table.AddCell("format");
  table.AddCell(mmap_stream != nullptr ? "sscb1 (binary, mmap)"
                                       : "ssc1 (text)");
  table.BeginRow();
  table.AddCell("universe n");
  table.AddCell(static_cast<std::uint64_t>(n));
  table.BeginRow();
  table.AddCell("sets m");
  table.AddCell(static_cast<std::uint64_t>(stream->num_sets()));
  table.BeginRow();
  table.AddCell("incidences");
  table.AddCell(incidences);
  table.BeginRow();
  table.AddCell("dense sets / bytes");
  table.AddCell(std::to_string(dense_sets) + " / " +
                std::to_string(dense_bytes));
  table.BeginRow();
  table.AddCell("sparse sets / bytes");
  table.AddCell(std::to_string(sparse_sets) + " / " +
                std::to_string(sparse_bytes));
  if (mmap_stream != nullptr) {
    table.BeginRow();
    table.AddCell("file bytes");
    table.AddCell(mmap_stream->file_bytes());
  }
  table.BeginRow();
  table.AddCell("min |S_i|");
  table.AddCell(min_size);
  table.BeginRow();
  table.AddCell("max |S_i|");
  table.AddCell(max_size);
  table.BeginRow();
  table.AddCell("coverable");
  table.AddCell(covered.All() ? "yes" : "NO");
  table.Print(std::cout);
  return 0;
}

// Prints one solver's option schema (shared by `solvers` for each entry
// and by the session-options footer).
void PrintOptionTable(const std::vector<OptionDescriptor>& options) {
  TablePrinter table({"option", "type", "range", "default", "doc"});
  for (const OptionDescriptor& desc : options) {
    table.BeginRow();
    table.AddCell(desc.name);
    table.AddCell(OptionTypeName(desc.type));
    table.AddCell(desc.RangeText());
    table.AddCell(desc.DefaultText());
    table.AddCell(desc.doc);
  }
  table.Print(std::cout);
}

int Solvers(int argc, char** argv) {
  if (argc > 3) return Usage();
  const bool names_only = argc == 3 && std::string(argv[2]) == "--names";
  if (argc == 3 && !names_only) return Usage();

  const SolverRegistry& registry = SolverRegistry::Global();
  if (names_only) {
    for (const std::string& name : registry.Names()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  for (const std::string& name : registry.Names()) {
    const SolverInfo* info = registry.Find(name);
    std::cout << name << "  [" << SolverKindName(info->kind) << "]\n  "
              << info->summary << "\n";
    PrintOptionTable(info->options);
    std::cout << "\n";
  }
  std::cout << "session options (accepted alongside any solver's):\n";
  PrintOptionTable(SolveSession::SessionOptions());
  return 0;
}

// A uniform random size-k subset of [0, n) as an owning bitset.
DynamicBitset RandomSubset(std::size_t n, std::size_t k, Rng& rng) {
  DynamicBitset set(n);
  if (k > n) k = n;
  while (set.CountSet() < k) {
    set.Set(static_cast<ElementId>(rng.UniformInt(n)));
  }
  return set;
}

int Delta(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string base_path = argv[2];
  const std::string delta_path = argv[3];
  const std::string op = argv[4];

  if (op == "init") {
    if (argc != 5) return Usage();
    // Open the base (sscb1 or ssc1) just for its dimensions.
    const StatusOr<std::unique_ptr<SetStream>> base = OpenInstance(base_path);
    if (!base.ok()) {
      std::cerr << "delta init: base open failed: "
                << base.status().ToString() << "\n";
      return 1;
    }
    DeltaLogWriter writer(delta_path, (*base)->universe_size(),
                          (*base)->num_sets());
    const Status finished =
        writer.status().ok() ? writer.Finish() : writer.status();
    if (!finished.ok()) {
      std::cerr << "delta init failed: " << finished.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote empty delta log (n=" << (*base)->universe_size()
              << ", base m=" << (*base)->num_sets() << ") to " << delta_path
              << "\n";
    return 0;
  }

  // Mutation verbs extend the existing log; its header carries the base
  // dimensions, so the base file itself is not re-read here.
  DeltaLogWriter writer(delta_path);
  if (!writer.status().ok()) {
    std::cerr << "delta: cannot append to '" << delta_path
              << "': " << writer.status().ToString() << "\n";
    return 1;
  }
  if (op == "add-uniform") {
    if (argc != 8) return Usage();
    const std::size_t count = std::strtoull(argv[5], nullptr, 10);
    const std::size_t size = std::strtoull(argv[6], nullptr, 10);
    Rng rng(std::strtoull(argv[7], nullptr, 10));
    for (std::size_t i = 0; i < count; ++i) {
      const DynamicBitset set =
          RandomSubset(writer.universe_size(), size, rng);
      if (!writer.AddSet(set).ok()) break;
    }
  } else if (op == "remove") {
    if (argc != 6) return Usage();
    (void)writer.RemoveSet(std::strtoull(argv[5], nullptr, 10));
  } else if (op == "replace") {
    if (argc != 8) return Usage();
    const std::uint64_t slot = std::strtoull(argv[5], nullptr, 10);
    const std::size_t size = std::strtoull(argv[6], nullptr, 10);
    Rng rng(std::strtoull(argv[7], nullptr, 10));
    (void)writer.ReplaceSet(slot,
                            RandomSubset(writer.universe_size(), size, rng));
  } else {
    return Usage();
  }
  const Status finished =
      writer.status().ok() ? writer.Finish() : writer.status();
  if (!finished.ok()) {
    std::cerr << "delta " << op << " failed: " << finished.ToString()
              << "\n";
    return 1;
  }
  std::cout << delta_path << ": " << writer.record_count() << " record(s), "
            << writer.num_slots() << " slot(s)\n";
  return 0;
}

int Compact(int argc, char** argv) {
  if (argc != 5) return Usage();
  OverlaySetStream overlay(argv[2], argv[3]);
  if (!overlay.status().ok()) {
    std::cerr << "compact: overlay open failed: "
              << overlay.status().ToString() << "\n";
    return 1;
  }
  const std::string out_path = argv[4];
  const Status written = overlay.Materialize(out_path);
  if (!written.ok()) {
    std::cerr << "compact failed: " << written.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote SetSystem(n=" << overlay.universe_size()
            << ", m=" << overlay.num_sets() << ") to " << out_path << " ("
            << overlay.delta_records() << " delta record(s) folded in, "
            << (overlay.num_slots() - overlay.num_sets())
            << " tombstone(s) dropped)\n";
  return 0;
}

int Watch(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string base_path = argv[2];
  const std::string delta_path = argv[3];
  const std::string solver = argv[4];
  long interval_ms = 200;
  std::uint64_t max_solves = 0;  // 0 = run until killed
  bool print_stats = false;
  std::vector<std::string> args;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--interval-ms=", 0) == 0) {
      interval_ms = std::strtol(arg.c_str() + 14, nullptr, 10);
      if (interval_ms <= 0) return Usage();
    } else if (arg.rfind("--max-solves=", 0) == 0) {
      max_solves = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      args.push_back(arg);
    }
  }

  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(base_path, delta_path);
  if (!session.ok()) {
    std::cerr << "watch: overlay open failed: "
              << session.status().ToString() << "\n";
    return 1;
  }

  CounterSet accumulated;
  std::uint64_t solves = 0;
  const auto solve_once = [&](const char* why) -> bool {
    StatusOr<SolveReport> report = session->Solve(solver, args);
    if (!report.ok()) {
      std::cerr << "watch: solve failed: " << report.status().ToString()
                << "\n";
      return false;
    }
    accumulated.MergeFrom(report->counters);
    ++solves;
    std::cout << "solve #" << solves << " [" << why << "] "
              << (report->warm_start ? "warm" : "cold")
              << " sets=" << report->solution.size()
              << " surviving=" << report->surviving_prefix
              << " residue=" << report->residue_elements
              << " passes=" << report->passes
              << " feasible=" << (report->feasible ? "yes" : "NO")
              << " wall_ms=" << report->wall_seconds * 1e3 << "\n";
    std::cout.flush();
    return true;
  };

  if (!solve_once("open")) return 1;
  FileSignature base_sig = ProbeSignature(base_path);
  FileSignature delta_sig = ProbeSignature(delta_path);
  while (max_solves == 0 || solves < max_solves) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const FileSignature base_now = ProbeSignature(base_path);
    const FileSignature delta_now = ProbeSignature(delta_path);
    const bool base_changed = base_now != base_sig;
    const bool delta_changed = delta_now != delta_sig;
    if (!base_changed && !delta_changed) continue;
    if (base_changed) {
      // The base file itself was replaced: the previous composition is
      // void. Reopen from scratch (cold solve, fresh memo).
      StatusOr<SolveSession> reopened =
          SolveSession::OpenOverlay(base_path, delta_path);
      if (!reopened.ok()) {
        std::cerr << "watch: base reopen deferred: "
                  << reopened.status().ToString() << "\n";
        continue;
      }
      session = std::move(reopened);
    } else {
      // Delta-only change: re-read the log in place, keeping the memo so
      // the next solve is warm-eligible.
      const Status refreshed = session->RefreshDelta();
      if (!refreshed.ok()) {
        // Likely a torn mid-write poll: try again next tick.
        std::cerr << "watch: delta refresh deferred: "
                  << refreshed.ToString() << "\n";
        continue;
      }
    }
    base_sig = base_now;
    delta_sig = delta_now;
    if (!solve_once(base_changed ? "base-change" : "delta-change")) return 1;
  }

  if (print_stats) {
    std::cout << "\n";
    WritePrometheusStats(std::cout, accumulated);
  }
  return 0;
}

int Solve(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string path = argv[2];
  const std::string solver = argv[3];
  std::string trace_path;
  std::string delta_path;
  bool print_stats = false;
  std::vector<std::string> args;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
      if (trace_path.empty()) return Usage();
    } else if (arg.rfind("--delta=", 0) == 0) {
      delta_path = arg.substr(8);
      if (delta_path.empty()) return Usage();
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      args.push_back(arg);
    }
  }

  StatusOr<SolveSession> session =
      delta_path.empty() ? SolveSession::Open(path)
                         : SolveSession::OpenOverlay(path, delta_path);
  if (!session.ok()) {
    std::cerr << "open failed: " << session.status().ToString() << "\n";
    return 1;
  }
  // The recorder allocates all its ring capacity here, at arm time; the
  // run itself then emits lock-free and alloc-free.
  std::optional<TraceRecorder> recorder;
  if (!trace_path.empty()) {
    recorder.emplace();
    session->BindTrace(&*recorder);
  }
  StatusOr<SolveReport> report = session->Solve(solver, args);
  if (!report.ok()) {
    std::cerr << "solve failed: " << report.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"property", "value"});
  const auto add = [&](const std::string& key, const std::string& value) {
    table.BeginRow();
    table.AddCell(key);
    table.AddCell(value);
  };
  add("solver", report->solver);
  add("algorithm", report->algorithm);
  add("kind", SolverKindName(report->kind));
  add("source", report->source);
  add("threads", std::to_string(report->threads));
  add("sets chosen", std::to_string(report->solution.size()));
  add(report->kind == SolverKind::kPairFinder ? "found" : "feasible",
      report->feasible ? "yes" : "NO");
  add("passes", std::to_string(report->passes));
  add("space bytes", std::to_string(report->peak_space_bytes));
  add("arena high-water", std::to_string(report->arena_high_water));
  add("arena reserved", std::to_string(report->arena_reserved));
  add("sets taken (ctr)", std::to_string(report->counters.value(
                               engine_counters::SetsTaken())));
  add("elements covered", std::to_string(report->counters.value(
                              engine_counters::ElementsCovered())));
  if (report->kind == SolverKind::kMaxCoverage) {
    add("coverage", std::to_string(report->extra));
  }
  if (report->kind == SolverKind::kPairFinder) {
    add("candidates(p1)", std::to_string(report->extra));
  }
  add("wall ms", std::to_string(report->wall_seconds * 1e3));
  table.Print(std::cout);

  if (!report->pass_breakdown.empty()) {
    std::cout << "\nper-pass breakdown:\n";
    TablePrinter passes(
        {"pass", "name", "items", "shards", "takes", "covered", "wall ms"});
    std::size_t index = 0;
    for (const PassBreakdownRow& row : report->pass_breakdown) {
      passes.BeginRow();
      passes.AddCell(static_cast<std::uint64_t>(index++));
      passes.AddCell(row.name);
      passes.AddCell(row.items_scanned);
      passes.AddCell(row.shard_jobs);
      passes.AddCell(row.sets_taken);
      passes.AddCell(row.elements_covered);
      passes.AddCell(std::to_string(row.wall_seconds * 1e3));
    }
    passes.Print(std::cout);
  }

  if (print_stats) {
    std::cout << "\n";
    WritePrometheusStats(std::cout, report->counters);
  }

  if (recorder.has_value()) {
    std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "trace: cannot open '" << trace_path
                << "' for writing\n";
      return 1;
    }
    recorder->WriteChromeTrace(out);
    if (!out.flush()) {
      std::cerr << "trace: write to '" << trace_path << "' failed\n";
      return 1;
    }
    std::cout << "\nwrote " << recorder->events_recorded()
              << " trace events to " << trace_path;
    if (recorder->events_dropped() > 0) {
      std::cout << " (" << recorder->events_dropped()
                << " dropped: ring overflow)";
    }
    std::cout << "\n";
  }

  if (!report->feasible) {
    std::cerr << "solver did not find a "
              << (report->kind == SolverKind::kPairFinder
                      ? "covering pair"
                      : "feasible solution")
              << "\n";
    return 1;
  }
  return 0;
}

// Prints a daemon-marshalled report in the same table shape as the
// local `solve` command (fields the wire carries; engine counters come
// from the marshalled snapshot rather than the scalar stats view).
int PrintRemoteReport(const serve::SolveResponse& report) {
  TablePrinter table({"property", "value"});
  const auto add = [&](const std::string& key, const std::string& value) {
    table.BeginRow();
    table.AddCell(key);
    table.AddCell(value);
  };
  add("solver", report.solver);
  add("algorithm", report.algorithm);
  add("kind", SolverKindName(report.kind));
  add("source", report.source);
  add("sets chosen", std::to_string(report.solution.size()));
  add(report.kind == SolverKind::kPairFinder ? "found" : "feasible",
      report.feasible ? "yes" : "NO");
  add("passes", std::to_string(report.passes));
  add("space bytes", std::to_string(report.peak_space_bytes));
  add("arena high-water", std::to_string(report.arena_high_water));
  if (report.kind == SolverKind::kMaxCoverage) {
    add("coverage", std::to_string(report.extra));
  }
  if (report.kind == SolverKind::kPairFinder) {
    add("candidates(p1)", std::to_string(report.extra));
  }
  add("wall ms", std::to_string(static_cast<double>(report.wall_ns) * 1e-6));
  table.Print(std::cout);

  if (!report.counters.empty()) {
    std::cout << "\ncounters:\n";
    TablePrinter counters({"counter", "kind", "value"});
    for (const serve::WireCounter& counter : report.counters) {
      counters.BeginRow();
      counters.AddCell(counter.name);
      counters.AddCell(CounterKindName(counter.kind));
      counters.AddCell(counter.value);
    }
    counters.Print(std::cout);
  }

  if (!report.breakdown.empty()) {
    std::cout << "\nper-pass breakdown:\n";
    TablePrinter passes(
        {"pass", "name", "items", "shards", "takes", "covered", "wall ms"});
    std::size_t index = 0;
    for (const serve::WireBreakdownRow& row : report.breakdown) {
      passes.BeginRow();
      passes.AddCell(static_cast<std::uint64_t>(index++));
      passes.AddCell(row.name);
      passes.AddCell(row.items_scanned);
      passes.AddCell(row.shard_jobs);
      passes.AddCell(row.sets_taken);
      passes.AddCell(row.elements_covered);
      passes.AddCell(std::to_string(static_cast<double>(row.wall_ns) * 1e-6));
    }
    passes.Print(std::cout);
  }

  if (!report.feasible) {
    std::cerr << "solver did not find a "
              << (report.kind == SolverKind::kPairFinder
                      ? "covering pair"
                      : "feasible solution")
              << "\n";
    return 1;
  }
  return 0;
}

int Client(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string endpoint = argv[2];
  const std::string verb = argv[3];

  StatusOr<serve::SolveClient> client = serve::SolveClient::Connect(endpoint);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }

  if (verb == "ping") {
    const Status status = client->Ping();
    if (!status.ok()) {
      std::cerr << "ping failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "pong\n";
    return 0;
  }
  if (verb == "stats") {
    StatusOr<std::string> stats = client->Stats();
    if (!stats.ok()) {
      std::cerr << "stats failed: " << stats.status().ToString() << "\n";
      return 1;
    }
    std::cout << *stats;
    return 0;
  }
  if (verb == "shutdown") {
    const Status status = client->Shutdown();
    if (!status.ok()) {
      std::cerr << "shutdown failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "daemon stopping\n";
    return 0;
  }
  if (verb == "reload") {
    if (argc < 5 || argc > 6) return Usage();
    const std::string name = argv[4];
    const std::string path = argc == 6 ? argv[5] : "";
    const Status status = client->Reload(name, path);
    if (!status.ok()) {
      std::cerr << "reload failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << (path.empty() ? "retired " : "reloaded ") << name << "\n";
    return 0;
  }
  if (verb == "solve") {
    if (argc < 6) return Usage();
    const std::string instance = argv[4];
    const std::string solver = argv[5];
    bool want_breakdown = false;
    std::vector<std::string> args;
    for (int i = 6; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--breakdown") {
        want_breakdown = true;
      } else {
        args.push_back(arg);
      }
    }
    StatusOr<serve::SolveResponse> report =
        client->Solve(instance, solver, args, want_breakdown);
    if (!report.ok()) {
      std::cerr << "solve failed: " << report.status().ToString() << "\n";
      return 1;
    }
    return PrintRemoteReport(*report);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "gen") return Generate(argc, argv);
  if (command == "convert") return Convert(argc, argv);
  if (command == "info") return Info(argc, argv);
  if (command == "solvers") return Solvers(argc, argv);
  if (command == "solve") return Solve(argc, argv);
  if (command == "delta") return Delta(argc, argv);
  if (command == "compact") return Compact(argc, argv);
  if (command == "watch") return Watch(argc, argv);
  if (command == "client") return Client(argc, argv);
  return Usage();
}
