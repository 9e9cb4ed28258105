// SolveSession: the owning front door. One session = one sniffed source
// (in-memory / ssc1 text loaded into memory / sscb1 mmap); each Solve()
// binds a per-run engine from the session-level `threads` option and
// returns a uniform SolveReport. These tests pin the sniffing, the
// cross-source solution identity, that every ssc1 reader accepts and
// rejects the same bytes, and the promise that every user-input failure
// is a Status, never an abort.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/solve_session.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "testing/scoped_temp_dir.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

SetSystem SessionInstance() {
  Rng rng(17);
  return PlantedCoverInstance(96, 12, 3, rng);
}

struct SessionFixture {
  SessionFixture() : system(SessionInstance()) {
    text_path = dir.FilePath("inst.ssc");
    binary_path = dir.FilePath("inst.sscb1");
    EXPECT_TRUE(SaveSetSystem(system, text_path).ok());
    EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());
  }

  ScopedTempDir dir;
  SetSystem system;
  std::string text_path;
  std::string binary_path;
};

TEST(SolveSessionTest, SniffsTextAndBinarySources) {
  SessionFixture fx;
  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->source(), SolveSession::Source::kMemory);
  EXPECT_EQ(text->universe_size(), fx.system.universe_size());
  EXPECT_EQ(text->num_sets(), fx.system.num_sets());

  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->source(), SolveSession::Source::kMmap);
  EXPECT_EQ(binary->universe_size(), fx.system.universe_size());
}

TEST(SolveSessionTest, OpenMissingFileReports) {
  StatusOr<SolveSession> session =
      SolveSession::Open("/nonexistent/definitely/not/here.ssc");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
}

TEST(SolveSessionTest, OpenFifoReportsInvalidArgumentWithoutHanging) {
  // Regression: the format sniff and the ssc1 reader once opened the path
  // with blocking std::ifstream opens, so a FIFO path hung the session-open
  // path forever even after MmapFile::Open itself was fixed. Open() now
  // reads every format through that one non-blocking mapping, and must
  // come straight back with a typed error.
  ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  StatusOr<SolveSession> session = SolveSession::Open(path);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("FIFO"), std::string::npos)
      << session.status().ToString();
}

TEST(SolveSessionTest, OpenGarbageFileReports) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("garbage.bin");
  ASSERT_TRUE(SaveSetSystem(SessionInstance(), path).ok());
  // Corrupt the header line so the text parser rejects it.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not an instance at all\n";
  }
  StatusOr<SolveSession> session = SolveSession::Open(path);
  EXPECT_FALSE(session.ok());
}

// Every ssc1 reader — the session, LoadSetSystem, the sscb1 transcoder
// and the in-memory parser they all share — must reject the same malformed
// documents with the same code and the same message. The middle three are
// the documents a second, per-pass text parser once accepted while
// LoadSetSystem rejected them.
struct MalformedDocument {
  const char* name;
  const char* text;
};

// Names the case in test listings instead of dumping the struct's bytes.
void PrintTo(const MalformedDocument& document, std::ostream* os) {
  *os << document.name;
}

class MalformedSsc1Test : public ::testing::TestWithParam<MalformedDocument> {
};

TEST_P(MalformedSsc1Test, EveryReaderRejectsWithInvalidArgument) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("malformed.ssc");
  const std::string binary_path = dir.FilePath("malformed.sscb1");
  {
    std::ofstream out(path, std::ios::trunc);
    out << GetParam().text;
  }
  StatusOr<SolveSession> session = SolveSession::Open(path);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status().ToString();
  StatusOr<SetSystem> loaded = LoadSetSystem(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const Status transcoded =
      BinaryInstanceWriter::TranscodeText(path, binary_path);
  EXPECT_EQ(transcoded.code(), StatusCode::kInvalidArgument);
  StatusOr<SetSystem> parsed = SetSystemFromString(GetParam().text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // One parser behind all four: the diagnostic is the same text.
  EXPECT_EQ(session.status().message(), parsed.status().message());
  EXPECT_EQ(loaded.status().message(), parsed.status().message());
  EXPECT_EQ(transcoded.message(), parsed.status().message());
}

INSTANTIATE_TEST_SUITE_P(
    Documents, MalformedSsc1Test,
    ::testing::Values(
        MalformedDocument{"GarbageHeader", "not an instance at all\n"},
        MalformedDocument{"DuplicateElement", "ssc1 4 2\n3 0 1 1\n1 2\n"},
        MalformedDocument{"TrailingHeaderToken", "ssc1 4 1 7\n2 0 1\n"},
        MalformedDocument{"TrailingContentAfterTheLastSet",
                          "ssc1 4 1\n2 0 1\n1 3\n"},
        MalformedDocument{"TruncatedBody", "ssc1 8 4\n2 0 1\n2 2 3\n"}),
    [](const ::testing::TestParamInfo<MalformedDocument>& info) {
      return std::string(info.param.name);
    });

// Every instance reader opens its path through MmapFile::Open alone, with
// no stat(2) probe in front. A path that holds no instance must still be
// refused at once, by each reader with the same code, naming what the path
// is: a missing path, a FIFO no writer ever attaches to (a blocking open
// would hang here), a directory, a character device, and an empty regular
// file, which opens and maps but holds no ssc1 header.
enum class PathKind { kMissing, kFifo, kDirectory, kCharacterDevice, kEmpty };

struct NonInstancePath {
  const char* name;
  PathKind kind;
  StatusCode code;
  const char* fragment;  // text the diagnostic must contain
};

void PrintTo(const NonInstancePath& path, std::ostream* os) {
  *os << path.name;
}

class NonInstancePathTest : public ::testing::TestWithParam<NonInstancePath> {
};

TEST_P(NonInstancePathTest, EveryReaderRefusesWithoutHanging) {
  ScopedTempDir dir;
  std::string path;
  switch (GetParam().kind) {
    case PathKind::kMissing:
      path = dir.FilePath("absent.ssc");
      break;
    case PathKind::kFifo:
      path = dir.FilePath("pipe.fifo");
      ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
      break;
    case PathKind::kDirectory:
      path = dir.path().string();
      break;
    case PathKind::kCharacterDevice:
      path = "/dev/null";
      break;
    case PathKind::kEmpty:
      path = dir.FilePath("empty.ssc");
      { std::ofstream touch(path, std::ios::trunc); }
      break;
  }
  const StatusCode code = GetParam().code;
  const std::string fragment = GetParam().fragment;
  const auto expect_refused = [&](const Status& status, const char* reader) {
    EXPECT_EQ(status.code(), code) << reader << ": " << status.ToString();
    EXPECT_NE(status.message().find(fragment), std::string::npos)
        << reader << ": " << status.ToString();
  };
  expect_refused(SolveSession::Open(path).status(), "SolveSession::Open");
  expect_refused(OpenInstance(path).status(), "OpenInstance");
  expect_refused(LoadSetSystem(path).status(), "LoadSetSystem");
  expect_refused(
      BinaryInstanceWriter::TranscodeText(path, dir.FilePath("out.sscb1")),
      "TranscodeText");
}

INSTANTIATE_TEST_SUITE_P(
    Paths, NonInstancePathTest,
    ::testing::Values(
        NonInstancePath{"Missing", PathKind::kMissing, StatusCode::kNotFound,
                        "absent.ssc"},
        NonInstancePath{"Fifo", PathKind::kFifo, StatusCode::kInvalidArgument,
                        "FIFO"},
        NonInstancePath{"Directory", PathKind::kDirectory,
                        StatusCode::kInvalidArgument, "directory"},
        NonInstancePath{"CharacterDevice", PathKind::kCharacterDevice,
                        StatusCode::kInvalidArgument, "character device"},
        NonInstancePath{"EmptyFile", PathKind::kEmpty,
                        StatusCode::kInvalidArgument, "empty input"}),
    [](const ::testing::TestParamInfo<NonInstancePath>& info) {
      return std::string(info.param.name);
    });

// The accepting side of the same contract: a valid document with comments,
// blank lines, CRLF endings and an empty set parses to one system through
// every reader, and OpenInstance serves that system's set i at position i.
TEST(SolveSessionTest, EveryReaderAcceptsAValidDocumentAsOneSystem) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("valid.ssc");
  const std::string binary_path = dir.FilePath("valid.sscb1");
  const std::string text =
      "# a valid document\n"
      "ssc1 6 4\r\n"
      "3 0 2 4\n"
      "\n"
      "0\n"
      "  # a comment between sets\n"
      "6 0 1 2 3 4 5\r\n"
      "1 5\n";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
  }
  StatusOr<SetSystem> parsed = SetSystemFromString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_sets(), 4u);

  StatusOr<std::unique_ptr<SetStream>> opened = OpenInstance(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SetStream& stream = **opened;
  EXPECT_EQ(stream.universe_size(), parsed->universe_size());
  ASSERT_EQ(stream.num_sets(), parsed->num_sets());
  for (SetId id = 0; id < parsed->num_sets(); ++id) {
    const StreamItem item = stream.ItemAt(id);
    EXPECT_EQ(item.id, id);
    EXPECT_TRUE(item.set == parsed->set(id)) << "set " << id;
  }

  StatusOr<SetSystem> loaded = LoadSetSystem(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(
      BinaryInstanceWriter::TranscodeText(path, binary_path).ok());
  MmapSetStream binary(binary_path);
  ASSERT_TRUE(binary.status().ok()) << binary.status().ToString();
  ASSERT_EQ(loaded->num_sets(), parsed->num_sets());
  ASSERT_EQ(binary.num_sets(), parsed->num_sets());
  for (SetId id = 0; id < parsed->num_sets(); ++id) {
    EXPECT_TRUE(loaded->set(id) == parsed->set(id)) << "set " << id;
    EXPECT_TRUE(binary.set(id) == parsed->set(id)) << "set " << id;
  }
  StatusOr<SolveSession> session = SolveSession::Open(path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->num_sets(), parsed->num_sets());
}

TEST(SolveSessionTest, TruncatedTextBodyReportsInsteadOfSolvingAPrefix) {
  // The ssc1 header parses, but the body declares more sets than it
  // contains. Open() parses the whole file, so it fails there: no session
  // exists that could return a feasible report over the prefix.
  ScopedTempDir dir;
  const std::string path = dir.FilePath("truncated.ssc");
  {
    std::ofstream out(path);
    out << "ssc1 8 4\n"      // claims 4 sets...
        << "2 0 1\n"
        << "2 2 3\n";         // ...delivers 2
  }
  StatusOr<SolveSession> session = SolveSession::Open(path);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveSessionTest, AllSourcesProduceIdenticalSolutions) {
  SessionFixture fx;
  const std::vector<std::string> args = {"alpha=2", "epsilon=0.5"};

  SolveSession memory = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> mem_report = memory.Solve("assadi", args);
  ASSERT_TRUE(mem_report.ok()) << mem_report.status().ToString();
  EXPECT_TRUE(mem_report->feasible);
  EXPECT_EQ(mem_report->source, "memory");
  EXPECT_EQ(mem_report->threads, 1u);

  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  StatusOr<SolveReport> text_report = text->Solve("assadi", args);
  ASSERT_TRUE(text_report.ok()) << text_report.status().ToString();
  EXPECT_EQ(text_report->source, "memory");
  EXPECT_EQ(text_report->solution.chosen, mem_report->solution.chosen);

  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok());
  StatusOr<SolveReport> binary_report = binary->Solve("assadi", args);
  ASSERT_TRUE(binary_report.ok()) << binary_report.status().ToString();
  EXPECT_EQ(binary_report->source, "mmap");
  EXPECT_EQ(binary_report->solution.chosen, mem_report->solution.chosen);
}

TEST(SolveSessionTest, TextSourceShardsAndPreservesBytes) {
  SessionFixture fx;
  SolveSession memory = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> baseline =
      memory.Solve("threshold_greedy", {"beta=2"});
  ASSERT_TRUE(baseline.ok());

  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  StatusOr<SolveReport> sharded =
      text->Solve("threshold_greedy", {"beta=2", "threads=4"});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  // The loaded text instance shards on the 4-thread engine like any
  // in-memory source — same bytes out.
  EXPECT_EQ(text->source(), SolveSession::Source::kMemory);
  EXPECT_EQ(sharded->source, "memory");
  EXPECT_EQ(sharded->threads, 4u);
  EXPECT_EQ(sharded->solution.chosen, baseline->solution.chosen);
  EXPECT_EQ(sharded->counters.value(engine_counters::SetsTaken()),
            baseline->counters.value(engine_counters::SetsTaken()));
  EXPECT_EQ(sharded->counters.value(engine_counters::ElementsCovered()),
            baseline->counters.value(engine_counters::ElementsCovered()));
}

TEST(SolveSessionTest, RepeatedSolvesOnATextSourceAgree) {
  // The session keeps the system it loaded at Open(): every run streams
  // the same owned instance, so repeated multi-pass solves agree in full.
  SessionFixture fx;
  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  const std::vector<std::string> args = {"alpha=2", "epsilon=0.5"};
  StatusOr<SolveReport> first = text->Solve("assadi", args);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->passes, 1u);
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    StatusOr<SolveReport> again = text->Solve("assadi", args);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->solution.chosen, first->solution.chosen);
    EXPECT_EQ(again->passes, first->passes);
    EXPECT_EQ(again->peak_space_bytes, first->peak_space_bytes);
  }
}

// What happens to the ssc1 file after Open(). The session parsed it once
// and owns the result, so no later change to the file reaches a solve.
enum class FileChange { kTruncated, kReshaped, kDeleted };

class TextSessionFileChangeTest : public ::testing::TestWithParam<FileChange> {
};

TEST_P(TextSessionFileChangeTest, SolvesTheInstanceLoadedAtOpen) {
  SessionFixture fx;
  SolveSession memory = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> baseline =
      memory.Solve("threshold_greedy", {"beta=2"});
  ASSERT_TRUE(baseline.ok());

  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  switch (GetParam()) {
    case FileChange::kTruncated: {
      std::ofstream out(fx.text_path, std::ios::trunc);
      out << "ssc1 96 12\n2 0 1\n";
      break;
    }
    case FileChange::kReshaped: {
      Rng rng(5);
      ASSERT_TRUE(
          SaveSetSystem(PlantedCoverInstance(40, 5, 2, rng), fx.text_path)
              .ok());
      break;
    }
    case FileChange::kDeleted:
      ASSERT_EQ(std::remove(fx.text_path.c_str()), 0);
      break;
  }

  EXPECT_EQ(text->universe_size(), fx.system.universe_size());
  EXPECT_EQ(text->num_sets(), fx.system.num_sets());
  for (const char* threads : {"threads=1", "threads=2"}) {
    SCOPED_TRACE(threads);
    StatusOr<SolveReport> report =
        text->Solve("threshold_greedy", {"beta=2", threads});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->solution.chosen, baseline->solution.chosen);
    EXPECT_EQ(report->passes, baseline->passes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Changes, TextSessionFileChangeTest,
    ::testing::Values(FileChange::kTruncated, FileChange::kReshaped,
                      FileChange::kDeleted),
    [](const ::testing::TestParamInfo<FileChange>& info) {
      switch (info.param) {
        case FileChange::kTruncated:
          return std::string("Truncated");
        case FileChange::kReshaped:
          return std::string("Reshaped");
        case FileChange::kDeleted:
          return std::string("Deleted");
      }
      return std::string("Unknown");
    });

TEST(SolveSessionTest, MmapSourceShardsWithoutUpgrade) {
  SessionFixture fx;
  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok());
  StatusOr<SolveReport> report =
      binary->Solve("assadi", {"alpha=2", "threads=8"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(binary->source(), SolveSession::Source::kMmap);
  EXPECT_EQ(report->source, "mmap");
  EXPECT_EQ(report->threads, 8u);
  EXPECT_TRUE(report->feasible);
}

TEST(SolveSessionTest, MaxCoverageAndPairFamiliesReportTheirScalars) {
  SessionFixture fx;
  SolveSession session = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> mc = session.Solve("sieve_mc", {"k=2"});
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_EQ(mc->kind, SolverKind::kMaxCoverage);
  EXPECT_TRUE(mc->feasible);
  EXPECT_GT(mc->extra, 0u);  // exact coverage of the returned sets

  // A planted 2-cover instance for the pair finder.
  SetSystem pair_system(64);
  std::vector<ElementId> low, high;
  for (ElementId e = 0; e < 64; ++e) (e < 32 ? low : high).push_back(e);
  pair_system.AddSetFromIndices(low);
  pair_system.AddSetFromIndices(high);
  SolveSession pair_session = SolveSession::OverSystem(pair_system);
  StatusOr<SolveReport> pair = pair_session.Solve("pair_finder", {});
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->kind, SolverKind::kPairFinder);
  EXPECT_TRUE(pair->feasible);
  EXPECT_EQ(pair->solution.size(), 2u);
}

TEST(SolveSessionTest, UserInputFailuresAreStatusesNeverAborts) {
  SessionFixture fx;
  SolveSession session = SolveSession::OverSystem(fx.system);

  // Unknown solver.
  EXPECT_FALSE(session.Solve("nope", {}).ok());
  // Bad solver option (shape / range / type).
  EXPECT_FALSE(session.Solve("assadi", {"alpha=0"}).ok());
  EXPECT_FALSE(session.Solve("assadi", {"bogus=1"}).ok());
  // Bad session option: threads is a uint >= 1.
  StatusOr<SolveReport> zero = session.Solve("assadi", {"threads=0"});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("threads"), std::string::npos);
  EXPECT_FALSE(session.Solve("assadi", {"threads=lots"}).ok());
  // Stream-dependent misuse: emek_rosen threshold > n.
  StatusOr<SolveReport> big =
      session.Solve("emek_rosen", {"threshold=100000"});
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  // The session still works after all those failures.
  EXPECT_TRUE(session.Solve("assadi", {}).ok());
}

// --- The Reopen reuse contract ----------------------------------------
// A session is re-targetable in place (the daemon's warm-slot shape).
// The pinned contract: a failed Reopen leaves the session *empty* — not
// half-bound to the previous stream — and a later successful Reopen on
// the very same session behaves exactly like a fresh Open.

TEST(SolveSessionReopenTest, FailedReopenDetachesThePreviousSource) {
  SessionFixture fx;
  StatusOr<SolveSession> session = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Solve("assadi", {"alpha=2"}).ok());

  // Reopen on a missing file fails...
  EXPECT_FALSE(session->Reopen("/nonexistent/definitely/gone.sscb1").ok());
  // ...and the session is now empty: no stale mmap keeps serving.
  EXPECT_EQ(session->source(), SolveSession::Source::kNone);
  EXPECT_EQ(session->universe_size(), 0u);
  StatusOr<SolveReport> report = session->Solve("assadi", {"alpha=2"});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSessionReopenTest, SuccessAfterFailureMatchesAFreshOpen) {
  SessionFixture fx;
  // Baseline from a fresh session.
  StatusOr<SolveSession> fresh = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(fresh.ok());
  StatusOr<SolveReport> baseline = fresh->Solve("assadi", {"alpha=2"});
  ASSERT_TRUE(baseline.ok());

  // Interleave failing and succeeding opens on ONE session: text OK,
  // garbage FAIL, binary OK, missing FAIL, binary OK — the surviving
  // state must only ever reflect the last success (or be empty).
  ScopedTempDir dir;
  const std::string garbage = dir.FilePath("garbage.ssc");
  {
    std::ofstream out(garbage);
    out << "not an instance at all\n";
  }
  SolveSession session;
  ASSERT_TRUE(session.Reopen(fx.text_path).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kMemory);
  ASSERT_FALSE(session.Reopen(garbage).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kNone);
  ASSERT_TRUE(session.Reopen(fx.binary_path).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kMmap);
  ASSERT_FALSE(session.Reopen("/nonexistent/nope.ssc").ok());
  ASSERT_TRUE(session.Reopen(fx.binary_path).ok());

  StatusOr<SolveReport> report = session.Solve("assadi", {"alpha=2"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->source, "mmap");
  EXPECT_EQ(report->solution.chosen, baseline->solution.chosen);
}

TEST(SolveSessionReopenTest, ReopenReplacesTheLoadedTextSystem) {
  SessionFixture fx;
  // A second, differently shaped text instance: after a Reopen onto it,
  // nothing of the first loaded system may show through.
  ScopedTempDir dir;
  Rng rng(29);
  const SetSystem other = PlantedCoverInstance(64, 9, 3, rng);
  const std::string other_path = dir.FilePath("other.ssc");
  ASSERT_TRUE(SaveSetSystem(other, other_path).ok());
  SolveSession other_memory = SolveSession::OverSystem(other);
  StatusOr<SolveReport> other_baseline =
      other_memory.Solve("threshold_greedy", {"beta=2"});
  ASSERT_TRUE(other_baseline.ok());

  StatusOr<SolveSession> session = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Solve("threshold_greedy", {"beta=2", "threads=2"})
                  .ok());
  ASSERT_TRUE(session->Reopen(other_path).ok());
  EXPECT_EQ(session->source(), SolveSession::Source::kMemory);
  EXPECT_EQ(session->universe_size(), other.universe_size());
  EXPECT_EQ(session->num_sets(), other.num_sets());
  StatusOr<SolveReport> report =
      session->Solve("threshold_greedy", {"beta=2", "threads=2"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->source, "memory");
  EXPECT_EQ(report->solution.chosen, other_baseline->solution.chosen);

  // A Reopen onto a truncated text file fails and empties the session; a
  // later Reopen onto a good file solves normally.
  const std::string truncated = dir.FilePath("truncated.ssc");
  {
    std::ofstream out(truncated);
    out << "ssc1 8 4\n"
        << "2 0 1\n";
  }
  EXPECT_EQ(session->Reopen(truncated).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->source(), SolveSession::Source::kNone);
  EXPECT_FALSE(session->Solve("one_pass", {}).ok());
  ASSERT_TRUE(session->Reopen(fx.text_path).ok());
  EXPECT_TRUE(session->Solve("one_pass", {}).ok());
}

TEST(SolveSessionTest, EmptySessionSolveReports) {
  SolveSession empty;
  StatusOr<SolveReport> report = empty.Solve("assadi", {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSessionTest, SessionOptionsDocumentThreads) {
  const std::vector<OptionDescriptor>& options =
      SolveSession::SessionOptions();
  ASSERT_FALSE(options.empty());
  bool found = false;
  for (const OptionDescriptor& desc : options) {
    if (desc.name == "threads") {
      found = true;
      EXPECT_EQ(desc.type, OptionType::kUint);
      EXPECT_FALSE(desc.doc.empty());
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace streamsc
