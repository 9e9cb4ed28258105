#include "instance/serialization.h"

#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

namespace streamsc {
namespace {

constexpr char kMagic[] = "ssc1";

// Reads the next non-comment, non-blank line into \p line. Returns false
// at end of stream. \p line_number tracks position for error messages.
bool NextContentLine(std::istream& in, std::string* line,
                     std::size_t* line_number) {
  while (std::getline(in, *line)) {
    ++*line_number;
    const std::size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;   // blank
    if ((*line)[start] == '#') continue;        // comment
    return true;
  }
  return false;
}

// A read-only stream buffer over bytes it does not own. The get area is
// the bytes themselves; nothing ever writes through it (the default
// pbackfail refuses a putback that would change a byte), so it can sit
// on a read-only mapping.
class ByteViewBuf : public std::streambuf {
 public:
  explicit ByteViewBuf(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

Status MalformedAt(std::size_t line_number, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + what);
}

}  // namespace

void WriteSetSystem(const SetSystem& system, std::ostream& out) {
  out << kMagic << ' ' << system.universe_size() << ' ' << system.num_sets()
      << '\n';
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const std::vector<ElementId> members = system.set(id).ToIndices();
    out << members.size();
    for (ElementId e : members) out << ' ' << e;
    out << '\n';
  }
}

std::string SetSystemToString(const SetSystem& system) {
  std::ostringstream out;
  WriteSetSystem(system, out);
  return out.str();
}

StatusOr<SetSystem> SetSystemFromString(std::string_view text) {
  ByteViewBuf buf(text);
  std::istream in(&buf);
  std::string line;
  std::size_t line_number = 0;
  if (!NextContentLine(in, &line, &line_number)) {
    return Status::InvalidArgument("empty input (missing ssc1 header)");
  }

  std::istringstream header(line);
  std::string magic;
  std::uint64_t n = 0, m = 0;
  if (!(header >> magic >> n >> m) || magic != kMagic) {
    return MalformedAt(line_number,
                       "expected header 'ssc1 <n> <m>', got '" + line + "'");
  }
  // Sanity caps: a corrupt header must not drive allocation. 2^31 bits is
  // already a 256 MiB set — far beyond any workload this library targets.
  constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 31;
  if (n > kMaxDimension || m > kMaxDimension) {
    return MalformedAt(line_number, "header dimensions exceed 2^31");
  }
  std::string trailing;
  if (header >> trailing) {
    return MalformedAt(line_number, "trailing tokens after header");
  }

  SetSystem system(static_cast<std::size_t>(n));
  for (std::uint64_t set_index = 0; set_index < m; ++set_index) {
    if (!NextContentLine(in, &line, &line_number)) {
      return Status::InvalidArgument(
          "expected " + std::to_string(m) + " set lines, got " +
          std::to_string(set_index));
    }
    std::istringstream row(line);
    std::uint64_t k = 0;
    if (!(row >> k)) {
      return MalformedAt(line_number, "expected '<k> <elements...>'");
    }
    DynamicBitset set(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < k; ++i) {
      std::uint64_t e = 0;
      if (!(row >> e)) {
        return MalformedAt(line_number,
                           "set declares " + std::to_string(k) +
                               " elements but lists fewer");
      }
      if (e >= n) {
        return MalformedAt(line_number,
                           "element " + std::to_string(e) +
                               " out of range for universe " +
                               std::to_string(n));
      }
      set.Set(static_cast<std::size_t>(e));
    }
    if (row >> trailing) {
      return MalformedAt(line_number, "trailing tokens after set elements");
    }
    if (set.CountSet() != k) {
      return MalformedAt(line_number, "duplicate elements in set line");
    }
    system.AddSet(std::move(set));
  }

  if (NextContentLine(in, &line, &line_number)) {
    return MalformedAt(line_number, "trailing content after last set");
  }
  return system;
}

Status SaveSetSystem(const SetSystem& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  WriteSetSystem(system, out);
  out.flush();
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::Ok();
}

}  // namespace streamsc
