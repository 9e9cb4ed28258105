#include "stream/stream_adapters.h"

#include <sstream>

#include "util/check.h"
#include "util/file_probe.h"

namespace streamsc {
namespace {

// Shifts an inner stream's item id into the combined id space.
StreamItem Shifted(StreamItem item, std::size_t offset) {
  item.id = static_cast<SetId>(item.id + offset);
  return item;
}

// Reads the next non-comment, non-blank line; false at end of stream.
bool NextContentLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    const std::size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if ((*line)[start] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

// ---- ConcatSetStream -------------------------------------------------------

ConcatSetStream::ConcatSetStream(SetStream& first, SetStream& second)
    : first_(first), second_(second) {
  STREAMSC_DCHECK(first_.universe_size() == second_.universe_size());
}

std::size_t ConcatSetStream::universe_size() const {
  return first_.universe_size();
}

std::size_t ConcatSetStream::num_sets() const {
  return first_.num_sets() + second_.num_sets();
}

void ConcatSetStream::BeginPass() {
  first_.BeginPass();
  second_.BeginPass();
  in_second_ = false;
  ++passes_;
}

bool ConcatSetStream::Next(StreamItem* item) {
  if (!in_second_) {
    if (first_.Next(item)) return true;
    in_second_ = true;
  }
  if (second_.Next(item)) {
    *item = Shifted(*item, first_.num_sets());
    return true;
  }
  return false;
}

// ---- InterleaveSetStream ---------------------------------------------------

InterleaveSetStream::InterleaveSetStream(SetStream& first, SetStream& second)
    : first_(first), second_(second) {
  STREAMSC_DCHECK(first_.universe_size() == second_.universe_size());
}

std::size_t InterleaveSetStream::universe_size() const {
  return first_.universe_size();
}

std::size_t InterleaveSetStream::num_sets() const {
  return first_.num_sets() + second_.num_sets();
}

void InterleaveSetStream::BeginPass() {
  first_.BeginPass();
  second_.BeginPass();
  first_done_ = false;
  second_done_ = false;
  next_is_second_ = false;
  ++passes_;
}

bool InterleaveSetStream::Next(StreamItem* item) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool take_second = next_is_second_;
    next_is_second_ = !next_is_second_;
    if (take_second && !second_done_) {
      if (second_.Next(item)) {
        *item = Shifted(*item, first_.num_sets());
        return true;
      }
      second_done_ = true;
    } else if (!take_second && !first_done_) {
      if (first_.Next(item)) return true;
      first_done_ = true;
    }
  }
  return false;
}

// ---- FileSetStream ---------------------------------------------------------

FileSetStream::FileSetStream(std::string path) : path_(std::move(path)) {
  Reopen();
  // BeginPass() re-opens; the constructor's open only validates the header.
  in_.close();
}

void FileSetStream::Reopen() {
  in_.close();
  in_.clear();
  // Probe before the blocking open: ifstream on an unfed FIFO (or a
  // device node) blocks forever, wedging whichever thread asked for the
  // pass. Missing files fall through so the open supplies NotFound.
  const Status probe = ProbeRegularFile(path_);
  if (!probe.ok() && probe.code() == StatusCode::kInvalidArgument) {
    status_ = probe;
    return;
  }
  in_.open(path_);
  if (!in_) {
    status_ = Status::NotFound("cannot open '" + path_ + "'");
    return;
  }
  std::string line;
  if (!NextContentLine(in_, &line)) {
    status_ = Status::InvalidArgument("empty file '" + path_ + "'");
    return;
  }
  std::istringstream header(line);
  std::string magic;
  std::uint64_t n = 0, m = 0;
  if (!(header >> magic >> n >> m) || magic != "ssc1") {
    status_ = Status::InvalidArgument("bad ssc1 header in '" + path_ + "'");
    return;
  }
  // Same header sanity cap as ReadSetSystem: never allocate off a corrupt
  // header.
  constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 31;
  if (n > kMaxDimension || m > kMaxDimension) {
    status_ = Status::InvalidArgument("header dimensions exceed 2^31 in '" +
                                      path_ + "'");
    return;
  }
  universe_size_ = static_cast<std::size_t>(n);
  num_sets_ = static_cast<std::size_t>(m);
  next_id_ = 0;
  status_ = Status::Ok();
}

std::size_t FileSetStream::universe_size() const { return universe_size_; }

std::size_t FileSetStream::num_sets() const { return num_sets_; }

void FileSetStream::BeginPass() {
  // A stream that was healthy on an earlier pass must stay consistent: the
  // file vanishing or changing shape between passes is an environment
  // fault no algorithm can recover from mid-run, so it fails loudly (in
  // all build modes) instead of silently streaming a different instance.
  const bool was_healthy = passes_ > 0 && status_.ok();
  const std::size_t prev_universe = universe_size_;
  const std::size_t prev_sets = num_sets_;
  Reopen();
  if (was_healthy) {
    STREAMSC_CHECK(status_.ok(),
                   "FileSetStream: file became unreadable between passes");
    STREAMSC_CHECK(
        universe_size_ == prev_universe && num_sets_ == prev_sets,
        "FileSetStream: file dimensions changed between passes");
  }
  ++passes_;
}

bool FileSetStream::Next(StreamItem* item) {
  if (!status_.ok() || next_id_ >= num_sets_) return false;
  // Errors on a file no pass has fully parsed yet report through
  // status() (the documented check-before-streaming contract; a pass
  // abandoned early by the algorithm may simply never have reached a
  // statically bad line). Once some pass has streamed all m sets
  // cleanly, though, a parse error can only mean the file was truncated
  // or modified out from under the multi-pass run — ending the stream
  // early would silently feed the algorithm a partial instance; abort
  // instead.
  const auto fail = [&](std::string message) {
    status_ = Status::InvalidArgument(std::move(message));
    STREAMSC_CHECK(!fully_parsed_once_,
                   "FileSetStream: file truncated or modified between passes");
    return false;
  };
  std::string line;
  if (!NextContentLine(in_, &line)) {
    return fail("file '" + path_ + "' ended before set " +
                std::to_string(next_id_));
  }
  std::istringstream row(line);
  std::uint64_t k = 0;
  if (!(row >> k)) {
    return fail("bad set line in '" + path_ + "'");
  }
  // Reuse the buffer: the item's view borrows it, so a fresh allocation per
  // set would leave a view held past Next() dangling instead of merely
  // stale (holding one is a contract violation either way).
  if (current_.size() == universe_size_) {
    current_.Clear();
  } else {
    current_ = DynamicBitset(universe_size_);
  }
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint64_t e = 0;
    if (!(row >> e) || e >= universe_size_) {
      return fail("bad element in '" + path_ + "'");
    }
    current_.Set(static_cast<std::size_t>(e));
  }
  item->id = next_id_++;
  if (next_id_ == num_sets_) fully_parsed_once_ = true;
  item->set = SetView(current_);
  return true;
}

}  // namespace streamsc
