// Fuzz harness for the sscb1 binary reader (storage/), the second
// untrusted-input surface: header, offset index, and payload validation
// in MmapSetStream. Contract under attack: any byte string either
// validates end to end — after which every set view must be in bounds and
// the pass must materialize into a valid SetSystem of the same size — or
// is rejected with a non-empty Status at open; nothing may abort.
//
// MmapSetStream reads from a file, so each input is staged through one
// per-process scratch file (same page-cache-hot inode every iteration).

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "instance/set_system.h"
#include "storage/mmap_set_stream.h"
#include "stream/set_stream.h"
#include "util/check.h"

namespace {

const std::string& ScratchPath() {
  static const std::string path = [] {
    const char* tmpdir = std::getenv("TMPDIR");
    return std::string(tmpdir ? tmpdir : "/tmp") +
           "/streamsc_fuzz_sscb1." + std::to_string(::getpid());
  }();
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (std::size_t{1} << 16)) return 0;
  {
    std::ofstream out(ScratchPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  streamsc::MmapSetStream stream(ScratchPath());
  if (!stream.status().ok()) {
    STREAMSC_CHECK(!stream.status().message().empty(),
                   "sscb1 rejection must carry a diagnostic message");
    // A rejected stream must present as empty, not as a half-loaded one.
    STREAMSC_CHECK(stream.num_sets() == 0,
                   "rejected sscb1 stream still exposes sets");
    return 0;
  }

  // Validated file: every view the stream serves must stay inside the
  // declared universe — walk one full pass and touch every element.
  // The same pass also copies every view into an owning SetSystem.
  const std::size_t n = stream.universe_size();
  streamsc::SetSystem materialized(n);
  stream.BeginPass();
  streamsc::StreamItem item;
  std::size_t sets_seen = 0;
  while (stream.Next(&item)) {
    ++sets_seen;
    item.set.ForEach([n](std::size_t element) {
      STREAMSC_CHECK(element < n,
                     "validated sscb1 payload served an out-of-range id");
    });
    materialized.AddSetFromView(item.set);
  }
  STREAMSC_CHECK(sets_seen == stream.num_sets(),
                 "sscb1 pass length disagrees with the index");

  // The owning copy re-checks every set on its own terms; a stream that
  // served views the SetSystem invariants reject would under-validate.
  STREAMSC_CHECK(materialized.Validate().ok(),
                 "MmapSetStream accepted a file that materializes invalid");
  STREAMSC_CHECK(materialized.num_sets() == sets_seen,
                 "sscb1 pass and its materialized system disagree on the "
                 "set count");
  return 0;
}
