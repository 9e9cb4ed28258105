// Fuzz harness for the ssc1 text parser (instance/serialization.h), the
// first of the three untrusted-input surfaces. Contract under attack:
// arbitrary bytes either parse into a valid SetSystem or produce a
// non-empty InvalidArgument Status — never an abort, never OOB, and an
// accepted instance must survive a write/reparse round trip unchanged:
// same n, same m, and every set with the same elements.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "instance/serialization.h"
#include "instance/set_system.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Parsing is O(input), but a tiny header can still name a huge universe;
  // the parser's dimension caps bound allocation, so only wall time needs
  // capping here.
  if (size > (std::size_t{1} << 16)) return 0;
  // Parsed in place, as a mapped file is: a read past the last byte hits
  // the end of the fuzzer's own buffer, where the sanitizers see it.
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  const streamsc::StatusOr<streamsc::SetSystem> parsed =
      streamsc::SetSystemFromString(text);
  if (!parsed.ok()) {
    STREAMSC_CHECK(!parsed.status().message().empty(),
                   "ssc1 rejection must carry a diagnostic message");
    return 0;
  }

  // Accepted input: serialize and reparse. The round trip must be
  // accepted too and reproduce the instance set for set.
  const std::string rewritten = streamsc::SetSystemToString(*parsed);
  const streamsc::StatusOr<streamsc::SetSystem> again =
      streamsc::SetSystemFromString(rewritten);
  STREAMSC_CHECK(again.ok(), "ssc1 round trip rejected its own output");
  STREAMSC_CHECK(again->universe_size() == parsed->universe_size(),
                 "ssc1 round trip changed the universe size");
  STREAMSC_CHECK(again->num_sets() == parsed->num_sets(),
                 "ssc1 round trip changed the set count");
  for (streamsc::SetId id = 0; id < parsed->num_sets(); ++id) {
    STREAMSC_CHECK(again->set(id) == parsed->set(id),
                   "ssc1 round trip changed a set's elements");
  }
  return 0;
}
