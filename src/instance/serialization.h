#ifndef STREAMSC_INSTANCE_SERIALIZATION_H_
#define STREAMSC_INSTANCE_SERIALIZATION_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "instance/set_system.h"
#include "util/status.h"

/// \file serialization.h
/// Text serialization of SetSystem instances, so workloads can be
/// generated once, saved, and replayed across runs/tools (the benches and
/// the streamsc_gen example use this).
///
/// Format ("ssc1"): line-oriented, '#' comments allowed anywhere.
///
///   ssc1 <n> <m>
///   <k> <e_1> <e_2> ... <e_k>     # one line per set, elements ascending
///   ...
///
/// Element ids are 0-based and must be < n. The set count on the header
/// line must match the number of set lines.

namespace streamsc {

/// Writes \p system to \p out. Always succeeds on a good stream.
void WriteSetSystem(const SetSystem& system, std::ostream& out);

/// Serializes to a string (convenience wrapper over WriteSetSystem).
std::string SetSystemToString(const SetSystem& system);

/// Parses "ssc1" text from \p text, read in place (the text is never
/// copied whole). The one ssc1 parser: files reach it through LoadSetSystem and
/// OpenInstance (storage/mmap_set_stream.h), which parse the bytes of a
/// mapping. Returns InvalidArgument with a line-numbered message on
/// malformed input (bad magic, out-of-range element, set count mismatch,
/// trailing garbage).
StatusOr<SetSystem> SetSystemFromString(std::string_view text);

/// Writes \p system to \p path. Returns Internal if the file cannot be
/// opened or written.
Status SaveSetSystem(const SetSystem& system, const std::string& path);

}  // namespace streamsc

#endif  // STREAMSC_INSTANCE_SERIALIZATION_H_
