#ifndef STREAMSC_API_SOLVER_OPTIONS_H_
#define STREAMSC_API_SOLVER_OPTIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

/// \file solver_options.h
/// The typed option vocabulary of the solver API: every registered solver
/// describes its parameters as OptionDescriptors (name, type, legal
/// range, default, one-line doc), and user-supplied `key=value` strings
/// are parsed against those descriptors into a ParsedOptions bag.
///
/// This is the user-facing half of the validation story: *everything*
/// reachable from a string (CLI flag, config file, service request)
/// reports malformed input as a Status with an actionable message —
/// solver name, key, offending value, and the legal range — and never
/// aborts. The STREAMSC_CHECKs inside the solver constructors remain the
/// programmer-misuse backstop for code that builds config structs by
/// hand; the descriptor ranges here are at least as strict as those
/// CHECKs, so a registry-built config can never trip one.

namespace streamsc {

/// Value type of one solver option.
enum class OptionType {
  kUint,    ///< Non-negative integer (counts, seeds, budgets).
  kDouble,  ///< Floating point (rates, factors, epsilons).
  kBool,    ///< true/false (also accepts 1/0, yes/no, on/off).
};

/// Stable display name ("uint", "double", "bool").
const char* OptionTypeName(OptionType type);

/// One option's value. Exactly the member matching the descriptor's type
/// is meaningful.
struct OptionValue {
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
};

/// Schema of one `key=value` option: how to parse it, what values are
/// legal, what it defaults to, and what it means.
struct OptionDescriptor {
  std::string name;                     ///< The `key` users type.
  OptionType type = OptionType::kUint;  ///< Value type.
  OptionValue def;                      ///< Default when not supplied.
  /// Inclusive-by-default numeric range (ignored for kBool). Open ends
  /// are expressed with the *_exclusive flags — e.g. epsilon in (0, 1).
  double min_value = 0.0;
  double max_value = 0.0;
  bool has_min = false;
  bool has_max = false;
  bool min_exclusive = false;
  bool max_exclusive = false;
  std::string doc;                      ///< One-line description.

  /// "[1, inf)", "(0, 1)", "bool", ... — the range as shown in errors
  /// and in `workload_tool solvers`.
  std::string RangeText() const;

  /// The default rendered as the user would type it ("2", "0.5", "true").
  std::string DefaultText() const;
};

/// Convenience constructors for the common descriptor shapes.
OptionDescriptor UintOption(std::string name, std::uint64_t def,
                            std::string doc);
OptionDescriptor UintOptionMin(std::string name, std::uint64_t def,
                               std::uint64_t min, std::string doc);
OptionDescriptor DoubleOption(std::string name, double def, std::string doc);
OptionDescriptor DoubleOptionRange(std::string name, double def, double min,
                                   double max, bool min_exclusive,
                                   bool max_exclusive, std::string doc);
OptionDescriptor BoolOption(std::string name, bool def, std::string doc);

/// The result of parsing `key=value` strings against a descriptor list:
/// every described option has a value (user-supplied or default).
class ParsedOptions {
 public:
  std::uint64_t Uint(const std::string& name) const;
  double Double(const std::string& name) const;
  bool Bool(const std::string& name) const;

 private:
  friend StatusOr<ParsedOptions> ParseOptions(
      const std::string& owner, const std::vector<OptionDescriptor>& schema,
      const std::vector<std::string>& args);

  std::map<std::string, OptionValue> values_;
  std::map<std::string, bool> explicit_;
};

/// Parses `key=value` strings against \p schema. \p owner names the
/// entity the options belong to ("assadi", "session") and prefixes every
/// error. Errors are InvalidArgument (shape, unknown key, bad literal,
/// duplicate) or OutOfRange (legal literal outside the descriptor's
/// range); both quote the key, the offending value, and — for range
/// errors — the legal range.
StatusOr<ParsedOptions> ParseOptions(
    const std::string& owner, const std::vector<OptionDescriptor>& schema,
    const std::vector<std::string>& args);

}  // namespace streamsc

#endif  // STREAMSC_API_SOLVER_OPTIONS_H_
