#include "api/solver_options.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/check.h"

namespace streamsc {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string BoundText(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return FormatDouble(v);
}

// "assadi: option 'alpha' ..." — every parse error starts the same way so
// a user can see at a glance which solver and key to fix.
std::string ErrorPrefix(const std::string& owner, const std::string& key) {
  return owner + ": option '" + key + "'";
}

Status ParseUintValue(const std::string& owner, const std::string& key,
                      const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument(ErrorPrefix(owner, key) +
                                   " has an empty value; expected a "
                                   "non-negative integer");
  }
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(
          ErrorPrefix(owner, key) + " = '" + text +
          "' is not a non-negative integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return Status::OutOfRange(ErrorPrefix(owner, key) + " = '" + text +
                              "' overflows a 64-bit unsigned integer");
  }
  *out = value;
  return Status::Ok();
}

Status ParseDoubleValue(const std::string& owner, const std::string& key,
                        const std::string& text, double* out) {
  if (text.empty()) {
    return Status::InvalidArgument(ErrorPrefix(owner, key) +
                                   " has an empty value; expected a number");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return Status::InvalidArgument(ErrorPrefix(owner, key) + " = '" + text +
                                   "' is not a finite number");
  }
  *out = value;
  return Status::Ok();
}

Status ParseBoolValue(const std::string& owner, const std::string& key,
                      const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    *out = true;
    return Status::Ok();
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    *out = false;
    return Status::Ok();
  }
  return Status::InvalidArgument(ErrorPrefix(owner, key) + " = '" + text +
                                 "' is not a boolean (use true/false, 1/0, "
                                 "yes/no, or on/off)");
}

Status CheckRange(const std::string& owner, const OptionDescriptor& desc,
                  const std::string& text, double value) {
  const bool below =
      desc.has_min && (desc.min_exclusive ? value <= desc.min_value
                                          : value < desc.min_value);
  const bool above =
      desc.has_max && (desc.max_exclusive ? value >= desc.max_value
                                          : value > desc.max_value);
  if (below || above) {
    return Status::OutOfRange(ErrorPrefix(owner, desc.name) + " = '" + text +
                              "' is outside the legal range " +
                              desc.RangeText());
  }
  return Status::Ok();
}

}  // namespace

const char* OptionTypeName(OptionType type) {
  switch (type) {
    case OptionType::kUint:
      return "uint";
    case OptionType::kDouble:
      return "double";
    case OptionType::kBool:
      return "bool";
  }
  return "unknown";
}

std::string OptionDescriptor::RangeText() const {
  if (type == OptionType::kBool) return "true|false";
  if (!has_min && !has_max) return "any";
  std::string out;
  out += has_min ? (min_exclusive ? "(" : "[") : "(";
  out += has_min ? BoundText(min_value) : "-inf";
  out += ", ";
  out += has_max ? BoundText(max_value) : "inf";
  out += has_max ? (max_exclusive ? ")" : "]") : ")";
  return out;
}

std::string OptionDescriptor::DefaultText() const {
  switch (type) {
    case OptionType::kUint:
      return std::to_string(def.u);
    case OptionType::kDouble:
      return FormatDouble(def.d);
    case OptionType::kBool:
      return def.b ? "true" : "false";
  }
  return "";
}

OptionDescriptor UintOption(std::string name, std::uint64_t def,
                            std::string doc) {
  OptionDescriptor d;
  d.name = std::move(name);
  d.type = OptionType::kUint;
  d.def.u = def;
  d.doc = std::move(doc);
  return d;
}

OptionDescriptor UintOptionMin(std::string name, std::uint64_t def,
                               std::uint64_t min, std::string doc) {
  OptionDescriptor d = UintOption(std::move(name), def, std::move(doc));
  d.has_min = true;
  d.min_value = static_cast<double>(min);
  return d;
}

OptionDescriptor DoubleOption(std::string name, double def, std::string doc) {
  OptionDescriptor d;
  d.name = std::move(name);
  d.type = OptionType::kDouble;
  d.def.d = def;
  d.doc = std::move(doc);
  return d;
}

OptionDescriptor DoubleOptionRange(std::string name, double def, double min,
                                   double max, bool min_exclusive,
                                   bool max_exclusive, std::string doc) {
  OptionDescriptor d = DoubleOption(std::move(name), def, std::move(doc));
  d.has_min = !std::isinf(min);
  d.has_max = !std::isinf(max);
  d.min_value = min;
  d.max_value = max;
  d.min_exclusive = min_exclusive;
  d.max_exclusive = max_exclusive;
  return d;
}

OptionDescriptor BoolOption(std::string name, bool def, std::string doc) {
  OptionDescriptor d;
  d.name = std::move(name);
  d.type = OptionType::kBool;
  d.def.b = def;
  d.doc = std::move(doc);
  return d;
}

std::uint64_t ParsedOptions::Uint(const std::string& name) const {
  const auto it = values_.find(name);
  STREAMSC_CHECK(it != values_.end(),
                 "ParsedOptions: lookup of an undescribed option");
  return it->second.u;
}

double ParsedOptions::Double(const std::string& name) const {
  const auto it = values_.find(name);
  STREAMSC_CHECK(it != values_.end(),
                 "ParsedOptions: lookup of an undescribed option");
  return it->second.d;
}

bool ParsedOptions::Bool(const std::string& name) const {
  const auto it = values_.find(name);
  STREAMSC_CHECK(it != values_.end(),
                 "ParsedOptions: lookup of an undescribed option");
  return it->second.b;
}

StatusOr<ParsedOptions> ParseOptions(
    const std::string& owner, const std::vector<OptionDescriptor>& schema,
    const std::vector<std::string>& args) {
  ParsedOptions out;
  for (const OptionDescriptor& desc : schema) {
    out.values_[desc.name] = desc.def;
    out.explicit_[desc.name] = false;
  }

  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          owner + ": malformed option '" + arg +
          "'; expected key=value");
    }
    const std::string key = arg.substr(0, eq);
    const std::string text = arg.substr(eq + 1);

    const OptionDescriptor* desc = nullptr;
    for (const OptionDescriptor& d : schema) {
      if (d.name == key) {
        desc = &d;
        break;
      }
    }
    if (desc == nullptr) {
      std::string valid;
      for (const OptionDescriptor& d : schema) {
        if (!valid.empty()) valid += ", ";
        valid += d.name;
      }
      if (valid.empty()) valid = "<none>";
      return Status::InvalidArgument(owner + ": unknown option '" + key +
                                     "' (valid: " + valid + ")");
    }
    if (out.explicit_[key]) {
      return Status::InvalidArgument(ErrorPrefix(owner, key) +
                                     " was supplied more than once");
    }

    OptionValue value = desc->def;
    Status status;
    double numeric = 0.0;
    switch (desc->type) {
      case OptionType::kUint:
        status = ParseUintValue(owner, key, text, &value.u);
        numeric = static_cast<double>(value.u);
        break;
      case OptionType::kDouble:
        status = ParseDoubleValue(owner, key, text, &value.d);
        numeric = value.d;
        break;
      case OptionType::kBool:
        status = ParseBoolValue(owner, key, text, &value.b);
        break;
    }
    if (!status.ok()) return status;
    if (desc->type != OptionType::kBool) {
      status = CheckRange(owner, *desc, text, numeric);
      if (!status.ok()) return status;
    }
    out.values_[key] = value;
    out.explicit_[key] = true;
  }
  return out;
}

}  // namespace streamsc
