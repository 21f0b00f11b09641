// Strict parsing of the integer-valued command-line flags of cqld, cqlc and
// cqlfuzz.
// Every numeric flag is declared once with its accepted range; a value that
// is not a whole base-10 integer inside that range is a usage error naming
// the flag, never a silent 0 or a wrapped-around size.

#ifndef CQLOPT_TOOLS_NUMERIC_FLAGS_H_
#define CQLOPT_TOOLS_NUMERIC_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace cqlopt_tools {

/// One integer flag: its name, the inclusive range of accepted values, and
/// where a parsed value goes.
struct NumericFlag {
  const char* name;
  long min;
  long max;
  std::function<void(long)> set;
};

/// Setters for NumericFlag::set; the flag's range keeps the value inside
/// the field's type.
inline std::function<void(long)> Store(int* field) {
  return [field](long v) { *field = static_cast<int>(v); };
}
inline std::function<void(long)> Store(long* field) {
  return [field](long v) { *field = v; };
}
inline std::function<void(long)> Store(size_t* field) {
  return [field](long v) { *field = static_cast<size_t>(v); };
}

/// Parses all of `text` as a base-10 integer in [min, max]. Empty text,
/// leading whitespace, trailing characters and out-of-range values (also
/// those beyond `long`) are rejected.
inline bool ParseLongInRange(const char* text, long min, long max,
                             long* out) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// Unsigned counterpart of ParseLongInRange for flags that take any
/// uint64_t (cqlfuzz --seed): all of `text` must be base-10 digits. A sign
/// is rejected, since strtoull would silently wrap "-1" to 2^64 - 1.
inline bool ParseUint64(const char* text, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

enum class FlagMatch { kNotNumeric, kParsed, kBad };

/// If argv[*i] names one of `flags`, consumes the value after it, parses
/// it, and stores it through the flag's setter. A missing or invalid value
/// prints "<tool>: <flag> needs an integer in [min, max], got '<value>'"
/// and returns kBad; the caller exits with its usage code.
inline FlagMatch MatchNumericFlag(const char* tool,
                                  const std::vector<NumericFlag>& flags,
                                  int argc, char** argv, int* i) {
  const std::string arg = argv[*i];
  for (const NumericFlag& flag : flags) {
    if (arg != flag.name) continue;
    const char* value = *i + 1 < argc ? argv[++*i] : nullptr;
    long parsed = 0;
    if (value == nullptr ||
        !ParseLongInRange(value, flag.min, flag.max, &parsed)) {
      std::cerr << tool << ": " << flag.name << " needs an integer in ["
                << flag.min << ", " << flag.max << "], got "
                << (value == nullptr ? "nothing"
                                     : "'" + std::string(value) + "'")
                << "\n";
      return FlagMatch::kBad;
    }
    flag.set(parsed);
    return FlagMatch::kParsed;
  }
  return FlagMatch::kNotNumeric;
}

}  // namespace cqlopt_tools

#endif  // CQLOPT_TOOLS_NUMERIC_FLAGS_H_
