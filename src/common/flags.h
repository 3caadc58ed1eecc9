// Command-line flag matching and whole-string integer parsing, shared by the
// daemons, the tools, the benches, the shell and the transport's spec
// parsers (--fault-spec, host:port).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace loco::common {

// Matches argv[*i] against `flag` in either `--flag value` form (the value
// is the next argument, and *i steps over it) or `--flag=value` form; on a
// match stores the value and returns true.  A flag given as the last
// argument, with no value after it, does not match.
inline bool FlagValue(int argc, char** argv, int* i, std::string_view flag,
                      std::string* out) {
  const std::string_view arg = argv[*i];
  if (arg == flag) {
    if (*i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  }
  if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    *out = std::string(arg.substr(flag.size() + 1));
    return true;
  }
  return false;
}

// Parses all of `text` as a base-10 integer of type Int.  False, with *out
// untouched, on an empty string, a sign Int cannot take ('+' never, '-'
// for an unsigned Int), trailing characters or a value out of Int's range;
// the caller adds its own range check.
template <typename Int>
bool ParseInt(std::string_view text, Int* out) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace loco::common
