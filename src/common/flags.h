// Command-line flag matching shared by the daemons, the tools, the benches
// and the shell.
#pragma once

#include <string>
#include <string_view>

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

}  // namespace loco::common
