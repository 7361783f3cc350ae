#pragma once

#include <string>
#include <vector>

#include "hermes/lint/linter.hpp"

namespace hermes::lint {

/// One lint drive: discover files under root, then lex, summarize and
/// lint all of them (a cold single-thread pass over the whole tree takes
/// about 0.1 s).
struct DriveOptions {
  std::string root = ".";           ///< tree root; result paths are relative to it
  std::vector<std::string> paths;   ///< files or directories, relative to root
  std::string today;                ///< ISO date for expires() checks; empty = off
};

struct DriveResult {
  LintResult result;
  LintTiming timing;
  bool io_error = false;  ///< an input file could not be read
};

/// Runs the full pipeline over every discovered file.
DriveResult drive(const DriveOptions& options);

}  // namespace hermes::lint
