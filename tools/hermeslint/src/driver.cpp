#include "hermes/lint/driver.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace hermes::lint {

namespace fs = std::filesystem;

namespace {

// hermeslint:allow(determinism.clock) the lint driver times its own wall clock for the --json timing report; tool code, not simulation code
using Clock = std::chrono::steady_clock;

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' || name.rfind("build", 0) == 0 ||
         name == "fixtures";
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

void collect(const fs::path& root, const fs::path& arg, std::vector<fs::path>& out) {
  const fs::path full = arg.is_absolute() ? arg : root / arg;
  if (fs::is_regular_file(full)) {
    out.push_back(full);
    return;
  }
  if (!fs::is_directory(full)) return;
  for (auto it = fs::recursive_directory_iterator(full);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) out.push_back(it->path());
  }
}

}  // namespace

DriveResult drive(const DriveOptions& options) {
  const Clock::time_point t0 = Clock::now();
  DriveResult out;

  const fs::path root = options.root.empty() ? fs::path(".") : fs::path(options.root);
  std::vector<fs::path> files;
  for (const std::string& a : options.paths) collect(root, a, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Linter linter;
  linter.set_today(options.today);
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      out.io_error = true;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    linter.add_file(fs::relative(f, root).generic_string(), std::move(ss).str());
  }
  out.result = linter.run();
  out.timing.files_linted = out.result.files_scanned;
  out.timing.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return out;
}

}  // namespace hermes::lint
