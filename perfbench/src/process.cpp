// Process-level measurements: the set-up clock origin, peak RSS, and a
// count of every global operator new (the benchmark's own allocation
// counter; the library is unchanged).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

Clock::time_point process_start() { return g_process_start; }

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: across execve Linux carries the
  // launcher's high-water mark into ru_maxrss, so a process smaller than
  // the Python that started it reads the launcher's size. File-backed
  // pages (program text, shared libraries) are left out: how many of them
  // are mapped follows the page cache's folio sizes, which move by
  // megabytes with the host's history (a fresh build maps more), not with
  // the program's own memory.
  long hwm_kib = 0;
  long file_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      std::sscanf(line, "VmHWM: %ld kB", &hwm_kib);
      std::sscanf(line, "RssFile: %ld kB", &file_kib);
    }
    std::fclose(f);
  }
  return static_cast<double>(hwm_kib - file_kib) / 1024.0;
}

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
