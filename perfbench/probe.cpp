#include "probe.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <queue>
#include <unordered_map>

#include <sys/resource.h>
#include <unistd.h>

// ---------------------------------------------------------------------
// Global allocation counter. Relaxed atomics, as in bench/engine_scale:
// sharded_cast's second lane allocates concurrently with the caller,
// and the counts are read only at quiescent points between calls.
// ---------------------------------------------------------------------
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every replaceable form that pairs with the delete below, nothrow forms
// included (std::stable_sort's buffer uses them), so that no block is
// allocated by one allocator and freed by another.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

void count_allocs(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
std::vector<double> g_calibration;  // kernel times, seconds
double g_last_calibration = 0;
volatile std::uint64_t g_kernel_sink;

// A fixed mix of the work the workloads do: a binary heap of pending
// times, a hash map updated at random keys, and random reads over a
// 256 KB table. It never changes with the library, so its time moves
// only with the machine. About 5 ms.
double kernel_s() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(64 * 1024);
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return t;
  }();
  const double t0 = now_s();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 2048; ++i) heap.push(next() & 0xffffff);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    const std::uint32_t key = table[r & (table.size() - 1)] & 0x3fff;
    acc += (map[key] += static_cast<std::uint32_t>(t));
    heap.push(t + (r >> 44));
  }
  g_kernel_sink = acc;
  return now_s() - t0;
}
}  // namespace

void calibration_tick() {
  const double now = now_s();
  if (!g_calibration.empty() && now - g_last_calibration < kCalibrationEveryS) {
    return;
  }
  g_calibration.push_back(kernel_s());
  g_last_calibration = now_s();
}

double calibration_s() {
  if (g_calibration.empty()) g_calibration.push_back(kernel_s());
  return *std::min_element(g_calibration.begin(), g_calibration.end());
}

std::size_t calibration_samples() { return g_calibration.size(); }

double reference_s(double wall_s) {
  return wall_s * kReferenceKernelS / calibration_s();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNone : stack_.back();
  s.run = run_;
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(idx);
  spans_[idx].start_ns = now_ns();
  return idx;
}

void Tracer::close(std::uint32_t idx) {
  Span& s = spans_[idx];
  s.end_ns = now_ns();
  stack_.pop_back();
  if (s.parent != kNone) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

std::size_t Tracer::tally_slot(const char* name) {
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    if (std::string(tallies_[i].name) == name) return i;
  }
  tallies_.push_back(Tally{name, 0, 0});
  return tallies_.size() - 1;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (name == s.name) t += s.seconds();
  }
  return t;
}

double Tracer::self_s(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (name == s.name) t += s.self_seconds();
  }
  return t;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t c = 0;
  for (const Span& s : spans_) c += name == s.name;
  return c;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"run\":%u,\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu}\n",
                 i, s.name, s.run,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns -
                                                 s.child_ns));
  }
  for (const Tally& t : tallies_) {
    std::fprintf(f, "{\"tally\":\"%s\",\"count\":%llu,\"ns\":%llu}\n", t.name,
                 static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
