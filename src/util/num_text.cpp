#include "util/num_text.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace cam {

std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

bool parse_finite(const std::string& s, double& out) {
  const char* end = s.data() + s.size();
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_unsigned(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

}  // namespace cam
