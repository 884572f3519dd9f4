// Shared command-line flag table for the sweep-era CLIs. One FlagSet
// holds every flag a binary understands (name, help line, typed
// destination); parse() consumes "--name=value" / "--name" tokens and
// treats anything unknown as a hard error — a misspelled flag must
// never be silently ignored when it decides how many hours a sweep
// costs. camsim registers one table consumed by all subcommands; the
// bench binaries reuse the same machinery through exp::parse_scale.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cam::runtime {

/// Inclusive seed interval, parsed from "A..B" or a single "N".
struct SeedRange {
  std::uint64_t lo = 1;
  std::uint64_t hi = 1;

  std::size_t count() const { return static_cast<std::size_t>(hi - lo + 1); }
  /// Accepts "N" (lo = hi = N) or "A..B" with A <= B.
  static bool parse(const std::string& text, SeedRange* out,
                    std::string* error);
};

namespace detail {
bool parse_u64(const std::string& v, std::uint64_t* out, std::string* error);
bool parse_i64(const std::string& v, std::int64_t* out, std::string* error);
bool parse_double(const std::string& v, double* out, std::string* error);
}  // namespace detail

class FlagSet {
 public:
  /// Custom value parser: returns false and fills *error on bad input.
  using Parser = std::function<bool(const std::string& value,
                                    std::string* error)>;

  /// Valueless switch: "--name" sets *target to `value` (default true,
  /// so "--no-foo" switches register with value = false).
  void add_switch(const std::string& name, const std::string& help,
                  bool* target, bool value = true);

  /// "--name=text" verbatim.
  void add(const std::string& name, const std::string& help,
           std::string* target);

  /// "--name=A..B" seed ranges.
  void add(const std::string& name, const std::string& help,
           SeedRange* target);

  /// Numeric flags (integral or floating destination).
  template <class T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  void add(const std::string& name, const std::string& help, T* target) {
    add_parsed(name, help, [target](const std::string& v,
                                    std::string* error) {
      if constexpr (std::is_floating_point_v<T>) {
        double d = 0;
        if (!detail::parse_double(v, &d, error)) return false;
        *target = static_cast<T>(d);
      } else if constexpr (std::is_signed_v<T>) {
        std::int64_t i = 0;
        if (!detail::parse_i64(v, &i, error)) return false;
        *target = static_cast<T>(i);
      } else {
        std::uint64_t u = 0;
        if (!detail::parse_u64(v, &u, error)) return false;
        *target = static_cast<T>(u);
      }
      return true;
    });
  }

  /// Integral flags limited to [lo, hi]. The range is checked before the
  /// value narrows to T, so a value outside it is an error, never a
  /// wrapped or truncated number.
  template <std::integral T>
  void add(const std::string& name, const std::string& help, T* target,
           T lo, T hi = std::numeric_limits<T>::max()) {
    add_parsed(name, help, [=](const std::string& v, std::string* error) {
      std::int64_t i = 0;
      if (!detail::parse_i64(v, &i, error)) return false;
      if (std::cmp_less(i, lo) || std::cmp_greater(i, hi)) {
        *error = (hi == std::numeric_limits<T>::max()
                      ? "must be at least " + std::to_string(lo)
                      : "must be in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]") +
                 ", got " + v;
        return false;
      }
      *target = static_cast<T>(i);
      return true;
    });
  }

  /// Escape hatch for structured values ("--cap=LO:HI").
  void add_parsed(const std::string& name, const std::string& help,
                  Parser parser);

  /// Parses argv[first..argc). On failure returns false with *error set
  /// (unknown flag, missing/extra value, bad number). Every token must
  /// be a flag — positional operands are the caller's business before
  /// `first`.
  bool parse(int argc, char** argv, int first, std::string* error);

  /// True if the most recent parse() saw this flag explicitly.
  bool provided(const std::string& name) const;

  /// "  --name=...  help" lines in registration order.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;  // without the leading "--"
    std::string help;
    bool takes_value = true;
    Parser parser;
    bool* switch_target = nullptr;
    bool switch_value = true;
    bool seen = false;
  };
  Flag* find(const std::string& name);
  const Flag* find(const std::string& name) const;

  std::vector<Flag> flags_;
};

}  // namespace cam::runtime
