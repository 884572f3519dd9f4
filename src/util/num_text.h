// Numbers as plan and report text. The fault and workload plan DSLs
// parse with these, and every plan and report prints its numbers with
// format_g, so parse(to_string(plan)) == plan holds exactly.
//
// The parsers are strict: the whole token must be a plain decimal number
// (no blank, no leading '+', no hex), a double must be finite (no nan /
// inf), and an unsigned integer takes no sign (so "-1" is an error, not
// 2^64 - 1).
#pragma once

#include <cstdint>
#include <string>

namespace cam {

/// "%g": integers print without trailing zeros, and every value a plan
/// uses round-trips through the parsers below.
std::string format_g(double v);

/// A finite decimal double filling all of `s`.
bool parse_finite(const std::string& s, double& out);

/// A base-10 unsigned 64-bit integer filling all of `s`, digits only.
bool parse_unsigned(const std::string& s, std::uint64_t& out);

}  // namespace cam
