// Strict number parsing, shared by every textual grammar the library
// reads: the command-line knobs (exec/config.h), explore's own options,
// the crash schedule (sim/faults.h), the chaos spec (net/chaos.h), the
// worker argv and the checkpoint identity line.
//
// The whole of `text` must be the number.  Whitespace, trailing junk, any
// sign (a leading '-' would wrap an unsigned count to 2^64-1, a '+' is a
// spelling nobody means), hex floats, overflow, NaN and the infinities all
// yield std::nullopt; range checks are the caller's.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace simulcast {

[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text);
[[nodiscard]] std::optional<double> parse_real(std::string_view text);

}  // namespace simulcast
