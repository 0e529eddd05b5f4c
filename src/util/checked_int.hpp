// Overflow-checked 64-bit integer helpers.
//
// Buffer-capacity formulas multiply token quanta (up to a few thousand) by
// rate numerators; chains of such products can overflow int64 for synthetic
// stress inputs.  All arithmetic feeding a reported capacity goes through
// these helpers so that overflow is an exception, never a wrong number.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>

#include "util/error.hpp"

namespace vrdf {

namespace detail {
[[noreturn]] void throw_overflow(const char* op);
}  // namespace detail

// The checked arithmetic helpers are inline: the tick-clock simulator runs
// every event-time addition and comparison through them, so a function call
// per operation would dominate the hot loop.  The overflow branch itself
// compiles to a single flag test.

/// Adds two int64 values; throws OverflowError when the sum is not
/// representable.
[[nodiscard]] inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    detail::throw_overflow("addition");
  }
  return out;
}

/// Subtracts b from a; throws OverflowError when the difference is not
/// representable.
[[nodiscard]] inline std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    detail::throw_overflow("subtraction");
  }
  return out;
}

/// Multiplies two int64 values; throws OverflowError when the product is not
/// representable.
[[nodiscard]] inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    detail::throw_overflow("multiplication");
  }
  return out;
}

/// Negates a; throws OverflowError for INT64_MIN.
[[nodiscard]] inline std::int64_t checked_neg(std::int64_t a) {
  if (a == std::numeric_limits<std::int64_t>::min()) {
    detail::throw_overflow("negation");
  }
  return -a;
}

/// Greatest common divisor of |a| and |b|; gcd(0, 0) == 0.
[[nodiscard]] std::int64_t gcd64(std::int64_t a, std::int64_t b);

/// Least common multiple of |a| and |b|; throws OverflowError when the
/// result is not representable.  lcm(0, x) == 0.
[[nodiscard]] std::int64_t checked_lcm(std::int64_t a, std::int64_t b);

/// Floor division a / b for b > 0 (rounds towards negative infinity).
[[nodiscard]] std::int64_t floor_div(std::int64_t a, std::int64_t b);

/// Ceiling division a / b for b > 0 (rounds towards positive infinity).
[[nodiscard]] std::int64_t ceil_div(std::int64_t a, std::int64_t b);

/// Outcome of scan_int64, in the order std::stoll checks them.
enum class IntScan { Ok, NoDigits, OutOfRange, Trailing };

/// Reads a decimal int64 under std::stoll's grammar, without its
/// leading-whitespace skip: one optional '+' or '-', then at least one
/// digit.  NoDigits when that prefix is absent, OutOfRange when its value
/// does not fit int64, Trailing when characters follow it.  `value` holds
/// the number on Ok and Trailing.
[[nodiscard]] inline IntScan scan_int64(std::string_view text,
                                        std::int64_t& value) {
  const bool sign = !text.empty() && (text[0] == '+' || text[0] == '-');
  const std::size_t first_digit = sign ? 1 : 0;
  if (first_digit >= text.size() || text[first_digit] < '0' ||
      text[first_digit] > '9') {
    return IntScan::NoDigits;
  }
  // from_chars takes a '-' but not a '+'.
  const char* first = text.data() + (text[0] == '-' ? 0 : first_digit);
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(first, last, value);
  if (error == std::errc::result_out_of_range) {
    return IntScan::OutOfRange;
  }
  return end == last ? IntScan::Ok : IntScan::Trailing;
}

}  // namespace vrdf
