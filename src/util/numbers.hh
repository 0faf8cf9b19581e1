/**
 * @file
 * The repository's one number reader: tool options, campaign fields,
 * /predict bodies, fault and chaos specs, the examples' arguments and
 * the benches' ZATEL_BENCH_* variables. Base 10 only ("010" is ten,
 * "0x3" an error), no sign on an integer (never wrapped), finite reals
 * only, and a closed range checked before any narrowing cast.
 */

#ifndef ZATEL_UTIL_NUMBERS_HH
#define ZATEL_UTIL_NUMBERS_HH

#include <cfloat>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace zatel
{

/** A number that is malformed, not finite or out of its range. */
class NumberError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Read @p text as a base-10 unsigned integer in [@p lo, @p hi].
 * @param name What the value is, for the message ("res", "--jobs").
 * @throws NumberError otherwise.
 */
uint64_t parseUint(const std::string &text, const std::string &name,
                   uint64_t lo = 0, uint64_t hi = UINT64_MAX);

/** Read @p text as a finite base-10 real in [@p lo, @p hi]. */
double parseDouble(const std::string &text, const std::string &name,
                   double lo = -DBL_MAX, double hi = DBL_MAX);

} // namespace zatel

#endif // ZATEL_UTIL_NUMBERS_HH
