#include "util/numbers.hh"

#include <cmath>
#include <sstream>

namespace zatel
{

namespace
{

NumberError
numberError(const std::string &name, const std::string &text,
            const std::string &why)
{
    return NumberError(name + "='" + text + "' " + why);
}

/** @p value, read from the first @p used characters of @p text. */
template <typename T>
T
checked(T value, size_t used, const std::string &text,
        const std::string &name, T lo, T hi)
{
    if (used != text.size())
        throw numberError(name, text, "has trailing junk");
    if (value < lo || value > hi) {
        std::ostringstream why;
        why.precision(17);
        why << "is out of range [" << lo << ", " << hi << "]";
        throw numberError(name, text, why.str());
    }
    return value;
}

} // namespace

uint64_t
parseUint(const std::string &text, const std::string &name, uint64_t lo,
          uint64_t hi)
{
    // std::stoull skips leading whitespace, then takes a '-' and wraps
    // the negation into the unsigned range ("-1" -> 2^64-1).
    const size_t first = text.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && text[first] == '-')
        throw numberError(name, text, "is negative");
    size_t used = 0;
    uint64_t value = 0;
    try {
        value = std::stoull(text, &used, 10);
    } catch (const std::out_of_range &) {
        throw numberError(name, text, "does not fit 64 bits");
    } catch (const std::invalid_argument &) {
        throw numberError(name, text, "is not an integer");
    }
    return checked(value, used, text, name, lo, hi);
}

double
parseDouble(const std::string &text, const std::string &name, double lo,
            double hi)
{
    // std::stod also reads hexadecimal ("0x1p4"); no other reader does.
    if (text.find_first_of("xX") != std::string::npos)
        throw numberError(name, text, "is not a base-10 number");
    size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &used);
    } catch (const std::out_of_range &) {
        throw numberError(name, text, "does not fit a double");
    } catch (const std::invalid_argument &) {
        throw numberError(name, text, "is not a number");
    }
    if (used == text.size() && !std::isfinite(value))
        throw numberError(name, text, "is not finite");
    return checked(value, used, text, name, lo, hi);
}

} // namespace zatel
