/**
 * @file
 * Minimal command-line parser for the tools and examples.
 *
 * Supports long options only ("--name value" or "--name=value"), boolean
 * flags, defaults, required options, and positional arguments. Designed
 * for small deterministic CLIs, not completeness.
 */

#ifndef ZATEL_UTIL_ARG_PARSER_HH
#define ZATEL_UTIL_ARG_PARSER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zatel
{

/** Declarative argument parser. */
class ArgParser
{
  public:
    /** @param program Program name shown in usage(). */
    explicit ArgParser(std::string program, std::string description = "");

    /** Register a boolean flag (present = true). */
    void addFlag(const std::string &name, const std::string &help);

    /** Register a string option with a default. */
    void addOption(const std::string &name, const std::string &fallback,
                   const std::string &help);

    /** Register a required string option. */
    void addRequired(const std::string &name, const std::string &help);

    /**
     * Parse argv.
     * @return true on success; on failure errorMessage() explains why.
     */
    bool parse(int argc, const char *const *argv);

    /** True when the flag/option was explicitly supplied. */
    bool has(const std::string &name) const;

    /**
     * Value of an option (the default when not supplied). For repeated
     * options ("--scene A --scene B") the last occurrence wins.
     */
    const std::string &get(const std::string &name) const;

    /**
     * All supplied occurrences of an option in command-line order
     * ("--scene PARK --scene BUNNY" -> {"PARK", "BUNNY"}), used by the
     * zatel-batch sweep shorthand. Falls back to {fallback} when the
     * option was not supplied and has a non-empty default, and to {}
     * otherwise.
     */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * Numeric options, read by the shared number reader (numbers.hh):
     * base 10, no sign on an integer, a finite real, inside [lo, hi].
     * Every tool bounds its options here, so "--workers -3" or
     * "--port 99999" gets the same message everywhere, and a tool's
     * main prints it as its `error:` line.
     * @throws NumberError naming the option ("--jobs='-1' ...").
     */
    uint64_t getUint(const std::string &name, uint64_t lo,
                     uint64_t hi) const;
    double getDouble(const std::string &name, double lo, double hi) const;
    bool getFlag(const std::string &name) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Human-readable usage text. */
    std::string usage() const;

    const std::string &errorMessage() const { return error_; }

  private:
    struct Spec
    {
        std::string help;
        std::string fallback;
        bool isFlag = false;
        bool required = false;
    };

    const Spec *specOf(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::vector<std::pair<std::string, Spec>> specs_;
    /** Every supplied occurrence per option, in command-line order. */
    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> positional_;
    std::string error_;
};

} // namespace zatel

#endif // ZATEL_UTIL_ARG_PARSER_HH
