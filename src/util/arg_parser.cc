#include "util/arg_parser.hh"

#include <sstream>

#include "util/logging.hh"
#include "util/numbers.hh"

namespace zatel
{

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    Spec spec;
    spec.help = help;
    spec.isFlag = true;
    specs_.emplace_back(name, spec);
}

void
ArgParser::addOption(const std::string &name, const std::string &fallback,
                     const std::string &help)
{
    Spec spec;
    spec.help = help;
    spec.fallback = fallback;
    specs_.emplace_back(name, spec);
}

void
ArgParser::addRequired(const std::string &name, const std::string &help)
{
    Spec spec;
    spec.help = help;
    spec.required = true;
    specs_.emplace_back(name, spec);
}

const ArgParser::Spec *
ArgParser::specOf(const std::string &name) const
{
    for (const auto &[spec_name, spec] : specs_) {
        if (spec_name == name)
            return &spec;
    }
    return nullptr;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    values_.clear();
    positional_.clear();
    error_.clear();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool has_inline_value = false;
        size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline_value = true;
        }

        const Spec *spec = specOf(name);
        if (!spec) {
            error_ = "unknown option --" + name;
            return false;
        }
        if (spec->isFlag) {
            if (has_inline_value) {
                error_ = "flag --" + name + " takes no value";
                return false;
            }
            values_[name].push_back("1");
            continue;
        }
        if (!has_inline_value) {
            if (i + 1 >= argc) {
                error_ = "option --" + name + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        values_[name].push_back(value);
    }

    for (const auto &[name, spec] : specs_) {
        if (spec.required && values_.count(name) == 0) {
            error_ = "missing required option --" + name;
            return false;
        }
    }
    return true;
}

bool
ArgParser::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it != values_.end())
        return it->second.back();
    const Spec *spec = specOf(name);
    ZATEL_ASSERT(spec != nullptr, "unregistered option '", name, "'");
    return spec->fallback;
}

std::vector<std::string>
ArgParser::getList(const std::string &name) const
{
    auto it = values_.find(name);
    if (it != values_.end())
        return it->second;
    const Spec *spec = specOf(name);
    ZATEL_ASSERT(spec != nullptr, "unregistered option '", name, "'");
    if (spec->fallback.empty())
        return {};
    return {spec->fallback};
}

uint64_t
ArgParser::getUint(const std::string &name, uint64_t lo, uint64_t hi) const
{
    return parseUint(get(name), "--" + name, lo, hi);
}

double
ArgParser::getDouble(const std::string &name, double lo, double hi) const
{
    return parseDouble(get(name), "--" + name, lo, hi);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return has(name);
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program_ << " [options]\n";
    if (!description_.empty())
        oss << description_ << "\n";
    oss << "options:\n";
    for (const auto &[name, spec] : specs_) {
        oss << "  --" << name;
        if (!spec.isFlag)
            oss << " <value>";
        oss << "  " << spec.help;
        if (!spec.fallback.empty())
            oss << " (default: " << spec.fallback << ")";
        if (spec.required)
            oss << " (required)";
        oss << "\n";
    }
    return oss.str();
}

} // namespace zatel
