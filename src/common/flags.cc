#include "common/flags.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

Flags::Flags(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (!startsWith(arg, "--"))
            fatal("unexpected positional argument: " + arg);
        arg = arg.substr(2);
        std::string name, value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            // "--name value" form: consume the next token as the value.
            // (Length-explicit append sidesteps a GCC 12 -Wrestrict
            // false positive on string::operator=(const char *).)
            name = arg;
            const char *v = argv[++i];
            value.append(v, std::strlen(v));
        } else {
            name = arg;
            value.push_back('1');
        }
        if (values_.count(name))
            fatal("--" + name + " given more than once");
        values_[name] = value;
    }
}

void
Flags::rejectUnknown(std::initializer_list<const char *> known) const
{
    for (const auto &kv : values_) {
        bool found = false;
        for (const char *k : known) {
            if (kv.first == k) {
                found = true;
                break;
            }
        }
        if (!found)
            fatal("unknown flag --" + kv.first +
                  " (see --help for this command's flags)");
    }
}

bool
Flags::lookup(const std::string &name, std::string &out) const
{
    const auto it = values_.find(name);
    if (it != values_.end()) {
        out = it->second;
        return true;
    }
    std::string env_name = "MOPT_";
    for (char c : name) {
        if (c == '-')
            env_name.push_back('_');
        else
            env_name.push_back(
                static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    if (const char *env = std::getenv(env_name.c_str())) {
        out = env;
        return true;
    }
    return false;
}

std::string
Flags::getString(const std::string &name, const std::string &def) const
{
    std::string v;
    return lookup(name, v) ? v : def;
}

std::int64_t
Flags::getInt(const std::string &name, std::int64_t def) const
{
    std::string v;
    if (!lookup(name, v))
        return def;
    return std::strtoll(v.c_str(), nullptr, 10);
}

bool
Flags::getBool(const std::string &name, bool def) const
{
    std::string v;
    if (!lookup(name, v))
        return def;
    const std::string s = toLower(trim(v));
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    // A stray token after a bare boolean flag ("--verify tiled") is
    // parsed as its value; reject it loudly rather than silently
    // returning false.
    fatal("--" + name + ": expected a boolean, got \"" + v + "\"");
}

bool
Flags::has(const std::string &name) const
{
    std::string v;
    return lookup(name, v);
}

bool
benchFullScale()
{
    static const bool full = [] {
        const char *env = std::getenv("MOPT_BENCH_FULL");
        return env && std::string(env) == "1";
    }();
    return full;
}

} // namespace mopt
