#include "common/string_util.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mopt {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
appendInt(std::string &out, long long v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendInt(std::string &out, std::string_view prefix, long long v)
{
    out += prefix;
    appendInt(out, v);
}

std::string
formatEng(double v)
{
    static const char *suffix[] = {"", "K", "M", "G", "T", "P"};
    int idx = 0;
    double a = std::fabs(v);
    while (a >= 1000.0 && idx < 5) {
        a /= 1000.0;
        v /= 1000.0;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g%s", v, suffix[idx]);
    return buf;
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace mopt
