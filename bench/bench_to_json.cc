/**
 * @file
 * Converts the stdout of any bench harness into a JSON document for
 * the perf trajectory. Reads the harness output on stdin (or --in=),
 * extracts scalar `key: value` / `key = value` metrics and the
 * column-aligned tables produced by mopt::Table, and writes
 * BENCH_<name>.json-shaped JSON to stdout (or --out=).
 *
 *   ./bench_table1_workloads | ./bench_to_json --name=table1_workloads \
 *       --out=BENCH_table1_workloads.json
 */

#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/json.hh"
#include "common/string_util.hh"

namespace {

using mopt::jsonEscape;
using mopt::trim;

/** True when @p s parses completely as a finite double. */
bool
parseNumber(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    std::size_t pos = 0;
    try {
        out = std::stod(s, &pos);
    } catch (...) {
        return false;
    }
    if (!std::isfinite(out))
        return false;
    // Allow trailing unit suffixes like "ms"/"s"/"%"/"x" but nothing
    // that would make the cell non-numeric (e.g. "Y0" or "3x3").
    const std::string rest = trim(s.substr(pos));
    return rest.empty() || rest == "%" || rest == "x" || rest == "s" ||
           rest == "ms" || rest == "us" || rest == "GB/s" ||
           rest == "GFLOPS";
}

/**
 * True when @p s is a valid JSON number token. stod accepts forms
 * JSON forbids (".5", "+3", "05", "1.", hex), so numeric text must
 * pass this before being emitted verbatim.
 */
bool
isJsonNumber(const std::string &s)
{
    std::size_t i = 0;
    if (i < s.size() && s[i] == '-')
        ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
        return false;
    if (s[i] == '0' && i + 1 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[i + 1])))
        return false;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    if (i < s.size() && s[i] == '.') {
        ++i;
        if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
            ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
            ++i;
    }
    return i == s.size();
}

/**
 * The numeric text to emit for a value parsed from @p raw: the raw
 * token verbatim when it is already valid JSON (no precision loss),
 * else @p v reformatted round-trip-exactly.
 */
std::string
jsonNumberToken(const std::string &raw, double v)
{
    if (isJsonNumber(raw))
        return raw;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Emit a table cell as a JSON value: number when it parses, else string. */
std::string
jsonCell(const std::string &cell)
{
    double v = 0.0;
    if (parseNumber(cell, v) && cell.find_first_of("%x") == std::string::npos) {
        // Re-emit the numeric prefix verbatim to keep full precision.
        std::size_t pos = 0;
        (void)std::stod(cell, &pos);
        const std::string num = trim(cell.substr(0, pos));
        if (trim(cell.substr(pos)).empty())
            return jsonNumberToken(num, v);
    }
    std::string out = "\"";
    mopt::jsonAppendEscaped(out, cell);
    out += '"';
    return out;
}

/** Split a table row on runs of 2+ spaces (mopt::Table's separator). */
std::vector<std::string>
splitColumns(const std::string &line)
{
    std::vector<std::string> cells;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ')
            ++i;
        if (i >= line.size())
            break;
        std::size_t end = i;
        std::size_t spaces = 0;
        std::size_t cell_end = i;
        while (end < line.size()) {
            if (line[end] == ' ') {
                ++spaces;
                if (spaces >= 2)
                    break;
            } else {
                spaces = 0;
                cell_end = end + 1;
            }
            ++end;
        }
        cells.push_back(line.substr(i, cell_end - i));
        i = end;
    }
    return cells;
}

bool
isSeparator(const std::string &line)
{
    const std::string t = trim(line);
    if (t.size() < 3)
        return false;
    for (const char c : t)
        if (c != '-')
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    const std::string name = flags.getString("name", "bench");

    std::ifstream file;
    std::istream *in = &std::cin;
    if (flags.has("in")) {
        file.open(flags.getString("in", ""));
        if (!file) {
            std::cerr << "bench_to_json: cannot open --in file\n";
            return 1;
        }
        in = &file;
    }

    std::vector<std::string> lines;
    for (std::string line; std::getline(*in, line);)
        lines.push_back(line);

    std::ostringstream json;
    json << "{\n  \"bench\": \"" << jsonEscape(name) << "\",\n";

    std::string scale = "unknown";
    for (const auto &line : lines) {
        if (startsWith(trim(line), "Scale: FULL"))
            scale = "full";
        else if (startsWith(trim(line), "Scale: reduced"))
            scale = "reduced";
    }
    json << "  \"scale\": \"" << scale << "\",\n";

    // Scalar metrics: "key: value" or "key = value" with a numeric value.
    json << "  \"metrics\": {";
    bool first_metric = true;
    for (const auto &line : lines) {
        const std::string t = trim(line);
        std::size_t sep = t.find(": ");
        std::size_t skip = 2;
        if (sep == std::string::npos) {
            sep = t.find(" = ");
            skip = 3;
        }
        if (sep == std::string::npos || sep == 0)
            continue;
        const std::string key = trim(t.substr(0, sep));
        const std::string val = trim(t.substr(sep + skip));
        double v = 0.0;
        if (key.find("  ") != std::string::npos || !parseNumber(val, v))
            continue;
        // Re-emit the numeric prefix verbatim (like jsonCell) so no
        // precision is lost to ostream's default formatting.
        std::size_t pos = 0;
        (void)std::stod(val, &pos);
        json << (first_metric ? "\n" : ",\n") << "    \"" << jsonEscape(key)
             << "\": " << jsonNumberToken(trim(val.substr(0, pos)), v);
        first_metric = false;
    }
    json << (first_metric ? "" : "\n  ") << "},\n";

    // Tables: a header line followed by an all-dashes separator, rows
    // until the first blank line.
    json << "  \"tables\": [";
    bool first_table = true;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (!isSeparator(lines[i]) || trim(lines[i - 1]).empty())
            continue;
        const std::vector<std::string> headers = splitColumns(lines[i - 1]);
        if (headers.size() < 2)
            continue;
        json << (first_table ? "\n" : ",\n") << "    {\n      \"rows\": [";
        first_table = false;
        bool first_row = true;
        for (std::size_t r = i + 1;
             r < lines.size() && !trim(lines[r]).empty(); ++r) {
            const std::vector<std::string> cells = splitColumns(lines[r]);
            json << (first_row ? "\n" : ",\n") << "        {";
            first_row = false;
            for (std::size_t c = 0; c < cells.size() && c < headers.size();
                 ++c) {
                json << (c ? ", " : "") << "\"" << jsonEscape(headers[c])
                     << "\": " << jsonCell(cells[c]);
            }
            json << "}";
        }
        json << (first_row ? "" : "\n      ") << "]\n    }";
    }
    json << (first_table ? "" : "\n  ") << "]\n}\n";

    if (flags.has("out")) {
        std::ofstream out(flags.getString("out", ""));
        if (!out) {
            std::cerr << "bench_to_json: cannot open --out file\n";
            return 1;
        }
        out << json.str();
    } else {
        std::cout << json.str();
    }
    return 0;
}
