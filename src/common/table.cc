#include "common/table.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    checkUser(!headers_.empty(), "Table needs at least one column");
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::add(std::string cell)
{
    checkUser(!rows_.empty(), "Table::add before Table::row");
    checkUser(rows_.back().size() < headers_.size(),
              "Table row has more cells than headers");
    rows_.back().push_back(std::move(cell));
    return *this;
}

Table &
Table::add(double v, int precision)
{
    return add(formatDouble(v, precision));
}

Table &
Table::add(long long v)
{
    return add(std::to_string(v));
}

void
Table::print(std::ostream &os) const
{
    os << str();
}

std::string
Table::str() const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &r : rows_)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c ? 2 : 0);

    std::string out;
    out.reserve((total + 1) * (rows_.size() + 2));
    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            if (c)
                out += "  ";
            std::size_t len = 0;
            if (c < cells.size()) {
                out += cells[c];
                len = cells[c].size();
            }
            out.append(widths[c] - len, ' ');
        }
        out += '\n';
    };

    emitRow(headers_);
    out.append(total, '-');
    out += '\n';
    for (const auto &r : rows_)
        emitRow(r);
    return out;
}

} // namespace mopt
