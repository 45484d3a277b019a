/**
 * @file
 * ASCII table printer used by all benchmark harnesses to emit
 * paper-shaped rows (Table 1, Figs. 5-8 series).
 */

#ifndef MOPT_COMMON_TABLE_HH
#define MOPT_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace mopt {

/**
 * A simple column-aligned text table. Cells are strings; numeric
 * convenience adders format with fixed precision.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row; subsequent add() calls fill it left to right. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &add(std::string cell);

    /** Append a formatted double cell (default 3 decimal places). */
    Table &add(double v, int precision = 3);

    /** Append an integer cell. */
    Table &add(long long v);

    /** Render the table with aligned columns to @p os. */
    void print(std::ostream &os) const;

    /** Render to a string. */
    std::string str() const;

    /** Number of data rows so far. */
    std::size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace mopt

#endif // MOPT_COMMON_TABLE_HH
