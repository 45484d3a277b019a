/**
 * @file
 * In-memory span recorder for the traced run. A Span marks one call
 * from the benchmark into the library: its name, start, end, the span
 * that enclosed it on the same thread (or an explicit parent) and the
 * request it belongs to. Spans stay in memory until the report is
 * written; recording is off — one relaxed load per Span — unless
 * Trace::enable() was called.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::string name;
    std::int64_t start_ns = 0; //!< Since the trace epoch.
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;      //!< >= 1.
    std::uint64_t parent = 0;  //!< 0 = root.
    std::uint64_t req = 0;     //!< Request id (0 = none).
};

class Trace
{
  public:
    static void enable();

    /** Every finished span so far, in completion order. */
    static std::vector<SpanRecord> spans();
};

/**
 * RAII span. The parent defaults to the innermost open span of the
 * calling thread and the request id to the parent's; pass them
 * explicitly for work handed to another thread.
 */
class Span
{
  public:
    explicit Span(std::string_view name, std::uint64_t req = 0);
    Span(std::string_view name, std::uint64_t parent, std::uint64_t req);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return rec_.id; }

  private:
    void open(std::string_view name);

    SpanRecord rec_;
    std::uint64_t saved_current_ = 0;
    std::uint64_t saved_req_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
