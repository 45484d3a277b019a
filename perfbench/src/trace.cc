#include "trace.hh"

#include <atomic>
#include <chrono>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
const auto g_epoch = std::chrono::steady_clock::now();

std::mutex g_mu;
std::vector<SpanRecord> g_spans;

thread_local std::uint64_t t_current = 0; //!< Innermost open span.
thread_local std::uint64_t t_req = 0;     //!< Its request id.

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

/** Nanoseconds since the trace epoch (steady clock). */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - g_epoch)
        .count();
}

} // namespace

void
Trace::enable()
{
    g_spans.reserve(1 << 16);
    g_enabled.store(true, std::memory_order_relaxed);
}

std::vector<SpanRecord>
Trace::spans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

Span::Span(std::string_view name, std::uint64_t req)
{
    if (!enabled())
        return;
    rec_.parent = t_current;
    rec_.req = req != 0 ? req : t_req;
    open(name);
}

Span::Span(std::string_view name, std::uint64_t parent, std::uint64_t req)
{
    if (!enabled())
        return;
    rec_.parent = parent;
    rec_.req = req;
    open(name);
}

void
Span::open(std::string_view name)
{
    rec_.name = name;
    rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    saved_current_ = t_current;
    saved_req_ = t_req;
    t_current = rec_.id;
    t_req = rec_.req;
    rec_.start_ns = nowNs();
}

Span::~Span()
{
    if (rec_.id == 0)
        return;
    rec_.end_ns = nowNs();
    t_current = saved_current_;
    t_req = saved_req_;
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(std::move(rec_));
}

} // namespace perfbench
