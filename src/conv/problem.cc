#include "conv/problem.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

ConvProblem
ConvProblem::fromImage(const std::string &name, std::int64_t k,
                       std::int64_t c, std::int64_t image, std::int64_t rs,
                       int stride, std::int64_t batch, std::int64_t groups)
{
    ConvProblem p;
    p.name = name;
    p.n = batch;
    p.k = k;
    p.c = c;
    p.r = rs;
    p.s = rs;
    p.stride = stride;
    p.groups = groups;
    const std::int64_t pad = (rs - 1) / 2;
    p.h = (image + 2 * pad - rs) / stride + 1;
    p.w = p.h;
    p.validate();
    return p;
}

ConvProblem
ConvProblem::downscaled(std::int64_t max_hw, std::int64_t max_ch) const
{
    ConvProblem p = *this;
    p.h = std::min(h, max_hw);
    p.w = std::min(w, max_hw);
    p.c = std::min(c, max_ch);
    p.k = std::min(k, max_ch);
    // Keep the groups divisibility invariant: round channels down to a
    // multiple of groups (never below one channel per group).
    p.c = std::max(groups, p.c - p.c % groups);
    p.k = std::max(groups, p.k - p.k % groups);
    if (p != *this)
        p.name = name + "-ds";
    return p;
}

std::string
ConvProblem::summary() const
{
    std::string out = name;
    appendInt(out, ": N=", n);
    appendInt(out, " K=", k);
    appendInt(out, " C=", c);
    appendInt(out, " H=", h);
    appendInt(out, " W=", w);
    appendInt(out, " R=", r);
    appendInt(out, " S=", s);
    appendInt(out, " stride=", stride);
    if (dilation != 1)
        appendInt(out, " dilation=", dilation);
    if (groups != 1)
        appendInt(out, " groups=", groups);
    return out;
}

void
ConvProblem::validate() const
{
    if (n < 1 || k < 1 || c < 1 || r < 1 || s < 1 || h < 1 || w < 1)
        fatal("ConvProblem: extents must be >= 1 (" + summary() + ")");
    checkUser(stride >= 1, "ConvProblem: stride must be >= 1");
    checkUser(dilation >= 1, "ConvProblem: dilation must be >= 1");
    checkUser(groups >= 1, "ConvProblem: groups must be >= 1");
    if (k % groups != 0 || c % groups != 0)
        fatal("ConvProblem: groups must divide both K and C (" + summary() +
              ")");
}

} // namespace mopt
