#include "solver/nlp.hh"

#include <algorithm>

namespace mopt {

namespace {

/** Reused constraint buffer for the objective/maxViolation wrappers:
 *  they are called in solver hot paths, so a fresh heap vector per
 *  call would dominate small-problem solves. */
std::vector<double> &
tlsConstraintScratch()
{
    thread_local std::vector<double> g;
    return g;
}

} // namespace

double
NlpProblem::objective(const std::vector<double> &x) const
{
    return evalAll(x, tlsConstraintScratch());
}

double
NlpProblem::maxViolation(const std::vector<double> &x) const
{
    std::vector<double> &g = tlsConstraintScratch();
    evalAll(x, g);
    double worst = 0.0;
    for (double gi : g)
        worst = std::max(worst, gi);
    return worst;
}

} // namespace mopt
