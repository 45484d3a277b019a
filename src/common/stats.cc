#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace mopt {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / (xs.size() - 1));
}

double
geomean(const std::vector<double> &xs)
{
    checkUser(!xs.empty(), "geomean of empty sample");
    double acc = 0.0;
    for (double x : xs) {
        checkUser(x > 0.0, "geomean requires positive values");
        acc += std::log(x);
    }
    return std::exp(acc / xs.size());
}

double
minValue(const std::vector<double> &xs)
{
    checkUser(!xs.empty(), "minValue of empty sample");
    return *std::min_element(xs.begin(), xs.end());
}

double
maxValue(const std::vector<double> &xs)
{
    checkUser(!xs.empty(), "maxValue of empty sample");
    return *std::max_element(xs.begin(), xs.end());
}

double
median(std::vector<double> xs)
{
    checkUser(!xs.empty(), "median of empty sample");
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    if (n % 2 == 1)
        return xs[n / 2];
    return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
confidence95(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    return 1.96 * stddev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    checkUser(xs.size() == ys.size(), "pearson: size mismatch");
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<double>
ranks(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
    std::vector<double> result(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        // Mid-rank for the tie group [i, j].
        const double r = 0.5 * (static_cast<double>(i + 1) +
                                static_cast<double>(j + 1));
        for (std::size_t k = i; k <= j; ++k)
            result[order[k]] = r;
        i = j + 1;
    }
    return result;
}

double
spearman(const std::vector<double> &xs, const std::vector<double> &ys)
{
    checkUser(xs.size() == ys.size(), "spearman: size mismatch");
    return pearson(ranks(xs), ranks(ys));
}

std::vector<std::size_t>
smallestK(const std::vector<double> &xs, std::size_t k)
{
    std::vector<std::size_t> order(xs.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
    if (k < order.size())
        order.resize(k);
    return order;
}

} // namespace mopt
