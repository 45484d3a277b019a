#include "model/pruned_classes.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mopt {

PrunedClass::PrunedClass(std::string name,
                         std::vector<std::vector<Dim>> bands)
    : name_(std::move(name)), bands_(std::move(bands))
{
    std::array<bool, NumDims> seen{};
    int total = 0;
    for (const auto &band : bands_) {
        checkUser(!band.empty(), "PrunedClass: empty band");
        for (Dim d : band) {
            checkUser(!seen[static_cast<std::size_t>(d)],
                      "PrunedClass: duplicate dim in bands");
            seen[static_cast<std::size_t>(d)] = true;
            ++total;
        }
    }
    checkUser(total == NumDims, "PrunedClass: bands must cover all dims");
}

Permutation
PrunedClass::representative() const
{
    std::array<Dim, NumDims> order{};
    int i = 0;
    for (const auto &band : bands_)
        for (Dim d : band)
            order[static_cast<std::size_t>(i++)] = d;
    return Permutation(order);
}

bool
PrunedClass::contains(const Permutation &perm) const
{
    int i = 0;
    for (const auto &band : bands_) {
        // The next |band| dims of perm must be exactly this band's set.
        std::vector<Dim> got;
        for (std::size_t j = 0; j < band.size(); ++j)
            got.push_back(perm.at(i + static_cast<int>(j)));
        std::vector<Dim> want = band;
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want)
            return false;
        i += static_cast<int>(band.size());
    }
    return true;
}

std::int64_t
PrunedClass::memberCount() const
{
    auto factorial = [](std::size_t n) {
        std::int64_t f = 1;
        for (std::size_t i = 2; i <= n; ++i)
            f *= static_cast<std::int64_t>(i);
        return f;
    };
    std::int64_t count = 1;
    for (const auto &band : bands_)
        count *= factorial(band.size());
    return count;
}

const std::vector<PrunedClass> &
prunedClasses()
{
    static const std::vector<PrunedClass> classes = {
        PrunedClass("<{kcrs},{nh},w>",
                    {{DimK, DimC, DimR, DimS}, {DimN, DimH}, {DimW}}),
        PrunedClass("<{kcrs},{nw},h>",
                    {{DimK, DimC, DimR, DimS}, {DimN, DimW}, {DimH}}),
        PrunedClass("<{nkhw},{cr},s>",
                    {{DimN, DimK, DimH, DimW}, {DimC, DimR}, {DimS}}),
        PrunedClass("<{nkhw},{cs},r>",
                    {{DimN, DimK, DimH, DimW}, {DimC, DimS}, {DimR}}),
        PrunedClass("<{nchrs},w,k>",
                    {{DimN, DimC, DimH, DimR, DimS}, {DimW}, {DimK}}),
        PrunedClass("<{ncwrs},h,k>",
                    {{DimN, DimC, DimW, DimR, DimS}, {DimH}, {DimK}}),
        PrunedClass("<{nchwr},s,k>",
                    {{DimN, DimC, DimH, DimW, DimR}, {DimS}, {DimK}}),
        PrunedClass("<{nchws},r,k>",
                    {{DimN, DimC, DimH, DimW, DimS}, {DimR}, {DimK}}),
    };
    return classes;
}

std::vector<Permutation>
prunedRepresentatives()
{
    std::vector<Permutation> reps;
    reps.reserve(prunedClasses().size());
    for (const auto &cls : prunedClasses())
        reps.push_back(cls.representative());
    return reps;
}

} // namespace mopt
