#include "model/tile_config.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace mopt {

Permutation::Permutation()
    : order_{DimN, DimK, DimC, DimR, DimS, DimH, DimW}
{
}

Permutation::Permutation(const std::array<Dim, NumDims> &order)
    : order_(order)
{
    std::array<bool, NumDims> seen{};
    for (Dim d : order_) {
        checkUser(d >= 0 && d < NumDims, "Permutation: bad dim");
        checkUser(!seen[static_cast<std::size_t>(d)],
                  "Permutation: duplicate dim");
        seen[static_cast<std::size_t>(d)] = true;
    }
}

Permutation
Permutation::parse(std::string_view s)
{
    checkUser(s.size() == NumDims,
              "Permutation::parse: need exactly 7 characters");
    std::array<Dim, NumDims> order{};
    for (int i = 0; i < NumDims; ++i) {
        Dim d;
        switch (s[static_cast<std::size_t>(i)]) {
          case 'n':
            d = DimN;
            break;
          case 'k':
            d = DimK;
            break;
          case 'c':
            d = DimC;
            break;
          case 'r':
            d = DimR;
            break;
          case 's':
            d = DimS;
            break;
          case 'h':
            d = DimH;
            break;
          case 'w':
            d = DimW;
            break;
          default:
            fatal(std::string("Permutation::parse: bad character '") +
                  s[static_cast<std::size_t>(i)] + "'");
        }
        order[static_cast<std::size_t>(i)] = d;
    }
    return Permutation(order);
}

Dim
Permutation::dimAtPosition(int pos) const
{
    checkInvariant(pos >= 1 && pos <= NumDims,
                   "dimAtPosition: bad position");
    return order_[static_cast<std::size_t>(NumDims - pos)];
}

int
Permutation::innermostPresentPosition(TensorId t) const
{
    for (int pos = 1; pos <= NumDims; ++pos)
        if (dimPresent(t, dimAtPosition(pos)))
            return pos;
    panic("innermostPresentPosition: tensor with no present dims");
}

std::string
Permutation::str() const
{
    std::string s;
    for (Dim d : order_)
        s += dimName(d);
    return s;
}

std::vector<Permutation>
Permutation::all()
{
    std::array<Dim, NumDims> order{DimN, DimK, DimC, DimR,
                                   DimS, DimH, DimW};
    std::vector<Permutation> result;
    result.reserve(5040);
    std::sort(order.begin(), order.end());
    do {
        result.emplace_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
    return result;
}

std::int64_t
MultiLevelConfig::totalParallelism() const
{
    std::int64_t p = 1;
    for (std::int64_t f : par)
        p *= f;
    return p;
}

void
MultiLevelConfig::clampNesting(const IntTileVec &extents)
{
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        double lo = 1.0;
        for (int l = 0; l < NumMemLevels; ++l) {
            auto &t = level[static_cast<std::size_t>(l)].tiles[sd];
            t = std::clamp(t, lo, static_cast<double>(extents[sd]));
            lo = t;
        }
    }
}

MultiLevelConfig
ExecConfig::toModel() const
{
    MultiLevelConfig m;
    for (int l = 0; l < NumMemLevels; ++l) {
        m.level[static_cast<std::size_t>(l)].perm =
            perm[static_cast<std::size_t>(l)];
        m.level[static_cast<std::size_t>(l)].tiles =
            toTileVec(tiles[static_cast<std::size_t>(l)]);
    }
    m.par = par;
    return m;
}

ExecConfig
ExecConfig::fromModel(const MultiLevelConfig &m)
{
    ExecConfig e;
    for (int l = 0; l < NumMemLevels; ++l) {
        e.perm[static_cast<std::size_t>(l)] =
            m.level[static_cast<std::size_t>(l)].perm;
        e.tiles[static_cast<std::size_t>(l)] =
            floorTiles(m.level[static_cast<std::size_t>(l)].tiles);
    }
    e.par = m.par;
    return e;
}

void
ExecConfig::clampNesting(const IntTileVec &extents)
{
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        std::int64_t lo = tiles[LvlReg][sd];
        for (int l = LvlL1; l <= LvlL3; ++l) {
            auto &t = tiles[static_cast<std::size_t>(l)][sd];
            t = std::clamp(t, lo, extents[sd]);
            lo = t;
        }
    }
}

std::string
ExecConfig::str() const
{
    std::ostringstream oss;
    for (int l = NumMemLevels - 1; l >= 0; --l) {
        oss << memLevelName(l) << ": perm=" << perm[static_cast<std::size_t>(l)].str()
            << " tiles=" << tilesToString(tiles[static_cast<std::size_t>(l)])
            << "\n";
    }
    oss << "par=" << tilesToString(par) << "\n";
    return oss.str();
}

bool
ExecConfig::operator==(const ExecConfig &o) const
{
    return perm == o.perm && tiles == o.tiles && par == o.par;
}

} // namespace mopt
