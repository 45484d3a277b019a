/**
 * @file
 * The seven iteration-space dimensions of the CNN loop nest (Eq. 1)
 * and the present/absent index structure of the three tensors, which
 * drives the whole analytical model (Secs. 3-4): every dimension is
 * present in exactly two tensors and absent in one.
 */

#ifndef MOPT_MODEL_DIMS_HH
#define MOPT_MODEL_DIMS_HH

#include <array>
#include <cstdint>
#include <string>

namespace mopt {

struct ConvProblem;

/** The seven loop dimensions, canonical order (n, k, c, r, s, h, w). */
enum Dim : int {
    DimN = 0, //!< Batch.
    DimK = 1, //!< Output channel.
    DimC = 2, //!< Input channel (reduction).
    DimR = 3, //!< Kernel height (reduction).
    DimS = 4, //!< Kernel width (reduction).
    DimH = 5, //!< Output height.
    DimW = 6, //!< Output width.
    NumDims = 7,
};

/** The three tensors of the convolution. */
enum TensorId : int {
    TenIn = 0,
    TenKer = 1,
    TenOut = 2,
    NumTensors = 3,
};

/** Single-character dimension name ("n", "k", ...). */
const char *dimName(Dim d);

/**
 * Whether dimension @p d appears in the index expressions of tensor
 * @p t. In: all but k; Ker: {k, c, r, s}; Out: {n, k, h, w}.
 */
bool dimPresent(TensorId t, Dim d);

/** True for the reduction dimensions c, r, s (absent in Out). */
bool isReductionDim(Dim d);

/** A value per dimension, indexed by Dim. */
template <typename T>
using DimArray = std::array<T, NumDims>;

/** Real-valued tile sizes (solver domain). */
using TileVec = DimArray<double>;

/** Integer tile sizes (code-generation domain). */
using IntTileVec = DimArray<std::int64_t>;

/** Problem extents as a DimArray (n, k, c, r, s, h, w). */
IntTileVec problemExtents(const ConvProblem &p);

/** Convert integer tile sizes to the solver domain. */
TileVec toTileVec(const IntTileVec &t);

/**
 * Floor real tile sizes to integers (clamped to >= 1). A value within
 * a relative 1e-9 of an integer rounds to it, so exp(log E) maps back
 * to E rather than E - 1.
 */
IntTileVec floorTiles(const TileVec &t);

/** Render tile sizes as "[n=1 k=32 c=16 r=3 s=3 h=8 w=56]". */
std::string tilesToString(const IntTileVec &t);

} // namespace mopt

#endif // MOPT_MODEL_DIMS_HH
