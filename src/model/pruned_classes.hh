/**
 * @file
 * The eight pruned equivalence classes of tile-loop permutations
 * (Sec. 4 of the paper). Each class is a sequence of *bands* of
 * dimensions, outermost band first; all permutations that respect the
 * band structure (any order within a band) have identical data-volume
 * cost expressions, and the union of the eight classes is guaranteed
 * to contain a global optimum over all 5040 permutations.
 *
 * The classes (paper summary):
 *   1 <{k,c,r,s},{n,h},w>     2 <{k,c,r,s},{n,w},h>
 *   3 <{n,k,h,w},{c,r},s>     4 <{n,k,h,w},{c,s},r>
 *   5 <{n,c,h,r,s},w,k>       6 <{n,c,w,r,s},h,k>
 *   7 <{n,c,h,w,r},s,k>       8 <{n,c,h,w,s},r,k>
 */

#ifndef MOPT_MODEL_PRUNED_CLASSES_HH
#define MOPT_MODEL_PRUNED_CLASSES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/dims.hh"
#include "model/tile_config.hh"

namespace mopt {

/** One equivalence class of cost-identical permutations. */
class PrunedClass
{
  public:
    /**
     * @param name   display name, e.g. "<{kcrs},{nh},w>"
     * @param bands  dimension bands, outermost first; bands must
     *               partition the seven dims
     */
    PrunedClass(std::string name, std::vector<std::vector<Dim>> bands);

    const std::string &name() const { return name_; }

    /** Band structure, outermost first. */
    const std::vector<std::vector<Dim>> &bands() const { return bands_; }

    /**
     * The canonical representative permutation: dims of each band in
     * the order listed, outermost band first.
     */
    Permutation representative() const;

    /** Whether @p perm respects the band structure. */
    bool contains(const Permutation &perm) const;

    /** Number of member permutations (product of band factorials). */
    std::int64_t memberCount() const;

  private:
    std::string name_;
    std::vector<std::vector<Dim>> bands_;
};

/** The paper's eight pruned classes, in the order of the summary. */
const std::vector<PrunedClass> &prunedClasses();

/**
 * Representatives of the eight classes (convenience for the
 * optimizer's permutation sweep).
 */
std::vector<Permutation> prunedRepresentatives();

} // namespace mopt

#endif // MOPT_MODEL_PRUNED_CLASSES_HH
