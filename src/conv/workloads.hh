/**
 * @file
 * Benchmark workloads: the 32 conv2d shapes of the paper's Table 1
 * (11 from Yolo-9000, 12 from ResNet-18, 9 from MobileNet). Batch
 * size 1; stride 2 for layers marked '*' in the paper, stride 1
 * otherwise. H/W in Table 1 are *input* image sizes; output extents
 * follow the same-padding convention (see conv/problem.hh).
 *
 * Full networks (ResNet-18, VGG-16, the YOLOv3/Darknet-53 backbone)
 * are frontend NetworkDef IR constructors in src/frontend/registry.hh;
 * `networkDefByName(name).lower()` gives their per-layer conv
 * sequences. Real networks repeat identical shapes many times (VGG-16's
 * 13 convs collapse to 9 unique shapes, ResNet-18's 20 to 11), which
 * is exactly what the solution cache exploits.
 */

#ifndef MOPT_CONV_WORKLOADS_HH
#define MOPT_CONV_WORKLOADS_HH

#include <string>
#include <vector>

#include "conv/problem.hh"

namespace mopt {

/** The eleven conv2d operators of Yolo-9000 (Table 1, left). */
std::vector<ConvProblem> yolo9000Workloads();

/** The twelve conv2d operators of ResNet-18 (Table 1, middle). */
std::vector<ConvProblem> resnet18Workloads();

/** The nine conv2d operators of MobileNet (Table 1, right). */
std::vector<ConvProblem> mobilenetWorkloads();

/** All 32 operators, Yolo then ResNet then MobileNet. */
std::vector<ConvProblem> allWorkloads();

/** Look up a single operator by name (e.g. "Y5", "R9", "M2"). */
ConvProblem workloadByName(const std::string &name);

} // namespace mopt

#endif // MOPT_CONV_WORKLOADS_HH
