#include "util/space_meter.h"
namespace streamsc {
// The one home of a set-cover run's U and solution categories.
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");
}  // namespace streamsc
