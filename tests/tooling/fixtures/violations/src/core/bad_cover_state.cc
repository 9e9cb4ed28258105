#include "util/space_meter.h"
namespace streamsc {
// A comment naming SpaceCategory("uncovered") must not trip it.
const SpaceCategory kUncoveredCat("uncovered");
const char* const kLabel = "solution";  // not a category
const SpaceCategory kSolutionCat{"solution"};
const SpaceCategory kWitnessesCat("witnesses");
}  // namespace streamsc
