// LINT-PATH: tools/bad_mx_include.cc
// EXPECT-LINT: QL006
//
// The MxPairFilter oracle is test-and-bench code; a tool that includes
// it would not link against libqikey alone.

#include "core/mx_pair_filter.h"

// "core/mx_pair_filter.h" in a string or a comment is not an include.
const char* kOracle = "core/mx_pair_filter.h";
