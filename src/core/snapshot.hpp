// Kept only because perfbench/tracing.hpp includes this header.
#pragma once

namespace binsym::core {

struct Snapshot;
struct SnapshotPlan;

}  // namespace binsym::core
