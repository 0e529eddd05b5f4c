// The one parallel loop of the library: the fleet and frontier sweeps run
// their independent, similarly sized items through it.
//
// Design point: this is deliberately *not* a task pool or a
// work-stealing scheduler.  Sweep items run for ~100 µs each, so plain
// threads claiming indices from one atomic counter keep every core busy
// while leaving nothing to audit against the determinism rules of
// sim/fleet.hpp: fn(i) only ever writes the caller's slot i.
#pragma once

#include <cstddef>
#include <functional>

namespace vrdf::util {

/// Calls fn(i) exactly once for every i in [0, n).
///  * threads <= 1 runs inline on the caller, in index order; an exception
///    propagates at once and the later indices do not run.
///  * Otherwise min(threads, n) std::threads claim indices from a shared
///    counter.  Every index runs even when some throw; after the join the
///    exception of the lowest throwing index is rethrown, so the caller
///    sees the same exception as the inline loop would raise.
/// If a thread cannot be started, the caller works through the remaining
/// indices itself; every started thread is joined before returning.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vrdf::util
