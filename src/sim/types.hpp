// Fundamental identifiers for the simulated shared-memory system.
//
// The model follows the paper (Section 3): n >= 2 processes
// Pi = {0, ..., n-1} take interleaved steps; at most one step per time
// unit, so "time" and the global step counter coincide.
#pragma once

#include <cstdint>

namespace tbwf::sim {

/// Process identifier, 0 .. n-1.
using Pid = int;

/// Global step counter == model time (one step per time unit).
using Step = std::uint64_t;

/// Sentinel for "no process".
inline constexpr Pid kNoPid = -1;

/// Register kinds supported by the simulator.
enum class RegKind : std::uint8_t {
  Atomic,     ///< MWMR atomic register (linearized at response step)
  Safe,       ///< reads overlapping a write return arbitrary values
  Abortable,  ///< concurrent ops may abort (return bottom); solo ops succeed
};

const char* to_string(RegKind kind);

}  // namespace tbwf::sim
