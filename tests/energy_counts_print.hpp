// gtest printer for device::EnergyCounts: a failed == between two count
// vectors names each event class and its count.
#pragma once

#include <ostream>

#include "device/energy_model.hpp"

namespace apim::device {

inline void PrintTo(const EnergyCounts& c, std::ostream* os) {
  *os << "{on=" << c.input_on << " off=" << c.input_off
      << " switch=" << c.switches << " init=" << c.init
      << " write=" << c.writes << " read=" << c.reads
      << " maj=" << c.majority << " interconnect=" << c.interconnect_bits
      << "}";
}

}  // namespace apim::device
