#include "core/drivers.h"

namespace mcio::core {

const char* driver_name(DriverKind kind) {
  static constexpr const char* kNames[] = {"mccio", "two-phase",
                                           "independent"};
  return kNames[static_cast<int>(kind)];
}

io::CollectiveDriver& Drivers::get(DriverKind kind) {
  io::CollectiveDriver* const drivers[] = {&mccio_, &two_phase_,
                                           &independent_};
  return *drivers[static_cast<int>(kind)];
}

}  // namespace mcio::core
