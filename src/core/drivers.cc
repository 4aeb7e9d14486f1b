#include "core/drivers.h"

namespace mcio::core {

const char* driver_name(DriverKind kind) {
  static constexpr const char* kNames[] = {"mccio", "two-phase",
                                           "independent"};
  return kNames[static_cast<int>(kind)];
}

std::optional<DriverKind> driver_kind(std::string_view name) {
  for (const DriverKind kind : {DriverKind::kMccio, DriverKind::kTwoPhase,
                                DriverKind::kIndependent}) {
    if (name == driver_name(kind)) return kind;
  }
  return std::nullopt;
}

io::CollectiveDriver& Drivers::get(DriverKind kind) {
  io::CollectiveDriver* const drivers[] = {&mccio_, &two_phase_,
                                           &independent_};
  return *drivers[static_cast<int>(kind)];
}

}  // namespace mcio::core
