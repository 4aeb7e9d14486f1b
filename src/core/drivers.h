// The three collective drivers every comparison runs — MCCIO, classic
// two-phase and plan-time independent I/O — named once, for the bench
// harness and the differential fuzz oracle alike.
#pragma once

#include <optional>
#include <string_view>

#include "core/config.h"
#include "core/mccio_driver.h"
#include "io/driver.h"
#include "io/independent.h"
#include "io/two_phase_driver.h"

namespace mcio::core {

/// The enumerator values index fuzz::DiffResult::runs.
enum class DriverKind { kMccio = 0, kTwoPhase = 1, kIndependent = 2 };

/// "mccio", "two-phase" or "independent": the driver's name().
const char* driver_name(DriverKind kind);

/// The kind driver_name() names `name`, or nullopt for any other string.
std::optional<DriverKind> driver_kind(std::string_view name);

/// One of each driver; a run takes the one its kind selects.
class Drivers {
 public:
  explicit Drivers(const MccioConfig& mccio) : mccio_(mccio) {}

  io::CollectiveDriver& get(DriverKind kind);

 private:
  MccioDriver mccio_;
  io::TwoPhaseDriver two_phase_;
  io::IndependentDriver independent_;
};

}  // namespace mcio::core
