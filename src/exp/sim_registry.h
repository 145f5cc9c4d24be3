#ifndef VFLFIA_EXP_SIM_REGISTRY_H_
#define VFLFIA_EXP_SIM_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>

#include "exp/config_map.h"
#include "exp/registry.h"
#include "sim/arrival.h"

namespace vfl::exp {

/// Builds a configured arrival process from a profile's config tail.
using SimFactory =
    std::function<core::StatusOr<sim::ArrivalSpec>(const ConfigMap& config)>;

using SimRegistry = Registry<SimFactory>;

/// The process-wide traffic-profile registry, populated with the built-ins
/// on first access: "poisson", "bursty", "diurnal". Profiles are the
/// ExperimentSpec::sims grid axis and the CLI's --sim argument.
const SimRegistry& GlobalSimRegistry();

/// Resolves a sim spec "KIND[:k=v,...]" into an arrival process. An empty
/// spec resolves to the default Poisson profile.
core::StatusOr<sim::ArrivalSpec> MakeArrivalSpec(std::string_view spec);

}  // namespace vfl::exp

#endif  // VFLFIA_EXP_SIM_REGISTRY_H_
