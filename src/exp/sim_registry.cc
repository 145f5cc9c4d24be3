#include "exp/sim_registry.h"

#include "core/check.h"

namespace vfl::exp {

namespace {

core::StatusOr<sim::ArrivalSpec> MakePoisson(const ConfigMap& config) {
  sim::ArrivalSpec spec;
  spec.kind = sim::ArrivalKind::kPoisson;
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("sim 'poisson'"));
  return spec;
}

core::StatusOr<sim::ArrivalSpec> MakeBursty(const ConfigMap& config) {
  sim::ArrivalSpec spec;
  spec.kind = sim::ArrivalKind::kBursty;
  VFL_ASSIGN_OR_RETURN(spec.burst_on_mean_s,
                       config.GetDouble("on_s", spec.burst_on_mean_s));
  VFL_ASSIGN_OR_RETURN(spec.burst_factor,
                       config.GetDouble("factor", spec.burst_factor));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("sim 'bursty'"));
  if (spec.burst_on_mean_s <= 0.0) {
    return core::Status::InvalidArgument("sim 'bursty': on_s must be > 0");
  }
  if (spec.burst_factor <= 1.0) {
    return core::Status::InvalidArgument("sim 'bursty': factor must be > 1");
  }
  return spec;
}

core::StatusOr<sim::ArrivalSpec> MakeDiurnal(const ConfigMap& config) {
  sim::ArrivalSpec spec;
  spec.kind = sim::ArrivalKind::kDiurnal;
  VFL_ASSIGN_OR_RETURN(spec.diurnal_period_s,
                       config.GetDouble("period_s", spec.diurnal_period_s));
  VFL_ASSIGN_OR_RETURN(spec.diurnal_depth,
                       config.GetDouble("depth", spec.diurnal_depth));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("sim 'diurnal'"));
  if (spec.diurnal_period_s <= 0.0) {
    return core::Status::InvalidArgument("sim 'diurnal': period_s must be > 0");
  }
  if (spec.diurnal_depth < 0.0 || spec.diurnal_depth > 0.95) {
    return core::Status::InvalidArgument(
        "sim 'diurnal': depth must lie in [0, 0.95]");
  }
  return spec;
}

SimRegistry BuildSimRegistry() {
  SimRegistry registry("sim profile");
  CHECK(registry
            .Register({"poisson",
                       "homogeneous Poisson arrivals (memoryless baseline)",
                       "", MakePoisson})
            .ok());
  CHECK(registry
            .Register({"bursty",
                       "Markov-modulated on/off arrivals (mean rate "
                       "preserved; ON rate = factor x base)",
                       "on_s=F, factor=F", MakeBursty})
            .ok());
  CHECK(registry
            .Register({"diurnal",
                       "sinusoidal nonhomogeneous Poisson (compressed "
                       "day/night cycle, sampled by thinning)",
                       "period_s=F, depth=F", MakeDiurnal})
            .ok());
  return registry;
}

}  // namespace

const SimRegistry& GlobalSimRegistry() {
  static const SimRegistry registry = BuildSimRegistry();
  return registry;
}

core::StatusOr<sim::ArrivalSpec> MakeArrivalSpec(std::string_view spec) {
  if (spec.empty()) spec = "poisson";
  VFL_ASSIGN_OR_RETURN(const KindSpec parsed, SplitKindSpec(spec));
  VFL_ASSIGN_OR_RETURN(const SimRegistry::Entry* entry,
                       GlobalSimRegistry().Find(parsed.kind));
  return entry->factory(parsed.config);
}

}  // namespace vfl::exp
