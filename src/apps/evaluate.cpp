#include "apps/app.hpp"

namespace apim::apps {

quality::QosEvaluation evaluate_relax(const Application& app,
                                      std::span<const double> golden,
                                      unsigned relax_bits) {
  core::ApimConfig cfg;
  cfg.approx.relax_bits = relax_bits;
  core::ApimDevice device = core::ApimDevice::values_only(cfg);
  return quality::evaluate_qos(app.qos(), golden, app.run_apim(device));
}

}  // namespace apim::apps
