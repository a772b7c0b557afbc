#include "serve/qos_table.hpp"

#include "apps/app.hpp"

namespace apim::serve {

QosTable build_qos_table(std::span<const std::string> apps,
                         std::size_t elements, std::uint64_t seed,
                         const core::AccuracyTuner& tuner) {
  QosTable table;
  for (const std::string& name : apps) {
    auto app = apps::make_application(name);
    if (app == nullptr) {
      table.set(name, QosTableEntry{0, 0.0, true, false});
      continue;
    }
    app->generate(elements, seed);
    const auto golden = app->run_golden();
    const core::TunerResult tuned = tuner.tune(
        [&](unsigned m) { return apps::evaluate_relax(*app, golden, m).loss; },
        app->qos().loss_threshold());
    table.set(name, QosTableEntry{tuned.relax_bits, tuned.error,
                                  tuned.met_qos, false});
  }
  return table;
}

}  // namespace apim::serve
