// Unit tests for the VTEAM device model and the derived energy model.
#include <gtest/gtest.h>

#include "device/energy_model.hpp"
#include "device/vteam.hpp"
#include "util/units.hpp"

namespace apim::device {
namespace {

TEST(Vteam, ResistanceEndpointsMatchParams) {
  const VteamModel dev;
  const auto& p = dev.params();
  EXPECT_DOUBLE_EQ(dev.resistance(p.w_on), p.r_on);
  EXPECT_DOUBLE_EQ(dev.resistance(p.w_off), p.r_off);
  // Midpoint interpolates linearly.
  EXPECT_NEAR(dev.resistance((p.w_on + p.w_off) / 2),
              (p.r_on + p.r_off) / 2, 1.0);
}

TEST(Vteam, ResistanceClampsOutsideRange) {
  const VteamModel dev;
  const auto& p = dev.params();
  EXPECT_DOUBLE_EQ(dev.resistance(p.w_on - 1e-9), p.r_on);
  EXPECT_DOUBLE_EQ(dev.resistance(p.w_off + 1e-9), p.r_off);
}

TEST(Vteam, NoDriftInsideThresholdWindow) {
  const VteamModel dev;
  // Voltages between v_on and v_off must not move the state (non-volatile
  // retention under read disturb).
  for (double v : {-0.9, -0.3, 0.0, 0.3, 0.9}) {
    EXPECT_EQ(dev.state_derivative(1e-9, v), 0.0) << "v=" << v;
  }
}

TEST(Vteam, DerivativeSignsFollowVoltagePolarity) {
  const VteamModel dev;
  EXPECT_GT(dev.state_derivative(1e-9, 2.0), 0.0);   // RESET direction.
  EXPECT_LT(dev.state_derivative(1e-9, -2.0), 0.0);  // SET direction.
}

TEST(Vteam, SwitchingCompletesWithinOneMagicCycleAtWriteVoltage) {
  // Calibration requirement: both transitions finish within the paper's
  // 1.1 ns MAGIC cycle at the nominal 2 V execution voltage.
  const VteamModel dev;
  const SwitchingEvent reset = dev.integrate_reset(2.0);
  const SwitchingEvent set = dev.integrate_set(-2.0);
  ASSERT_TRUE(reset.completed);
  ASSERT_TRUE(set.completed);
  EXPECT_LE(reset.time_s, util::kMagicCycleNs * 1e-9);
  EXPECT_LE(set.time_s, util::kMagicCycleNs * 1e-9);
}

TEST(Vteam, SubThresholdVoltageNeverSwitches) {
  const VteamModel dev;
  const SwitchingEvent e = dev.integrate_reset(0.5);  // Below v_off = 1 V.
  EXPECT_FALSE(e.completed);
  EXPECT_EQ(e.energy_pj, 0.0);
}

TEST(Vteam, HigherVoltageSwitchesFaster) {
  const VteamModel dev;
  const SwitchingEvent slow = dev.integrate_reset(1.5);
  const SwitchingEvent fast = dev.integrate_reset(3.0);
  ASSERT_TRUE(slow.completed && fast.completed);
  EXPECT_LT(fast.time_s, slow.time_s);
}

TEST(Vteam, SwitchingEnergyIsPositiveAndSubPicojoule) {
  // With RON = 10 kOhm the traversal dissipates femtojoules — the reason
  // PIM energy is dominated by periphery, as the literature reports.
  const VteamModel dev;
  const SwitchingEvent e = dev.integrate_reset(2.0);
  EXPECT_GT(e.energy_pj, 0.0);
  EXPECT_LT(e.energy_pj, 1.0);
}

TEST(Vteam, ConductionEnergyScalesWithDurationAndResistance) {
  const VteamModel dev;
  const auto& p = dev.params();
  const double e1 = dev.conduction_energy_pj(p.w_on, 1.0, 1e-9);
  const double e2 = dev.conduction_energy_pj(p.w_on, 1.0, 2e-9);
  EXPECT_NEAR(e2, 2.0 * e1, 1e-12);
  const double e_off = dev.conduction_energy_pj(p.w_off, 1.0, 1e-9);
  EXPECT_NEAR(e1 / e_off, p.r_off / p.r_on, 1e-6);
}

TEST(EnergyModel, DerivedValuesAreOrdered) {
  const EnergyModel& em = EnergyModel::paper_defaults();
  // A conducting ('1') input burns far more than a blocked ('0') input:
  // the RON/ROFF ratio is 1000x.
  EXPECT_GT(em.e_input_on_pj, 100.0 * em.e_input_off_pj);
  EXPECT_GT(em.e_switch_pj, 0.0);
  EXPECT_GT(em.e_init_pj, 0.0);
  EXPECT_GT(em.e_read_pj, 0.0);
  // Majority sensing activates three rows plus the comparator.
  EXPECT_GT(em.e_maj_pj, em.e_read_pj);
  EXPECT_GT(em.e_cycle_overhead_pj, 0.0);
}

TEST(EnergyModel, NorEnergyComposition) {
  const EnergyModel& em = EnergyModel::paper_defaults();
  const EnergyCounts nor{.input_on = 2, .input_off = 1};
  EXPECT_NEAR(em.energy_pj(nor), 2 * em.e_input_on_pj + em.e_input_off_pj,
              1e-15);
  EnergyCounts switching = nor;
  switching.switches = 1;
  EXPECT_NEAR(em.energy_pj(switching) - em.energy_pj(nor), em.e_switch_pj,
              1e-15);
  // Each class carries its own price.
  const double prices[] = {em.e_input_on_pj, em.e_input_off_pj,
                           em.e_switch_pj,   em.e_init_pj,
                           em.e_write_driver_pj, em.e_read_pj,
                           em.e_maj_pj,      em.e_interconnect_bit_pj};
  std::uint64_t EnergyCounts::*const classes[] = {
      &EnergyCounts::input_on, &EnergyCounts::input_off,
      &EnergyCounts::switches, &EnergyCounts::init,
      &EnergyCounts::writes,   &EnergyCounts::reads,
      &EnergyCounts::majority, &EnergyCounts::interconnect_bits};
  for (std::size_t k = 0; k < std::size(classes); ++k) {
    EnergyCounts one;
    one.*classes[k] = 1;
    EXPECT_EQ(em.energy_pj(one), prices[k]) << "class " << k;
  }
  EXPECT_EQ(em.energy_pj(EnergyCounts{}), 0.0);
}

TEST(EnergyModel, WriteEnergyComposition) {
  const EnergyModel& em = EnergyModel::paper_defaults();
  EXPECT_NEAR(em.write_energy_pj(false), em.e_write_driver_pj, 1e-15);
  EXPECT_NEAR(em.write_energy_pj(true),
              em.e_write_driver_pj + em.e_switch_pj, 1e-15);
}

TEST(EnergyModel, PaperDefaultsAreSingleton) {
  EXPECT_EQ(&EnergyModel::paper_defaults(), &EnergyModel::paper_defaults());
}

TEST(EnergyModel, FromDeviceRespectsPeriphery) {
  const VteamModel dev;
  PeripheryParams periphery;
  periphery.controller_energy_per_cycle_pj = 1.25;
  const EnergyModel em =
      EnergyModel::from_device(dev, OperatingPoint{}, periphery);
  EXPECT_DOUBLE_EQ(em.e_cycle_overhead_pj, 1.25);
}

}  // namespace
}  // namespace apim::device
