#include "src/rs2hpm/snapshot.hpp"

#include "src/check/check.hpp"
#include "src/check/invariants.hpp"

namespace p2sim::rs2hpm {

ModeTotals& ModeTotals::operator+=(const ModeTotals& o) {
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    user[i] += o.user[i];
    system[i] += o.system[i];
  }
  return *this;
}

ModeTotals ModeTotals::since(const ModeTotals& earlier) const {
  ModeTotals d;
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    // The documented precondition, enforced in Debug: extended totals are
    // monotone, so a negative delta means a caller mixed up snapshot order
    // or reset totals mid-window (the 64-bit analogue of a missed wrap).
    P2SIM_INVARIANT(user[i] >= earlier.user[i],
                    std::string("monotone user totals for ") +
                        std::string(hpm::counter_info(
                                        static_cast<hpm::HpmCounter>(i))
                                        .label));
    P2SIM_INVARIANT(system[i] >= earlier.system[i],
                    std::string("monotone system totals for ") +
                        std::string(hpm::counter_info(
                                        static_cast<hpm::HpmCounter>(i))
                                        .label));
    d.user[i] = user[i] - earlier.user[i];
    d.system[i] = system[i] - earlier.system[i];
  }
  return d;
}

bool ModeTotals::covers(const ModeTotals& earlier) const {
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    if (user[i] < earlier.user[i] || system[i] < earlier.system[i]) {
      return false;
    }
  }
  return true;
}

bool add_delta_if_monotone(const NodeSample& base, const ModeTotals& totals,
                           std::uint64_t quad, ModeTotals& delta,
                           std::uint64_t& quad_surplus) {
  if (quad < base.quad || !totals.covers(base.totals)) return false;
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    delta.user[i] += totals.user[i] - base.totals.user[i];
    delta.system[i] += totals.system[i] - base.totals.system[i];
  }
  quad_surplus += quad - base.quad;
  return true;
}

void ExtendedCounters::attach(const hpm::PerformanceMonitor& mon) {
  last_user_ = mon.bank(hpm::PrivilegeMode::kUser).raw();
  last_system_ = mon.bank(hpm::PrivilegeMode::kSystem).raw();
  base_user_ = last_user_;
  base_system_ = last_system_;
  attached_ = true;
}

void ExtendedCounters::sample(const hpm::PerformanceMonitor& mon) {
  if (!attached_) {
    attach(mon);
    return;
  }
  const auto& u = mon.bank(hpm::PrivilegeMode::kUser).raw();
  const auto& s = mon.bank(hpm::PrivilegeMode::kSystem).raw();
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    totals_.user[i] += wrap_delta(last_user_[i], u[i]);
    totals_.system[i] += wrap_delta(last_system_[i], s[i]);
    last_user_[i] = u[i];
    last_system_[i] = s[i];
  }
#if P2SIM_CHECKS_ENABLED
  check_wrap_consistency(mon);
#endif
}

void ExtendedCounters::accrue(const hpm::PerformanceMonitor& mon,
                              const hpm::CounterAdds& user_adds,
                              const hpm::CounterAdds& system_adds) {
  P2SIM_CHECK(attached_, "ExtendedCounters::accrue requires attach()");
  const auto& u = mon.bank(hpm::PrivilegeMode::kUser).raw();
  const auto& s = mon.bank(hpm::PrivilegeMode::kSystem).raw();
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    totals_.user[i] += user_adds[i];
    totals_.system[i] += system_adds[i];
    last_user_[i] = u[i];
    last_system_[i] = s[i];
  }
  // The wrap-consistency identity catches a caller whose folded register
  // increments disagree with the 64-bit amounts handed to us.
#if P2SIM_CHECKS_ENABLED
  check_wrap_consistency(mon);
#endif
}

void ExtendedCounters::check_wrap_consistency(
    const hpm::PerformanceMonitor& mon) const {
#if P2SIM_CHECKS_ENABLED
  const auto& u = mon.bank(hpm::PrivilegeMode::kUser).raw();
  const auto& s = mon.bank(hpm::PrivilegeMode::kSystem).raw();
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    // The 64-bit extension can miss whole wraps (the classic failure the
    // paper's sampling rule avoids), but never drift mod 2^32: whatever it
    // accumulated must agree with the raw register modulo the wrap.
    P2SIM_INVARIANT(
        static_cast<std::uint32_t>(base_user_[i] + totals_.user[i]) == u[i],
        std::string("user-mode wrap consistency for ") +
            std::string(hpm::counter_info(
                            static_cast<hpm::HpmCounter>(i)).label));
    P2SIM_INVARIANT(
        static_cast<std::uint32_t>(base_system_[i] + totals_.system[i]) ==
            s[i],
        std::string("system-mode wrap consistency for ") +
            std::string(hpm::counter_info(
                            static_cast<hpm::HpmCounter>(i)).label));
  }
  // The audited identities must hold on the monotone 64-bit totals too.
  P2SIM_AUDIT_TOTALS(totals_.user, "rs2hpm::ExtendedCounters::sample(user)");
  P2SIM_AUDIT_TOTALS(totals_.system,
                     "rs2hpm::ExtendedCounters::sample(system)");
#else
  (void)mon;
#endif
}

}  // namespace p2sim::rs2hpm
