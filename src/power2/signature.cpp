#include "src/power2/signature.hpp"

#include <cmath>
#include <unordered_set>

#include "src/check/check.hpp"
#include "src/power2/field_table.hpp"
#include "src/power2/signature_store.hpp"

namespace p2sim::power2 {
namespace {

P2SIM_PAR_SAFE double rate(std::uint64_t events, std::uint64_t cycles) {
  return cycles ? static_cast<double>(events) / static_cast<double>(cycles)
                : 0.0;
}

/// Derives per-cycle rates from a finished run (the arithmetic half of
/// measure_signature, shared with the quiet path).
P2SIM_PAR_SAFE EventSignature signature_from_run(const RunResult& r) {
  const std::uint64_t c = r.counts.cycles;
  EventSignature s;
  s.cycles_per_iter = r.cycles_per_iter();
  for (const ScaledField& f : kScaledFields)
    s.*(f.rate) = rate(r.counts.*(f.count), c);
  return s;
}

/// llround for x > 0, kept inline: truncate, then round up when the
/// fraction x - trunc(x) (exact below 2^63) is at least one half.  NaN and
/// x >= 2^63, where the truncation is undefined, keep the libm call.
P2SIM_PAR_SAFE std::uint64_t rounded(double x) {
  if (x <= 0.0) return 0;
  if (!(x < 0x1p63)) return static_cast<std::uint64_t>(std::llround(x));
  const auto whole = static_cast<std::uint64_t>(x);
  return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

}  // namespace

EventCounts EventSignature::scale(double cycles) const {
  EventCounts ev;
  if (cycles <= 0.0) return ev;
  ev.cycles = rounded(cycles);
  scale_into(cycles, ev);
  return ev;
}

void EventSignature::scale_into(double cycles, EventCounts& ev) const {
  if (cycles <= 0.0) return;
  // One tight loop over the field table: each rate scales and rounds
  // independently, exactly as the former named-field statements did.
  for (const ScaledField& f : kScaledFields)
    ev.*(f.count) += rounded(this->*(f.rate) * cycles);
}

EventSignature measure_signature(Power2Core& core, const KernelDesc& kernel) {
  core.reset();
  const RunResult r = core.run(kernel);
  return signature_from_run(r);
}

QuietMeasurement measure_quiet(const CoreConfig& core_cfg,
                               const KernelDesc& kernel) {
  Power2Core core(core_cfg);
  QuietMeasurement m;
  m.run = core.run_counted(kernel, kernel.measure_iters, &m.wall_us);
  m.sig = signature_from_run(m.run);
  return m;
}

SignatureCache::SignatureCache(const CoreConfig& core_cfg,
                               SignatureStoreConfig store)
    : core_cfg_(core_cfg),
      core_hash_(core_config_hash(core_cfg)),
      store_(std::move(store)) {
  if (store_.path.empty() || !store_.read) return;
  const SignatureStoreReport rep =
      load_signature_store(store_.path, core_hash_, by_hash_);
  for (const auto& [hash, sig] : by_hash_) order_.push_back(hash);
  stats_.store_loaded = rep.loaded;
  stats_.store_corrupt_lines = rep.corrupt_lines;
  stats_.store_rejected =
      rep.file_found && (!rep.core_hash_matched || rep.truncated);
}

const EventSignature& SignatureCache::get(const KernelRef& kernel) {
  const auto it = by_hash_.find(kernel.hash);
  if (it != by_hash_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.measured_on_demand;
  return adopt(kernel.hash, measure_quiet(core_cfg_, *kernel.kernel));
}

const EventSignature& SignatureCache::adopt(std::uint64_t hash,
                                            const QuietMeasurement& m) {
  const auto [it, inserted] = by_hash_.emplace(hash, m.sig);
  P2SIM_CHECK(inserted, "adopt: the kernel must not be cached yet");
  order_.push_back(it->first);
  ++stats_.measured;
  dirty_ = true;
  Power2Core::note_kernel_run(m.run, m.wall_us);
  return it->second;
}

std::vector<KernelRef> SignatureCache::plan_batch(
    const std::vector<KernelRef>& kernels) const {
  std::vector<KernelRef> plan;
  // Membership only: the plan keeps the input's order, and the set is
  // never iterated.
  P2SIM_ORDERED_FOLD std::unordered_set<std::uint64_t> planned;
  for (const KernelRef& k : kernels) {
    if (by_hash_.find(k.hash) != by_hash_.end()) continue;
    if (planned.insert(k.hash).second) plan.push_back(k);
  }
  return plan;
}

bool SignatureCache::flush() {
  if (store_.path.empty() || !store_.write || !dirty_) return true;
  if (!save_signature_store(store_.path, core_hash_, by_hash_)) return false;
  dirty_ = false;
  return true;
}

template <class Io, class Self>
void EventSignature::ckpt_fields(Io& io, Self& self) {
  util::ckpt_field(io, "signature.cycles_per_iter", self.cycles_per_iter);
  for (const ScaledField& f : kScaledFields) {
    util::ckpt_field(io, "signature.rate", self.*(f.rate));
  }
}

void SignatureCache::save_journal(util::CkptWriter& w,
                                  std::size_t from) const {
  util::save_journal_section(
      w, from, order_.size(), [this](util::CkptWriter& w2, std::size_t i) {
        std::uint64_t hash = order_[i];
        entry_fields(w2, hash, by_hash_.at(hash));
      });
}

void SignatureCache::replay_journal(util::CkptReader& r) {
  util::replay_journal_section(
      r, "sigcache.entries", order_.size(),
      [this] {
        by_hash_.clear();
        order_.clear();
      },
      [this](util::CkptReader& r2) {
        std::uint64_t hash = 0;
        EventSignature sig;
        entry_fields(r2, hash, sig);
        if (by_hash_.emplace(hash, sig).second) order_.push_back(hash);
      });
}

}  // namespace p2sim::power2
