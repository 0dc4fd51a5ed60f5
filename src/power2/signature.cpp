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

const EventSignature& SignatureCache::get(const KernelDesc& kernel) {
  const auto it = by_hash_.find(kernel.content_hash());
  if (it != by_hash_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.measured_on_demand;
  return adopt(kernel, measure_quiet(core_cfg_, kernel));
}

const EventSignature& SignatureCache::adopt(const KernelDesc& kernel,
                                            const QuietMeasurement& m) {
  const auto [it, inserted] = by_hash_.emplace(kernel.content_hash(), m.sig);
  P2SIM_CHECK(inserted, "adopt: the kernel must not be cached yet");
  order_.push_back(it->first);
  ++stats_.measured;
  dirty_ = true;
  Power2Core::note_kernel_run(m.run, m.wall_us);
  return it->second;
}

std::vector<const KernelDesc*> SignatureCache::plan_batch(
    const std::vector<const KernelDesc*>& kernels) const {
  std::vector<const KernelDesc*> plan;
  // Membership only: the plan keeps the input's order, and the set is
  // never iterated.
  P2SIM_ORDERED_FOLD std::unordered_set<std::uint64_t> planned;
  for (const KernelDesc* k : kernels) {
    const std::uint64_t h = k->content_hash();
    if (by_hash_.find(h) != by_hash_.end()) continue;
    if (planned.insert(h).second) plan.push_back(k);
  }
  return plan;
}

bool SignatureCache::flush() {
  if (store_.path.empty() || !store_.write || !dirty_) return true;
  if (!save_signature_store(store_.path, core_hash_, by_hash_)) return false;
  dirty_ = false;
  return true;
}

void EventSignature::save_ckpt(util::CkptWriter& w) const {
  w.put_f64(cycles_per_iter);
  for (const ScaledField& f : kScaledFields) w.put_f64(this->*(f.rate));
}

void EventSignature::restore_ckpt(util::CkptReader& r) {
  cycles_per_iter = r.read_f64("signature.cycles_per_iter");
  for (const ScaledField& f : kScaledFields) {
    this->*(f.rate) = r.read_f64("signature.rate");
  }
}

void SignatureCache::save_ckpt(util::CkptWriter& w) const {
  w.put_u64(core_hash_);
  w.put_bool(dirty_);
}

void SignatureCache::restore_ckpt(util::CkptReader& r) {
  const std::uint64_t hash = r.read_u64("sigcache.core_hash");
  if (hash != core_hash_) {
    throw util::CkptError("sigcache.core_hash: core config mismatch");
  }
  dirty_ = r.read_bool("sigcache.dirty");
}

void SignatureCache::save_journal(util::CkptWriter& w,
                                  std::size_t from) const {
  w.put_u64(from);
  w.put_u64(order_.size() - from);
  for (std::size_t i = from; i < order_.size(); ++i) {
    w.put_u64(order_[i]);
    by_hash_.at(order_[i]).save_ckpt(w);
  }
}

void SignatureCache::replay_journal(util::CkptReader& r) {
  if (util::journal_section_restarts(r.read_u64("sigcache.entries"),
                                     order_.size(), "sigcache.entries")) {
    by_hash_.clear();
    order_.clear();
  }
  const std::uint64_t n = r.read_u64("sigcache.entries");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t h = r.read_u64("sigcache.hash");
    EventSignature s;
    s.restore_ckpt(r);
    if (by_hash_.emplace(h, s).second) order_.push_back(h);
  }
}

}  // namespace p2sim::power2
