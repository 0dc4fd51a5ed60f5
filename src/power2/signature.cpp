#include "src/power2/signature.hpp"

#include <algorithm>
#include <cmath>

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

P2SIM_PAR_SAFE std::uint64_t rounded(double x) {
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
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
  ++stats_.measured;
  dirty_ = true;
  Power2Core::note_kernel_run(m.run, m.wall_us);
  return it->second;
}

std::vector<KernelDesc> SignatureCache::plan_batch(
    const std::vector<KernelDesc>& kernels) const {
  std::vector<KernelDesc> plan;
  std::vector<std::uint64_t> planned;
  for (const KernelDesc& k : kernels) {
    const std::uint64_t h = k.content_hash();
    if (by_hash_.find(h) != by_hash_.end()) continue;
    if (std::find(planned.begin(), planned.end(), h) != planned.end()) {
      continue;
    }
    planned.push_back(h);
    plan.push_back(k);
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
  w.put_u64(by_hash_.size());
  for (const auto& [hash, sig] : by_hash_) {
    w.put_u64(hash);
    sig.save_ckpt(w);
  }
  w.put_bool(dirty_);
}

void SignatureCache::restore_ckpt(util::CkptReader& r) {
  const std::uint64_t hash = r.read_u64("sigcache.core_hash");
  if (hash != core_hash_) {
    throw util::CkptError("sigcache.core_hash: core config mismatch");
  }
  by_hash_.clear();
  std::uint64_t n = r.read_u64("sigcache.size");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t h = r.read_u64("sigcache.hash");
    EventSignature s;
    s.restore_ckpt(r);
    by_hash_.emplace(h, s);
  }
  dirty_ = r.read_bool("sigcache.dirty");
}

}  // namespace p2sim::power2
