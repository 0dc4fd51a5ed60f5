#include "src/power2/kernel_desc.hpp"

#include <cmath>
#include <stdexcept>

namespace p2sim::power2 {
namespace {

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

std::string KernelDesc::validate() const {
  if (body.empty()) return "empty body";
  if (body.back().op != OpClass::kBranch) {
    return "body must end with the loop branch";
  }
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Instr& in = body[i];
    // kCondReg is the last OpClass; a cast can put any byte in `op`.
    if (static_cast<std::uint8_t>(in.op) >
        static_cast<std::uint8_t>(OpClass::kCondReg)) {
      return "op outside OpClass";
    }
    if (in.op == OpClass::kBranch && i + 1 != body.size()) {
      return "branch allowed only as the final instruction";
    }
    if (in.dep != kNoDep &&
        (in.dep < 0 || static_cast<std::size_t>(in.dep) >= i)) {
      return "dep must reference an earlier body instruction";
    }
    if (in.carried_dep != kNoDep &&
        (in.carried_dep < 0 ||
         static_cast<std::size_t>(in.carried_dep) >= body.size())) {
      return "carried_dep out of range";
    }
    if (is_memory(in.op)) {
      if (in.stream == kNoStream || in.stream >= streams.size()) {
        return "memory op must reference a declared stream";
      }
    } else if (in.stream != kNoStream) {
      return "non-memory op must not reference a stream";
    }
    if (in.quad && !is_memory(in.op)) return "quad flag on non-memory op";
  }
  for (const MemStream& s : streams) {
    if (s.footprint_bytes == 0) return "stream footprint must be > 0";
    if (s.stride_bytes == 0) return "stream stride must be nonzero";
  }
  if (measure_iters == 0) return "measure_iters must be > 0";
  if (!std::isfinite(icache_miss_per_kinst) || icache_miss_per_kinst < 0.0) {
    return "icache_miss_per_kinst must be finite and >= 0";
  }
  return {};
}

std::uint64_t KernelDesc::content_hash() const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (char c : name) h = mix64(h, static_cast<unsigned char>(c));
  for (const MemStream& s : streams) {
    h = mix64(h, s.footprint_bytes);
    h = mix64(h, static_cast<std::uint64_t>(s.stride_bytes));
  }
  for (const Instr& in : body) {
    h = mix64(h, static_cast<std::uint64_t>(in.op));
    h = mix64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(in.dep)));
    h = mix64(h, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(in.carried_dep)));
    h = mix64(h, in.stream);
    h = mix64(h, in.quad ? 1u : 0u);
  }
  h = mix64(h, warmup_iters);
  h = mix64(h, measure_iters);
  // Saturated so that a kernel validate() would reject still hashes
  // without an out-of-range cast.
  const double pressure = icache_miss_per_kinst * 1e6;
  const bool in_range = pressure >= 0.0 && pressure < 0x1p64;
  h = mix64(h, in_range ? static_cast<std::uint64_t>(pressure) : ~0ULL);
  return h;
}

std::uint64_t KernelDesc::flops_per_iter() const {
  std::uint64_t f = 0;
  for (const Instr& in : body) f += static_cast<std::uint64_t>(flops_of(in.op));
  return f;
}

std::uint64_t KernelDesc::memrefs_per_iter() const {
  std::uint64_t m = 0;
  for (const Instr& in : body) m += is_memory(in.op) ? 1 : 0;
  return m;
}

KernelBuilder::KernelBuilder(std::string name) { k_.name = std::move(name); }

std::uint8_t KernelBuilder::stream(std::uint64_t footprint_bytes,
                                   std::int64_t stride_bytes) {
  k_.streams.push_back({footprint_bytes, stride_bytes});
  return static_cast<std::uint8_t>(k_.streams.size() - 1);
}

std::int16_t KernelBuilder::push(Instr in) {
  k_.body.push_back(in);
  return static_cast<std::int16_t>(k_.body.size() - 1);
}

std::int16_t KernelBuilder::load(std::uint8_t s, bool quad) {
  return push({OpClass::kFxLoad, kNoDep, kNoDep, s, quad});
}
std::int16_t KernelBuilder::store(std::uint8_t s, bool quad) {
  return push({OpClass::kFxStore, kNoDep, kNoDep, s, quad});
}
std::int16_t KernelBuilder::alu(std::int16_t dep) {
  return push({OpClass::kFxAlu, dep, kNoDep, kNoStream, false});
}
std::int16_t KernelBuilder::addr_mul(std::int16_t dep) {
  return push({OpClass::kFxAddrMul, dep, kNoDep, kNoStream, false});
}
std::int16_t KernelBuilder::addr_div(std::int16_t dep) {
  return push({OpClass::kFxAddrDiv, dep, kNoDep, kNoStream, false});
}
std::int16_t KernelBuilder::fp_add(std::int16_t dep, std::int16_t carried) {
  return push({OpClass::kFpAdd, dep, carried, kNoStream, false});
}
std::int16_t KernelBuilder::fp_mul(std::int16_t dep, std::int16_t carried) {
  return push({OpClass::kFpMul, dep, carried, kNoStream, false});
}
std::int16_t KernelBuilder::fp_div(std::int16_t dep) {
  return push({OpClass::kFpDiv, dep, kNoDep, kNoStream, false});
}
std::int16_t KernelBuilder::fp_sqrt(std::int16_t dep) {
  return push({OpClass::kFpSqrt, dep, kNoDep, kNoStream, false});
}
std::int16_t KernelBuilder::fma(std::int16_t dep, std::int16_t carried) {
  return push({OpClass::kFpFma, dep, carried, kNoStream, false});
}
std::int16_t KernelBuilder::cond_reg(std::int16_t dep) {
  return push({OpClass::kCondReg, dep, kNoDep, kNoStream, false});
}

KernelBuilder& KernelBuilder::warmup(std::uint64_t iters) {
  k_.warmup_iters = iters;
  return *this;
}
KernelBuilder& KernelBuilder::measure(std::uint64_t iters) {
  k_.measure_iters = iters;
  return *this;
}
KernelBuilder& KernelBuilder::icache_pressure(double miss_per_kinst) {
  k_.icache_miss_per_kinst = miss_per_kinst;
  return *this;
}

KernelDesc KernelBuilder::build() {
  push({OpClass::kBranch, kNoDep, kNoDep, kNoStream, false});
  if (auto err = k_.validate(); !err.empty()) {
    throw std::invalid_argument("kernel '" + k_.name + "': " + err);
  }
  return std::move(k_);
}

}  // namespace p2sim::power2
