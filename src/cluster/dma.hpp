// Micro Channel DMA engine model.
//
// The SCU's DMA counters report *transfers*, where "a single transfer can
// represent either 4 or 8 words" (section 5) — 32 or 64 bytes.  The engine
// converts byte traffic into transfer counts using a configurable 8-word
// share, carrying fractional residuals so that fine-grained interval
// accounting conserves bytes exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "src/check/annotate.hpp"
#include "src/cluster/carry_chain.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::cluster {

struct DmaConfig {
  /// Fraction of transfers that move 8 words (64 bytes); the rest move 4.
  double eight_word_fraction = 0.5;

  P2SIM_PAR_SAFE double avg_transfer_bytes() const {
    return eight_word_fraction * 64.0 + (1.0 - eight_word_fraction) * 32.0;
  }
};

/// Accumulates read (memory -> device) and write (device -> memory) traffic
/// and exposes whole-transfer counts as the hardware counters would see.
class DmaEngine {
 public:
  explicit DmaEngine(const DmaConfig& cfg = {}) : cfg_(cfg) {}

  /// `reads` = bytes leaving memory (sends, disk writes);
  /// `writes` = bytes entering memory (receives, disk reads).
  P2SIM_PAR_SAFE void transfer(double read_bytes, double write_bytes) {
    if (read_bytes > 0.0) {
      pending_read_bytes_ += read_bytes;
      total_read_bytes_ += read_bytes;
    }
    if (write_bytes > 0.0) {
      pending_write_bytes_ += write_bytes;
      total_write_bytes_ += write_bytes;
    }
  }

  /// Transfers completed since the last harvest; the caller feeds these to
  /// the performance monitor and the engine keeps only sub-transfer
  /// residuals.
  struct Harvest {
    std::uint64_t read_transfers = 0;
    std::uint64_t write_transfers = 0;
  };
  P2SIM_PAR_SAFE Harvest harvest() {
    const double per = cfg_.avg_transfer_bytes();
    return {take_transfers(pending_read_bytes_, per),
            take_transfers(pending_write_bytes_, per)};
  }

  /// The two pending-byte chains of a slice that moves `page_bytes` each
  /// way plus `read_bytes` and `write_bytes`: one grid per direction, with
  /// m = bytes per transfer.  transfer() skips an add that is not
  /// positive; a chain adds 0.
  struct ReplayGrids {
    CarryGrid read;
    CarryGrid write;
  };
  P2SIM_PAR_SAFE ReplayGrids replay_grids(double page_bytes,
                                          double read_bytes,
                                          double write_bytes) const {
    const auto positive = [](double v) { return v > 0.0 ? v : 0.0; };
    const double per = cfg_.avg_transfer_bytes();
    return {CarryGrid(positive(page_bytes), positive(read_bytes), per),
            CarryGrid(positive(page_bytes), positive(write_bytes), per)};
  }

  /// `slices` repeats of {transfer(page_bytes, page_bytes);
  /// transfer(read_bytes, write_bytes); harvest()}, returning the summed
  /// harvest.  `grids` must be replay_grids() of the same bytes.  The
  /// pending bytes are replayed exactly in integers and the lifetime
  /// totals are added slice by slice, as transfer() adds them.  Returns
  /// nullopt, changing nothing, when a pending-byte chain is off its grid
  /// or the run is longer than CarryGrid::kMaxSlices.
  P2SIM_PAR_SAFE std::optional<Harvest> replay(std::uint64_t slices,
                                               const ReplayGrids& grids,
                                               double page_bytes,
                                               double read_bytes,
                                               double write_bytes) {
    if (slices > CarryGrid::kMaxSlices) return std::nullopt;
    std::uint64_t read = 0;
    std::uint64_t write = 0;
    if (!(grids.read.enter(pending_read_bytes_, read) &&
          grids.write.enter(pending_write_bytes_, write))) {
      return std::nullopt;
    }
    const Harvest h{grids.read.take(read, slices),
                    grids.write.take(write, slices)};
    pending_read_bytes_ = grids.read.value(read);
    pending_write_bytes_ = grids.write.value(write);
    for (std::uint64_t i = 0; i < slices; ++i) {
      if (page_bytes > 0.0) {
        total_read_bytes_ += page_bytes;
        total_write_bytes_ += page_bytes;
      }
      if (read_bytes > 0.0) total_read_bytes_ += read_bytes;
      if (write_bytes > 0.0) total_write_bytes_ += write_bytes;
    }
    return h;
  }

  double total_read_bytes() const { return total_read_bytes_; }
  double total_write_bytes() const { return total_write_bytes_; }
  /// Sub-transfer residuals awaiting harvest (equivalence tests compare
  /// these byte-for-byte between accrual paths).
  P2SIM_PAR_SAFE double pending_read_bytes() const {
    return pending_read_bytes_;
  }
  P2SIM_PAR_SAFE double pending_write_bytes() const {
    return pending_write_bytes_;
  }
  P2SIM_PAR_SAFE const DmaConfig& config() const { return cfg_; }

  /// Checkpoint fields: residuals and lifetime totals round-trip exactly.
  /// Restoring throws util::CkptError on negative or non-finite pending
  /// bytes, which take_transfers could not convert.
  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_residual(io, "dma.pending_read", self.pending_read_bytes_);
    util::ckpt_residual(io, "dma.pending_write", self.pending_write_bytes_);
    util::ckpt_field(io, "dma.total_read", self.total_read_bytes_);
    util::ckpt_field(io, "dma.total_write", self.total_write_bytes_);
  }

 private:
  /// Whole transfers in `pending`, leaving the sub-transfer residual.  A
  /// residual below one transfer skips the divide: p < per implies
  /// fl(p / per) < 1, so the floor would be 0 anyway.
  P2SIM_PAR_SAFE static std::uint64_t take_transfers(double& pending,
                                                     double per) {
    if (pending < per) return 0;
    const double n = std::floor(pending / per);
    pending -= n * per;
    return static_cast<std::uint64_t>(n);
  }

  DmaConfig cfg_;
  double pending_read_bytes_ = 0.0;
  double pending_write_bytes_ = 0.0;
  double total_read_bytes_ = 0.0;
  double total_write_bytes_ = 0.0;
};

}  // namespace p2sim::cluster
