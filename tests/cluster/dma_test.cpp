#include "src/cluster/dma.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/util/ckpt.hpp"

namespace p2sim::cluster {
namespace {

TEST(DmaConfig, TransferSizeMixesFourAndEightWords) {
  // "A single transfer can represent either 4 or 8 words" = 32 or 64 bytes.
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 0.0}.avg_transfer_bytes(),
                   32.0);
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 1.0}.avg_transfer_bytes(),
                   64.0);
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 0.5}.avg_transfer_bytes(),
                   48.0);
}

/// A DMA checkpoint: pending read/write bytes, then the lifetime totals.
std::string dma_ckpt(double pending_read, double pending_write) {
  util::CkptWriter w;
  w.put_f64(pending_read);
  w.put_f64(pending_write);
  w.put_f64(1000.0);
  w.put_f64(2000.0);
  return w.bytes();
}

TEST(DmaEngine, RestoreRejectsNegativeOrNonFinitePendingBytes) {
  {
    DmaEngine e;
    const std::string good = dma_ckpt(10.0, 20.0);
    util::CkptReader r(good);
    ASSERT_NO_THROW(util::restore_ckpt(r, e));
    EXPECT_EQ(e.pending_read_bytes(), 10.0);
    EXPECT_EQ(e.pending_write_bytes(), 20.0);
    EXPECT_EQ(e.total_write_bytes(), 2000.0);
  }
  // take_transfers would floor a negative quotient into uint64_t.
  for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::string& bytes : {dma_ckpt(bad, 0.0), dma_ckpt(0.0, bad)}) {
      DmaEngine e;
      util::CkptReader r(bytes);
      EXPECT_THROW(util::restore_ckpt(r, e), util::CkptError) << bad;
    }
  }
}

TEST(DmaEngine, ConvertsBytesToTransfers) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});  // 32 B/transfer
  e.transfer(/*read=*/320.0, /*write=*/64.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 10u);
  EXPECT_EQ(h.write_transfers, 2u);
}

TEST(DmaEngine, ResidualsCarryAcrossHarvests) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(48.0, 0.0);  // 1.5 transfers
  EXPECT_EQ(e.harvest().read_transfers, 1u);
  e.transfer(16.0, 0.0);  // residual 16 + 16 = 1 transfer
  EXPECT_EQ(e.harvest().read_transfers, 1u);
}

TEST(DmaEngine, ConservesBytesOverManySmallChunks) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.5});  // 48 B/transfer
  std::uint64_t transfers = 0;
  for (int i = 0; i < 1000; ++i) {
    e.transfer(7.0, 0.0);  // far below one transfer each
    transfers += e.harvest().read_transfers;
  }
  EXPECT_EQ(transfers, static_cast<std::uint64_t>(7000.0 / 48.0));
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 7000.0);
}

TEST(DmaEngine, NegativeAndZeroTrafficIgnored) {
  DmaEngine e;
  e.transfer(-100.0, 0.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 0u);
  EXPECT_EQ(h.write_transfers, 0u);
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 0.0);
}

TEST(DmaEngine, ReadsAndWritesIndependent) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(64.0, 128.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 2u);
  EXPECT_EQ(h.write_transfers, 4u);
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 64.0);
  EXPECT_DOUBLE_EQ(e.total_write_bytes(), 128.0);
}

TEST(DmaEngine, PaperMessageRateArithmetic) {
  // Section 5: 0.042e6 transfers/s ~ 1.3 MB/s implies ~32-byte transfers.
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(1.3e6, 0.0);
  EXPECT_NEAR(static_cast<double>(e.harvest().read_transfers), 0.0406e6,
              0.001e6);
}

}  // namespace
}  // namespace p2sim::cluster
