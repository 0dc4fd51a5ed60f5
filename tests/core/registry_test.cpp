// The experiment registry: names resolve, and every registered experiment
// runs on a small campaign, rendering text and a finite measured value for
// each paper value it lists.
#include "src/core/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

namespace p2sim::core {
namespace {

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const Experiment& e : experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
  }
}

TEST(Registry, FindExperimentResolvesNames) {
  EXPECT_NE(find_experiment("fault_campaign"), nullptr);
  EXPECT_NE(find_experiment("loss"), nullptr);
  EXPECT_EQ(find_experiment("no_such_thing"), nullptr);
  EXPECT_FALSE(experiments().empty());

  Sp2Simulation sim(Sp2Config::small(3, 8));
  const std::string out = find_experiment("loss")->run(sim).text();
  EXPECT_NE(out.find("Measurement loss report"), std::string::npos);
}

TEST(Registry, CompareRendersPaperAndMeasuredValues) {
  const std::vector<PaperValue> paper = {{"Mips", 45.5}};
  Report r(paper);
  r.compare(44.25);
  EXPECT_NE(r.text().find("Mips"), std::string::npos);
  EXPECT_NE(r.text().find("paper     45.500   measured     44.250"),
            std::string::npos);
  EXPECT_EQ(r.measured(), std::vector<double>{44.25});
  // Every comparison belongs to a listed paper value.
  EXPECT_THROW(r.compare(1.0), std::logic_error);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The fault and wait-state experiments run a second campaign derived from
// the caller's; it must not write over the caller's archive.
TEST(Registry, DerivedCampaignsLeaveTheCallersArchiveAlone) {
  const std::string path = testing::TempDir() + "p2sim_registry_derived.p2a";
  for (const char* name : {"fault_campaign", "waitstates"}) {
    std::remove(path.c_str());
    Sp2Config cfg = Sp2Config::small(3, 8);
    cfg.archive() = path;
    Sp2Simulation sim(cfg);
    sim.campaign();
    const std::string before = slurp(path);
    ASSERT_FALSE(before.empty());
    find_experiment(name)->run(sim);
    EXPECT_TRUE(slurp(path) == before) << name << " rewrote the archive";
  }
  std::remove(path.c_str());
}

class EveryExperiment : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryExperiment, RunsOnASmallCampaign) {
  const Experiment* e = find_experiment(GetParam());
  ASSERT_NE(e, nullptr);
  Sp2Simulation sim(Sp2Config::small(3, 8));
  const Report r = e->run(sim);
  EXPECT_FALSE(r.text().empty());
  ASSERT_EQ(r.measured().size(), e->paper.size());
  for (std::size_t i = 0; i < e->paper.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.measured()[i])) << e->paper[i].quantity;
  }
}

std::vector<std::string> experiment_names() {
  std::vector<std::string> names;
  for (const Experiment& e : experiments()) names.push_back(e.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryExperiment, ::testing::ValuesIn(experiment_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace p2sim::core
