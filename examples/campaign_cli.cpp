#include "examples/campaign_cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "src/analysis/record_io.hpp"

namespace p2sim::cli {

const char* const kCampaignFlags =
    "campaign flags [defaults]:\n"
    "  --days N [30]  --nodes N [32]  --seed S  --faults [off]\n"
    "  --threads N [1; 0 = one per core; outputs are bit-identical]\n"
    "  --signature-store FILE  --archive FILE  --records BASE\n"
    "  --checkpoint-dir DIR  --checkpoint-every N [96 intervals]  --resume\n";

core::Sp2Config CampaignOptions::config() const {
  core::Sp2Config cfg = core::Sp2Config::small(days, nodes);
  if (seed) cfg.driver.seed = *seed;
  cfg.threads() = threads;
  if (faults) cfg.faults() = fault::FaultConfig::reference();
  cfg.signature_store() = signature_store;
  cfg.checkpoint().dir = checkpoint_dir;
  cfg.checkpoint().every_intervals = checkpoint_every;
  cfg.checkpoint().resume = resume;
  cfg.archive() = archive;
  return cfg;
}

bool CampaignOptions::save_records(
    const workload::CampaignResult& campaign) const {
  if (records.empty()) return true;
  std::ofstream fi(records + ".intervals", std::ios::trunc);
  analysis::save_intervals(fi, campaign.intervals);
  std::ofstream fj(records + ".jobs", std::ios::trunc);
  analysis::save_jobs(fj, campaign.jobs);
  if (fi.good() && fj.good()) return true;
  std::fprintf(stderr, "failed writing records to %s.*\n", records.c_str());
  remove_records();
  return false;
}

void CampaignOptions::remove_records() const {
  if (records.empty()) return;
  std::remove((records + ".intervals").c_str());
  std::remove((records + ".jobs").c_str());
}

void parse_args(Args& args, const std::vector<Flag>& flags,
                const Positional& positional) {
  while (args.next()) {
    const std::string_view arg = args.flag();
    const auto it = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag& f) { return f.first == arg; });
    if (it != flags.end()) {
      it->second();
    } else if (arg == "--help") {
      args.print_usage(stdout);
      std::exit(0);
    } else if (positional) {
      positional(arg);
    } else {
      args.fail("unknown argument " + std::string(arg));
    }
  }
}

CampaignOptions parse_campaign(Args& args, std::vector<Flag> own,
                               const Positional& positional) {
  CampaignOptions o;
  own.insert(own.end(),
             {{"--days", [&] { args.number(o.days); }},
              {"--nodes", [&] { args.number(o.nodes); }},
              {"--seed", [&] { args.number(o.seed.emplace()); }},
              {"--threads", [&] { args.number(o.threads); }},
              {"--faults", [&] { o.faults = true; }},
              {"--signature-store", [&] { o.signature_store = args.value(); }},
              {"--checkpoint-dir", [&] { o.checkpoint_dir = args.value(); }},
              {"--checkpoint-every", [&] { args.number(o.checkpoint_every); }},
              {"--resume", [&] { o.resume = true; }},
              {"--archive", [&] { o.archive = args.value(); }},
              {"--records", [&] { o.records = args.value(); }}});
  parse_args(args, own, positional);
  if (o.days <= 0 || o.nodes <= 0) args.fail("--days and --nodes must be > 0");
  if (o.threads < 0) args.fail("--threads must be >= 0");
  if (o.checkpoint_every <= 0) args.fail("--checkpoint-every must be > 0");
  if (o.resume && o.checkpoint_dir.empty()) {
    args.fail("--resume needs --checkpoint-dir");
  }
  return o;
}

}  // namespace p2sim::cli
