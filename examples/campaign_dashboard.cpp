// campaign_dashboard: the remote view of a running p2sim_monitord.
// `--connect HOST:PORT` fetches /healthz and /api/days and prints both;
// the exit status is 0 iff both requests returned 200.  The local view
// (health lines, dashboard, exports, reconciliation) is the daemon's own.
//
//   p2sim_monitord --campaigns 0 --port-file /tmp/p2sim.port &
//   campaign_dashboard --connect 127.0.0.1:$(cat /tmp/p2sim.port)
#include <cstdio>
#include <string>
#include <string_view>

#include "examples/campaign_cli.hpp"
#include "src/util/http_client.hpp"

int main(int argc, char** argv) {
  using namespace p2sim;
  cli::Args args(argc, argv, "usage: campaign_dashboard --connect HOST:PORT\n");
  std::string endpoint;
  cli::parse_args(args, {{"--connect", [&] { endpoint = args.value(); }}});
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    args.fail("--connect wants HOST:PORT, got '" + endpoint + "'");
  }
  const std::string host = endpoint.substr(0, colon);
  const auto port = util::parse_number<int>(
      std::string_view(endpoint).substr(colon + 1));
  if (!port || *port <= 0 || *port > 65535) {
    args.fail("--connect: bad port in " + endpoint);
  }
  bool ok = true;
  for (const char* target : {"/healthz", "/api/days"}) {
    const util::HttpFetch got =
        util::http_get(host, static_cast<std::uint16_t>(*port), target);
    if (!got.ok || got.status != 200) {
      std::fprintf(stderr, "GET %s%s failed: %s (status %d)\n",
                   endpoint.c_str(), target,
                   got.ok ? "non-200" : got.error.c_str(), got.status);
      ok = false;
      continue;
    }
    std::printf("== %s ==\n%s", target, got.body.c_str());
    if (!got.body.empty() && got.body.back() != '\n') std::printf("\n");
  }
  return ok ? 0 : 1;
}
