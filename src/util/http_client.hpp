// A minimal blocking HTTP/1.1 client for the monitoring plane's own use:
// the daemon's self-scrape (--scrape-dump), `campaign_dashboard --connect`
// (the remote view of a running p2sim_monitord), the scrape-overhead bench
// and the server tests.  One request per connection ("Connection:
// close"), bounded by a wall-clock deadline.
#pragma once

#include <cstdint>
#include <string>

namespace p2sim::util {

struct HttpFetch {
  bool ok = false;     // transport worked and a status line was parsed
  int status = 0;      // HTTP status code (0 when !ok)
  std::string body;    // decoded message body
  std::string raw;     // every byte received, verbatim
  std::string error;   // reason when !ok
};

/// GET http://host:port/target with "Connection: close"; reads until the
/// server closes or the deadline passes.  `host` is a dotted-quad IPv4
/// literal (the embedded server only binds loopback).
HttpFetch http_get(const std::string& host, std::uint16_t port,
                   const std::string& target, int timeout_ms = 5000);

/// Sends `bytes` verbatim and collects whatever comes back until close or
/// deadline — the malformed-request / slow-loris probe used by tests.
/// `linger_ms` > 0 sleeps between connect and send (partial-write abuse).
HttpFetch http_raw(const std::string& host, std::uint16_t port,
                   const std::string& bytes, int timeout_ms = 5000,
                   int linger_ms = 0);

}  // namespace p2sim::util
