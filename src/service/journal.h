// Deterministic request journal + replay harness for the solver service.
//
// A journal is a plain-text, token-oriented serialization of a request
// stream: every double is written as its exact 64-bit pattern in hex, so a
// journal read back from disk reproduces the original requests *bit for
// bit* — the precondition for byte-identical replay.
//
// reply_payload_bytes() is the canonical serialization of a Reply's
// payload: the request type, the status, and the numeric results by exact
// bit pattern. It deliberately excludes wall time, RunStats and the
// service-side annotations (cache counters, coalescing width), which
// legitimately differ between a cold and a warm serve. The replay
// contract — journaled stream in, byte-compare payloads out — is:
//
//   replay(journal) at 1 worker == replay(journal) at N workers
//                               == replay(journal) against a warm cache
//
// per request, bitwise. tests/test_service_replay.cpp pins this; the
// examples/service_replay driver demonstrates it end to end.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "service/request.h"
#include "service/solver_service.h"

namespace bcclap::service {

// Writes `stream` as a journal. The format is versioned
// ("bcclap-journal 1") and whitespace-tokenized: readers never depend on
// line structure.
void write_journal(std::ostream& out, const std::vector<Request>& stream);
// Convenience file variant; returns false when the file cannot be opened.
bool write_journal_file(const std::string& path,
                        const std::vector<Request>& stream);

// Parses a journal back into requests. Throws std::runtime_error on
// malformed input (wrong magic, truncated payload, unknown request type,
// a graph edge or network arc that Graph::add_edge or Digraph::add_arc
// rejects).
std::vector<Request> read_journal(std::istream& in);
std::vector<Request> read_journal_file(const std::string& path);

// Canonical reply payload bytes; two replies to the same request compare
// equal iff their numeric payloads are bitwise identical.
std::string reply_payload_bytes(const Reply& reply);

struct ReplayResult {
  // Canonical payload bytes, index-aligned with the submitted stream.
  std::vector<std::string> payloads;
  // Queue-full backpressure retries performed while submitting.
  std::size_t resubmissions = 0;
};

// Submits the stream in order and waits for every reply. Backpressure is
// honored, not bypassed: a queue-full rejection is retried (draining one
// request inline when the service is caller-driven, i.e. workers = 0);
// any other rejection throws std::runtime_error — a replay harness must
// observe every reply, so admission rejections are configuration errors.
ReplayResult replay(SolverService& service, const std::vector<Request>& stream);

}  // namespace bcclap::service
