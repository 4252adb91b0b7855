// The traced runner: harness::run_once reassembled from public pieces (app
// factory, network, browser, crawler, fault injector, drift engine) in
// run_once's construction and RNG-fork order, with spans around the calls
// into each layer. It must reproduce run_once's steps and covered lines on
// every run; trace_runs() checks that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "common.h"
#include "harness/experiment.h"

namespace e2e {

struct RunSpec {
  const mak::apps::AppInfo* app = nullptr;
  mak::harness::CrawlerKind kind = mak::harness::CrawlerKind::kMak;
  mak::harness::RunConfig config;
  std::string label;
};

// The paper's run protocol with `budget` and `seed`, every field spelled
// out: nothing comes from the environment.
mak::harness::RunConfig protocol_config(mak::support::VirtualMillis budget,
                                        std::uint64_t seed);

// The traced runs of one phase and what they touched.
struct TracedRuns {
  Tracer tracer;
  mak::support::MetricsSnapshot before;  // registry around the runs only
  mak::support::MetricsSnapshot after;
  std::size_t steps = 0;
  double phase_s = 0.0;  // wall inside the run loop, replays excluded
};

// Traces every spec; replays the distinct responses of every
// `replay_every`-th run through html::parse, html::extract_interactables and
// core::build_page after that run. Each traced run must match
// `reference[i]` (steps and covered lines); a mismatch marks it failed.
// With `host_times`, every traced run is recorded there, and so followed by
// a host reference sample.
TracedRuns trace_runs(const std::vector<RunSpec>& specs,
                      std::vector<Outcome>& reference,
                      std::size_t replay_every, Report& report,
                      CorrectedTimes* host_times = nullptr);

// Per-call and share metrics of the page path: webapp.handle_*,
// html.parse_us_p50, html.extract_us_p50, core.build_page_*.
void add_page_metrics(const TracedRuns& traced, Report& report);

// Ratio that reads 0 when the base is empty.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace e2e
