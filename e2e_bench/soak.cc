// soak: MAK sessions over many tenants through one serve::SessionServer
// with a default-constructed ServerConfig (256 resident slots, 64-step
// batches), all in the thread tier. Set-up opens every session; the timed
// phase calls tick() back to back until the server is idle. Sessions
// outnumber resident slots about 4:1, so every tick evicts sessions to JSON
// state and re-admits others, rebuilding their apps.
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.h"
#include "common.h"
#include "harness/experiment.h"
#include "serve/server.h"
#include "serve/session.h"
#include "support/json.h"
#include "support/metric_names.h"
#include "support/rng.h"
#include "traced_run.h"

namespace e2e {

namespace {

namespace apps = mak::apps;
namespace harness = mak::harness;
namespace metric = mak::support::metric;
namespace serve = mak::serve;
namespace support = mak::support;

constexpr int kSetupPasses = 3;
constexpr std::size_t kSessionsPerSecond = 50;  // 1000 at --seconds 20
constexpr std::size_t kTenantsPerSecond = 1;    // 20 at --seconds 20
constexpr support::VirtualMillis kSessionBudget = 180 * support::kMillisPerSecond;
constexpr std::size_t kWarmupDivisor = 10;  // warm-up: a tenth of the sessions
constexpr std::uint64_t kTag = 0x50a4;
// Sessions re-run through run_once (untraced) and the traced runner.
constexpr std::size_t kCheckEvery = 50;
// Sessions whose construction, save and load are replayed (traced).
constexpr std::size_t kStateEvery = 10;
constexpr std::size_t kMaxTicks = 1000000;

struct Plan {
  std::vector<serve::OpenRequest> requests;
  std::vector<RunSpec> specs;  // the same sessions as standalone runs
};

Plan make_plan(std::uint64_t base, std::size_t sessions, std::size_t tenants) {
  const auto& catalog = apps::app_catalog();
  Plan plan;
  for (std::size_t i = 0; i < sessions; ++i) {
    const apps::AppInfo& app = catalog[i % catalog.size()];
    const harness::RunConfig config =
        protocol_config(kSessionBudget, support::mix64(base + i));
    serve::OpenRequest request;
    request.tenant = "tenant-" + std::to_string(i % tenants);
    request.app = app.name;
    request.crawler = "MAK";
    request.config = config;
    request.tier = serve::IsolationTier::kThread;
    plan.specs.push_back(RunSpec{&app, harness::CrawlerKind::kMak, config,
                                 "s" + std::to_string(i) + "/" +
                                     request.tenant + "/" + app.name});
    plan.requests.push_back(std::move(request));
  }
  return plan;
}

struct Server {
  std::unique_ptr<serve::SessionServer> server;
  std::vector<std::uint64_t> ids;  // 0 = rejected at open
};

Server open_all(const std::vector<serve::OpenRequest>& requests,
                Tracer* tracer) {
  Server out;
  out.server = std::make_unique<serve::SessionServer>(serve::ServerConfig{});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint32_t span =
        tracer ? tracer->open("serve.open", static_cast<std::uint32_t>(i)) : 0;
    const serve::OpenOutcome outcome = out.server->open(requests[i]);
    if (tracer) tracer->close(span);
    out.ids.push_back(outcome.admitted() ? outcome.id : 0);
  }
  return out;
}

// Step-hook marks of the traced soak: when each crawl step ended, and in
// which session.
struct Mark {
  std::int64_t ns = 0;
  std::uint32_t session = 0;
};

struct TickLog {
  std::vector<double> tick_ms;
  std::vector<std::size_t> queue_depth;  // before each tick
  std::vector<std::uint32_t> spans;      // serve.tick span per tick (traced)
  std::vector<std::size_t> marks_at;     // marks recorded before each tick
  std::size_t steps = 0;
  double wall_s = 0.0;
};

// Ticks until idle, by the server's own rule (two empty rounds, empty
// queue). With a tracer, each tick gets a span and `marks` its boundaries;
// with `corrected`, each tick is followed by a host reference sample.
TickLog tick_until_idle(serve::SessionServer& server, Tracer* tracer,
                        const std::vector<Mark>* marks,
                        CorrectedTimes* corrected, Report& report) {
  TickLog log;
  int idle_rounds = 0;
  std::int64_t sampling_ns = 0;  // in reference samples, not in wall_s
  const std::int64_t start = now_ns();
  while (idle_rounds < 2) {
    if (log.tick_ms.size() >= kMaxTicks) {
      report.note("soak did not go idle within " + std::to_string(kMaxTicks) +
                  " ticks");
      break;
    }
    if (marks != nullptr) log.marks_at.push_back(marks->size());
    log.queue_depth.push_back(server.queue_depth());
    const auto index = static_cast<std::uint32_t>(log.tick_ms.size());
    const std::uint32_t span = tracer ? tracer->open("serve.tick", index) : 0;
    const std::int64_t t0 = now_ns();
    const std::size_t ran = server.tick();
    const std::int64_t tick_ns = now_ns() - t0;
    log.tick_ms.push_back(static_cast<double>(tick_ns) * 1e-6);
    if (tracer) {
      tracer->close(span);
      log.spans.push_back(span);
    }
    if (corrected) {
      const std::int64_t sample_start = now_ns();
      corrected->add(tick_ns);
      sampling_ns += now_ns() - sample_start;
    }
    log.steps += ran;
    idle_rounds = ran == 0 && server.queue_depth() == 0 ? idle_rounds + 1 : 0;
  }
  if (marks != nullptr) log.marks_at.push_back(marks->size());
  log.wall_s = static_cast<double>(now_ns() - start - sampling_ns) * 1e-9;
  return log;
}

std::vector<Outcome> outcomes_of(std::string_view phase, const Plan& plan,
                                 const Server& soak, Report& report) {
  std::vector<Outcome> outcomes;
  std::size_t rejected = 0;
  std::size_t unfinished = 0;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const std::uint64_t id = soak.ids[i];
    const harness::RunResult* result =
        id != 0 && soak.server->state(id) == serve::SessionState::kFinished
            ? soak.server->result(id)
            : nullptr;
    if (result != nullptr) {
      outcomes.push_back(outcome_of(plan.specs[i].label, *result));
      continue;
    }
    Outcome lost;
    lost.label = plan.specs[i].label;
    lost.ok = false;
    outcomes.push_back(std::move(lost));
    ++(id == 0 ? rejected : unfinished);
  }
  const serve::ServerStats& stats = soak.server->stats();
  report.note(std::string(phase) + " sessions: " +
              std::to_string(plan.specs.size()) + " planned, " +
              std::to_string(rejected) + " rejected, " +
              std::to_string(unfinished) + " lost or quarantined (" +
              std::to_string(stats.quarantined) + " quarantined)");
  return outcomes;
}

// Crawl-step time inside the traced ticks. Consecutive marks of one session
// inside one tick form a batch; the intervals between them become core.step
// spans. A batch's first step has no start mark and is charged the mean of
// the batch's measured steps.
struct StepTimes {
  std::vector<double> measured_us;
  double total_s = 0.0;  // measured plus charged first steps
  std::size_t batches = 0;
};

StepTimes step_times(const TickLog& ticks, const std::vector<Mark>& marks,
                     Tracer& tracer) {
  StepTimes out;
  const std::uint32_t name = tracer.name_id("core.step");
  for (std::size_t t = 0; t < ticks.spans.size(); ++t) {
    std::size_t first = ticks.marks_at[t];
    while (first < ticks.marks_at[t + 1]) {
      std::size_t end = first + 1;
      while (end < ticks.marks_at[t + 1] &&
             marks[end].session == marks[first].session) {
        ++end;
      }
      ++out.batches;
      double batch_s = 0.0;
      for (std::size_t k = first + 1; k < end; ++k) {
        tracer.add(name, marks[k].session, marks[k - 1].ns, marks[k].ns,
                   ticks.spans[t]);
        const auto ns = static_cast<double>(marks[k].ns - marks[k - 1].ns);
        out.measured_us.push_back(ns * 1e-3);
        batch_s += ns * 1e-9;
      }
      const std::size_t measured = end - first - 1;
      if (measured > 0) {
        out.total_s += batch_s * static_cast<double>(measured + 1) /
                       static_cast<double>(measured);
      }
      first = end;
    }
  }
  return out;
}

// Replays every kStateEvery-th session as a CrawlSession that is saved,
// rebuilt and loaded at each batch boundary — the states the soak reaches,
// and what eviction and re-admission do to them. Each replay must end where
// the soak's session did. Returns the state sizes (KB).
std::vector<double> replay_states(const Plan& plan, Tracer& tracer,
                                  Report& report) {
  std::vector<double> state_kb;
  std::size_t mismatches = 0;
  const std::size_t batch_steps = serve::ServerConfig{}.batch_steps;
  for (std::size_t i = 0; i < plan.specs.size(); i += kStateEvery) {
    const RunSpec& spec = plan.specs[i];
    const auto run = static_cast<std::uint32_t>(i);
    const auto construct = [&] {
      const std::uint32_t span = tracer.open("apps.construct", run);
      auto session = std::make_unique<serve::CrawlSession>(
          *spec.app, spec.kind, spec.config);
      tracer.close(span);
      return session;
    };
    auto session = construct();
    while (!session->finished()) {
      session->step_batch(batch_steps);
      if (session->finished()) break;
      std::uint32_t span = tracer.open("serve.save", run);
      const std::string blob = support::json::dump(session->save_state());
      tracer.close(span);
      state_kb.push_back(static_cast<double>(blob.size()) / 1024.0);
      auto fresh = construct();
      span = tracer.open("serve.load", run);
      const auto state = support::json::parse(blob);
      if (!state.has_value()) throw std::runtime_error("soak: bad state blob");
      fresh->load_state(*state);
      tracer.close(span);
      session = std::move(fresh);
    }
    const harness::RunResult result = session->result();
    Outcome& expected = report.outcomes[i];
    if (result.steps != expected.steps ||
        result.final_covered_lines != expected.covered) {
      expected.ok = false;
      ++mismatches;
    }
  }
  report.note("save/load replay: " + std::to_string(state_kb.size()) +
              " states, " + std::to_string(mismatches) + " mismatches");
  return state_kb;
}

void add_traced_metrics(const Plan& plan, const CorrectedTimes& untraced,
                        HostReference& reference, const Options& options,
                        Report& report) {
  auto& registry = support::MetricsRegistry::global();
  Tracer tracer;
  std::vector<Mark> marks;
  Plan hooked = plan;
  for (std::size_t i = 0; i < hooked.requests.size(); ++i) {
    hooked.requests[i].config.step_hook = [&marks, i](std::size_t) {
      marks.push_back(Mark{now_ns(), static_cast<std::uint32_t>(i)});
    };
  }
  Server soak = open_all(hooked.requests, &tracer);
  const auto before = registry.snapshot();
  CorrectedTimes traced_ticks(reference);
  const TickLog ticks =
      tick_until_idle(*soak.server, &tracer, &marks, &traced_ticks, report);
  const auto after = registry.snapshot();

  // The traced soak must finish every session exactly as the untraced one.
  std::vector<Outcome> traced_outcomes = outcomes_of("traced", hooked, soak, report);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < traced_outcomes.size(); ++i) {
    Outcome& expected = report.outcomes[i];
    const Outcome& got = traced_outcomes[i];
    if (!got.ok || got.steps != expected.steps || got.covered != expected.covered) {
      expected.ok = false;
      ++mismatches;
    }
  }
  report.note("traced soak reproduced " +
              std::to_string(traced_outcomes.size() - mismatches) + " of " +
              std::to_string(traced_outcomes.size()) + " sessions");

  const StepTimes steps_in = step_times(ticks, marks, tracer);
  double tick_s = 0.0;
  for (const double ms : ticks.tick_ms) tick_s += ms * 1e-3;

  const std::vector<double> state_kb = replay_states(plan, tracer, report);

  // The traced runner on a sample of sessions: the page path's per-call cost
  // on the soak's pages, and one more check that each session ≡ run_once.
  std::vector<RunSpec> sample;
  std::vector<Outcome> sample_expected;
  for (std::size_t i = 0; i < plan.specs.size(); i += kCheckEvery) {
    sample.push_back(plan.specs[i]);
    sample_expected.push_back(report.outcomes[i]);
  }
  const TracedRuns page_runs = trace_runs(sample, sample_expected, 1, report);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    if (!sample_expected[k].ok) report.outcomes[k * kCheckEvery].ok = false;
  }

  const auto delta = [&](std::string_view name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  const double hits = delta(metric::kBrowserParseCacheHits);
  const double misses = delta(metric::kBrowserParseCacheMisses);
  const double pushes = delta(metric::kFrontierPushes);
  const double duplicates = delta(metric::kFrontierDuplicates);
  const double steps = static_cast<double>(ticks.steps);
  const double n_ticks = static_cast<double>(ticks.tick_ms.size());
  const serve::ServerStats& stats = soak.server->stats();
  std::vector<double> depth(ticks.queue_depth.begin(), ticks.queue_depth.end());

  report.add_percentile("apps.construct_us_p50",
                        tracer.durations_us("apps.construct"), 50, "us");
  add_page_metrics(page_runs, report);
  report.add_percentile("core.step_us_p50", steps_in.measured_us, 50, "us");
  report.add_percentile("core.step_us_p90", steps_in.measured_us, 90, "us");
  report.add_percentile("core.mak_step_us_p50", steps_in.measured_us, 50, "us");
  report.add("core.parse_hit_ratio", ratio(hits, hits + misses), "ratio");
  report.add("core.frontier_push_yield", ratio(pushes, pushes + duplicates),
             "ratio");
  // Every soak session runs MAK; the baselines do no work here.
  report.add("baselines.webexplor_step_us_p50", 0.0, "us");
  report.add("baselines.qexplore_step_us_p50", 0.0, "us");
  report.add("httpsim.requests_per_step",
             ratio(delta(metric::kHttpsimRequests), steps), "1/step");
  report.add("httpsim.retries_per_step",
             ratio(delta(metric::kBrowserRetries), steps), "1/step");
  report.add("harness.run_self_share", 0.0, "ratio");
  report.add_percentile("serve.open_us_p50", tracer.durations_us("serve.open"),
                        50, "us");
  report.add("serve.tick_self_share", ratio(tick_s - steps_in.total_s, tick_s),
             "ratio");
  report.add("serve.activation_yield",
             ratio(static_cast<double>(steps_in.batches),
                   static_cast<double>(stats.opened + stats.evicted)),
             "ratio");
  report.add("serve.evictions_per_tick",
             ratio(static_cast<double>(stats.evicted), n_ticks), "1/tick");
  report.add("serve.steps_per_tick", ratio(steps, n_ticks), "1/tick");
  report.add_percentile("serve.queue_depth_p50", depth, 50, "count");
  report.add_percentile("serve.save_us_p50", tracer.durations_us("serve.save"),
                        50, "us");
  report.add_percentile("serve.load_us_p50", tracer.durations_us("serve.load"),
                        50, "us");
  report.add_percentile("serve.state_kb_p50", state_kb, 50, "KB");
  report.add("trace.attributed_pct", 100.0 * ratio(tick_s, ticks.wall_s), "%");
  report.add("trace.overhead_pct",
             100.0 * (ratio(traced_ticks.corrected_s(), untraced.corrected_s()) -
                      1.0),
             "%");
  report.note("traced soak: " + std::to_string(ticks.tick_ms.size()) +
              " ticks, " + std::to_string(ticks.steps) + " steps, " +
              std::to_string(steps_in.batches) + " batches, " +
              std::to_string(stats.evicted) + " evictions; tick " +
              std::to_string(tick_s) + " s, steps " +
              std::to_string(steps_in.total_s) +
              " s (first step of each batch estimated)");
  if (!options.trace_out.empty() && !tracer.write_csv(options.trace_out)) {
    report.note("could not write " + options.trace_out);
  }
}

}  // namespace

Report run_soak(const Options& options, std::int64_t main_start_ns) {
  Report report;
  const std::size_t sessions =
      kSessionsPerSecond * static_cast<std::size_t>(options.seconds);
  const std::size_t tenants =
      kTenantsPerSecond * static_cast<std::size_t>(options.seconds);
  const std::uint64_t timed_base = support::mix64(options.seed ^ kTag);

  // ---- set-up: a warm-up server run to idle, then the soak server with
  // every session opened; several times, keeping the last server. Each pass
  // is timed in stretches that end at a host reference sample: the warm-up
  // opens, each warm-up tick, the soak's opens ----------------------------
  HostReference reference;
  std::vector<CorrectedTimes> setup;
  Plan plan;
  Server soak;
  std::int64_t stretch_start = main_start_ns;
  const auto lap = [&](CorrectedTimes& times) {
    times.add(now_ns() - stretch_start);
    stretch_start = now_ns();
  };
  for (int pass = 1; pass <= kSetupPasses; ++pass) {
    CorrectedTimes& times = setup.emplace_back(reference);
    soak = Server{};
    // Warm-up sessions take their seeds from a disjoint index range.
    const Plan warmup = make_plan(timed_base + sessions * static_cast<std::uint64_t>(pass),
                                  sessions / kWarmupDivisor,
                                  tenants / kWarmupDivisor + 1);
    Server warm = open_all(warmup.requests, nullptr);
    lap(times);
    // SessionServer::run_until_idle, one tick at a time.
    for (int idle_rounds = 0; idle_rounds < 2;) {
      const std::size_t ran = warm.server->tick();
      idle_rounds = ran == 0 && warm.server->queue_depth() == 0 ? idle_rounds + 1 : 0;
      lap(times);
    }
    plan = make_plan(timed_base, sessions, tenants);
    soak = open_all(plan.requests, nullptr);
    lap(times);
  }
  report.add_setup(setup);
  report.note("workload soak: " + std::to_string(sessions) + " sessions over " +
              std::to_string(tenants) + " tenants, " +
              std::to_string(kSessionBudget / 1000) +
              " virtual s each, seed " + std::to_string(options.seed));

  // ---- timed phase: tick back to back until idle, a reference sample after
  // each tick -------------------------------------------------------------
  CorrectedTimes tick_times(reference);
  PhaseProbe probe;
  const TickLog ticks =
      tick_until_idle(*soak.server, nullptr, nullptr, &tick_times, report);
  probe.stop();
  report.note_probe("timed phase", probe);
  report.outcomes = outcomes_of("timed", plan, soak, report);
  const serve::ServerStats& stats = soak.server->stats();
  report.note("soak: " + std::to_string(ticks.tick_ms.size()) + " ticks, " +
              std::to_string(ticks.steps) + " steps, " +
              std::to_string(stats.evicted) + " evictions");
  report.add_timed(tick_times, ticks.steps);

  if (options.trace) {
    soak = Server{};
    add_traced_metrics(plan, tick_times, reference, options, report);
    return report;
  }
  // Each sampled session must equal run_once with the same config.
  std::size_t matched = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < plan.specs.size(); i += kCheckEvery) {
    const RunSpec& spec = plan.specs[i];
    const harness::RunResult result =
        harness::run_once(*spec.app, spec.kind, spec.config);
    Outcome& outcome = report.outcomes[i];
    ++checked;
    if (result.steps == outcome.steps &&
        result.final_covered_lines == outcome.covered) {
      ++matched;
    } else {
      outcome.ok = false;
    }
  }
  report.note("run_once reproduced " + std::to_string(matched) + " of " +
              std::to_string(checked) + " sampled sessions");
  return report;
}

}  // namespace e2e
