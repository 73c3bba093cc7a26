// The two in-process workloads: sim_paper drives RangeCacheSystem, the
// paper's simulator; engine_churn drives sim::ScenarioEngine, the
// struct-of-arrays engine, at 10^5 peers.
//
// Both run in rounds. A round builds a fresh system from the seed (the
// set-up that setup_s times) and then runs a fixed number of
// operations, so a round's recall and counts do not depend on speed
// and must repeat exactly from round to round. Rounds repeat until the
// timed operations have used the run's --seconds (at least kMinRounds).
#include <cstdio>
#include <string>

#include "bench.h"
#include "core/system.h"
#include "rel/generator.h"
#include "sim/engine/scenario_engine.h"
#include "workload/range_workload.h"

namespace perfbench {

using namespace p2prange;

namespace {

constexpr int kMinRounds = 3;
/// In-process set-up takes tens of ms, so each round sets up this many
/// times (keeping the last system) for a steadier setup_s median.
constexpr int kSetupRepeats = 3;
/// Timed-clock window of the Timeline medians.
constexpr double kWindowS = 1.0;
/// With --trace 1 rounds alternate untraced and traced, so both halves
/// see the same conditions; two rounds is the minimum.
constexpr int kMinTracedRounds = 2;

// sim_paper: the paper's §5 set-up — uniform ranges over [0, 1000],
// approx min-wise LSH with k=20, l=5, Jaccard matching, Chord.
constexpr uint32_t kDomainHi = 1000;
constexpr size_t kSimPeers = 2000;
constexpr size_t kSimOpsPerRound = 12000;

// engine_churn: Chord, uniform ranges over the same [0, 1000], steady
// crash/recover churn.
constexpr size_t kEnginePeers = 100000;
constexpr size_t kEngineQueriesPerRound = 10000;

bool TracedRound(const Options& o, int round) {
  return o.trace && round % 2 == 1;
}

bool LastRound(const Options& o, int round, double untraced_s,
               double traced_s) {
  const int done = round + 1;
  if (o.trace) {
    return done >= kMinTracedRounds && done % 2 == 0 &&
           untraced_s + traced_s >= o.seconds;
  }
  return done >= kMinRounds && untraced_s >= o.seconds;
}

/// The layer calls of one sim_paper lookup, replayed on the op's
/// inputs just before the op runs (read-only: the replay sees the
/// state the op will see and changes no cache contents).
void ReplaySimLayers(RangeCacheSystem& sys, const NetAddress& origin,
                     const PartitionKey& key, uint64_t op, uint32_t parent,
                     Tracer* tracer, Samples* candidates) {
  std::vector<uint32_t> ids;
  uint32_t s = tracer->Begin(op, "hash.identifiers", parent);
  sys.lsh().IdentifiersInto(key.range, &ids);
  tracer->End(s);
  for (const uint32_t id : ids) {
    s = tracer->Begin(op, "overlay.route", parent);
    auto route = sys.overlay().RouteToOwner(origin, id);
    tracer->End(s);
    if (!route.ok()) continue;
    const Peer* owner = sys.peer(route->owner.addr);
    if (owner == nullptr) continue;
    s = tracer->Begin(op, "store.best_match", parent);
    const auto best =
        owner->store().BestMatch(id, key, MatchCriterion::kJaccard);
    tracer->End(s);
    (void)best;
    candidates->Add(static_cast<double>(owner->store().BucketContents(id).size()));
  }
}

}  // namespace

void RunSimPaper(const Options& o, Report* report) {
  Samples setup_s, hops;
  Timeline lookup_ms, publish_ms;
  Samples candidates;
  Tracer tracer(Clock::now());
  double untraced_s = 0.0, traced_s = 0.0, untraced_cpu_ms = 0.0;
  uint64_t untraced_ops = 0, traced_ops = 0, op_id = 0;
  double first_recall_sum = -1.0;

  for (int round = 0;; ++round) {
    const bool traced = TracedRound(o, round);
    SystemConfig cfg;
    cfg.num_peers = kSimPeers;
    cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
    cfg.criterion = MatchCriterion::kJaccard;
    cfg.seed = Mix(o.seed ^ 0x51);
    Result<RangeCacheSystem> sys = Status::Internal("not built");
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto setup_start = Clock::now();
      sys = RangeCacheSystem::Make(
          cfg, MakeNumbersCatalog(/*n=*/10, 0, kDomainHi, Mix(o.seed ^ 0x52)));
      if (!sys.ok()) {
        report->Fail("RangeCacheSystem::Make: " + sys.status().ToString());
        return;
      }
      setup_s.Add(MsSince(setup_start) / 1000.0);
    }
    const std::vector<overlay::PeerInfo> peers =
        sys->overlay().AlivePeersOrdered();

    UniformRangeGenerator gen(0, kDomainHi, Mix(o.seed ^ 0x53));
    Rng origin_rng(Mix(o.seed ^ 0x54));
    double recall_sum = 0.0;
    const double cpu_start = SelfCpuMs();
    const auto window_start = Clock::now();
    for (size_t i = 0; i < kSimOpsPerRound; ++i, ++op_id) {
      const Range q = gen.Next();
      const NetAddress origin =
          peers[origin_rng.NextBounded(peers.size())].addr;
      const PartitionKey key{"Numbers", "key", q};
      ++report->attempted;
      uint32_t op_span = 0, lookup_span = 0;
      if (traced) {
        op_span = tracer.Begin(op_id, "op", 0);
        ReplaySimLayers(*sys, origin, key, op_id, op_span, &tracer,
                        &candidates);
        lookup_span = tracer.Begin(op_id, "protocol.lookup", op_span);
      }
      const auto t = Clock::now();
      auto outcome = sys->LookupRangeFrom(origin, key);
      const double ms = MsSince(t);
      const double at_s = untraced_s + MsSince(window_start) / 1000.0;
      if (traced) {
        tracer.End(lookup_span);
        tracer.End(op_span);
      }
      if (!outcome.ok()) {
        ++report->failed;
        continue;
      }
      if (!traced) {
        lookup_ms.Add(at_s, ms);
        // Cache-on-miss publishes inside the lookup when the answer is
        // not exact; these ops carry that write.
        if (!outcome->match || !outcome->match->exact) publish_ms.Add(at_s, ms);
      }
      hops.Add(outcome->hops);
      if (outcome->match) {
        const RangeMatch& m = *outcome->match;
        const double recall = q.RecallFrom(m.matched.range);
        if (recall != m.recall || q.Jaccard(m.matched.range) != m.jaccard) {
          report->Fail("sim_paper: reported recall/jaccard of " +
                       m.matched.ToString() + " for " + q.ToString() +
                       " differs from hash/range");
        }
        recall_sum += recall;
      }
    }
    const double window_s = MsSince(window_start) / 1000.0;
    std::fprintf(stderr, "round %d%s: window %.2f s\n", round,
                 traced ? " (traced)" : "", window_s);
    if (traced) {
      traced_s += window_s;
      traced_ops += kSimOpsPerRound;
    } else {
      untraced_s += window_s;
      untraced_ops += kSimOpsPerRound;
      untraced_cpu_ms += SelfCpuMs() - cpu_start;
    }
    if (first_recall_sum < 0.0) {
      first_recall_sum = recall_sum;
    } else if (recall_sum != first_recall_sum) {
      report->Fail("sim_paper: recall differs between rounds of one seed (" +
                   std::to_string(recall_sum) + " vs " +
                   std::to_string(first_recall_sum) + ")");
    }
    if (LastRound(o, round, untraced_s, traced_s)) break;
  }

  const Timeline::Summary lookups = lookup_ms.Summarize(kWindowS, untraced_s);
  const double lookups_per_s = lookups.rate_per_s;
  const double recall = first_recall_sum / static_cast<double>(kSimOpsPerRound);
  const double error_rate = static_cast<double>(report->failed) /
                            static_cast<double>(report->attempted);
  report->Add("setup_s", setup_s.Median(), "s", setup_s.size(),
              "RangeCacheSystem::Make, median over all set-ups");
  report->Add("lookups_per_s", lookups_per_s, "1/s", untraced_ops,
              "median over " + std::to_string(lookups.windows) + " windows");
  report->AddTimeline("lookup", lookups,
                      "LookupRangeFrom, cache-on-miss included");
  report->AddTimeline("query", lookups,
                      "in-process query = the lookup call (no fetch stage)");
  report->AddTimeline("publish", publish_ms.Summarize(kWindowS, untraced_s),
                      "lookups that published on a non-exact answer");
  report->Add("mean_recall", recall, "ratio", kSimOpsPerRound,
              "identical in every round");
  report->Add("error_rate", error_rate, "ratio", report->attempted);
  report->Add("peak_rss_mb", SelfPeakRssMb(), "MB", 1, "bench process");
  report->Add("bench.client_cpu_ms_per_op",
              untraced_cpu_ms / static_cast<double>(untraced_ops), "ms",
              untraced_ops);
  report->Add("overlay.hops_per_lookup", hops.Mean(), "count", hops.size());

  if (!o.trace) return;
  const Samples hash_us = tracer.PerOpUs("hash.identifiers");
  const Samples route_us = tracer.PerOpUs("overlay.route");
  const Samples match_us = tracer.PerOpUs("store.best_match");
  const Samples traced_lookup_us = tracer.PerOpUs("protocol.lookup");
  report->Add("hash.identifiers_us", hash_us.Median(), "us", hash_us.size());
  report->Add("overlay.route_us", route_us.Median(), "us", route_us.size(),
              "per op, summed over its l identifiers");
  report->Add("store.best_match_us", match_us.Median(), "us", match_us.size(),
              "per op, summed over its l owner buckets");
  report->Add("store.candidates_per_probe", candidates.Mean(), "count",
              candidates.size());
  report->Add("trace.unattributed_share",
              1.0 - (hash_us.Median() + route_us.Median() + match_us.Median()) /
                        traced_lookup_us.Median(),
              "ratio", traced_lookup_us.size(),
              "1 - (hash + route + best match) p50 / traced lookup p50");
  report->Add("trace.overhead",
              (static_cast<double>(traced_ops) / traced_s) /
                  (static_cast<double>(untraced_ops) / untraced_s),
              "ratio", traced_ops, "traced / untraced lookups_per_s");
  if (!WriteSpans(o.work_dir + "/spans.jsonl", {&tracer})) {
    report->Fail("cannot write spans to " + o.work_dir);
  }
}

void RunEngineChurn(const Options& o, Report* report) {
  Samples setup_s, ms_per_query, rate;
  double untraced_s = 0.0, traced_s = 0.0, untraced_cpu_ms = 0.0;
  uint64_t untraced_queries = 0, traced_queries = 0;
  double first_recall_sum = -1.0;
  sim::ScenarioReport last;
  Tracer tracer(Clock::now());
  uint64_t op_id = 0;

  for (int round = 0;; ++round) {
    const bool traced = TracedRound(o, round);
    sim::ScenarioConfig cfg;
    cfg.kind = overlay::Kind::kChord;
    cfg.shape = sim::WorkloadShape::kUniform;
    cfg.churn = sim::ChurnMode::kChurn;
    cfg.num_peers = kEnginePeers;
    cfg.num_queries = kEngineQueriesPerRound;
    cfg.domain = kDomainHi;
    cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
    cfg.seed = Mix(o.seed ^ 0x61);

    // The engine's set-up cost depends on its seed: ids drawn with a
    // birthday collision (about two seeds in three at 10^5 peers) cost a
    // second sort. So setup_s times engines built from seeds derived
    // from the run's, the typical cost over many inputs; the engine that
    // runs is built after them, untimed.
    for (int i = 0; i < kSetupRepeats; ++i) {
      sim::ScenarioConfig setup_cfg = cfg;
      setup_cfg.seed = Mix(cfg.seed ^ static_cast<uint64_t>(round * kSetupRepeats + i + 1));
      const auto setup_start = Clock::now();
      auto built = sim::ScenarioEngine::Make(setup_cfg);
      if (!built.ok()) {
        report->Fail("ScenarioEngine::Make: " + built.status().ToString());
        return;
      }
      setup_s.Add(MsSince(setup_start) / 1000.0);
    }
    auto engine = sim::ScenarioEngine::Make(cfg);
    if (!engine.ok()) {
      report->Fail("ScenarioEngine::Make: " + engine.status().ToString());
      return;
    }

    const double cpu_start = SelfCpuMs();
    const auto run_start = Clock::now();
    uint32_t op_span = traced ? tracer.Begin(op_id, "engine.run", 0) : 0;
    auto run = engine->Run();
    if (traced) tracer.End(op_span);
    const double run_s = MsSince(run_start) / 1000.0;
    report->attempted += kEngineQueriesPerRound;
    if (!run.ok()) {
      report->failed += kEngineQueriesPerRound;
      report->Fail("ScenarioEngine::Run: " + run.status().ToString());
      return;
    }
    if (run->queries != kEngineQueriesPerRound) {
      report->Fail("engine_churn: ran " + std::to_string(run->queries) +
                   " queries, asked for " +
                   std::to_string(kEngineQueriesPerRound));
    }
    if (traced) {
      traced_s += run_s;
      traced_queries += run->queries;
      // The engine hashes inside Run(); time the same LSH scheme on
      // ranges from the engine's range distribution (uniform over its
      // domain), one span per range.
      auto lsh = LshScheme::Make(cfg.lsh);
      if (!lsh.ok()) {
        report->Fail("LshScheme::Make: " + lsh.status().ToString());
        return;
      }
      UniformRangeGenerator gen(0, cfg.domain, Mix(o.seed ^ 0x62));
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < kEngineQueriesPerRound; ++i, ++op_id) {
        const Range q = gen.Next();
        const uint32_t s = tracer.Begin(op_id, "hash.identifiers", 0);
        lsh->IdentifiersInto(q, &ids);
        tracer.End(s);
      }
    } else {
      untraced_s += run_s;
      untraced_queries += run->queries;
      untraced_cpu_ms += SelfCpuMs() - cpu_start;
      ms_per_query.Add(1000.0 * run_s / static_cast<double>(run->queries));
      rate.Add(static_cast<double>(run->queries) / run_s);
    }
    if (first_recall_sum < 0.0) {
      first_recall_sum = run->recall_sum;
    } else if (run->recall_sum != first_recall_sum) {
      report->Fail("engine_churn: recall differs between rounds of one seed");
    }
    if (run->recall_sum < 0.0 ||
        run->recall_sum > static_cast<double>(run->queries)) {
      report->Fail("engine_churn: recall sum out of [0, queries]");
    }
    last = *run;
    if (LastRound(o, round, untraced_s, traced_s)) break;
  }

  const double lookups_per_s = rate.Median();
  const std::string mean_note =
      "over rounds, of each round's mean wall ms per query: the engine "
      "runs every query inside one Run() call";
  report->Add("setup_s", setup_s.Median(), "s", setup_s.size(),
              "ScenarioEngine::Make at 10^5 peers, median over set-ups "
              "from derived seeds");
  report->Add("lookups_per_s", lookups_per_s, "1/s", untraced_queries,
              "median over " + std::to_string(rate.size()) + " rounds");
  report->AddTiming("lookup", ms_per_query, mean_note);
  report->AddTiming("query", ms_per_query, mean_note);
  report->AddTiming("publish", ms_per_query, mean_note);
  report->Add("mean_recall", last.mean_recall(), "ratio", last.queries,
              "identical in every round");
  report->Add("error_rate",
              static_cast<double>(report->failed) /
                  static_cast<double>(report->attempted),
              "ratio", report->attempted);
  report->Add("peak_rss_mb", SelfPeakRssMb(), "MB", 1, "bench process");
  report->Add("bench.client_cpu_ms_per_op",
              untraced_cpu_ms / static_cast<double>(untraced_queries), "ms",
              untraced_queries);
  const double q = static_cast<double>(last.queries);
  report->Add("engine.hops_per_query", static_cast<double>(last.hops) / q,
              "count", last.queries);
  report->Add("engine.messages_per_query",
              static_cast<double>(last.messages) / q, "count", last.queries);
  report->Add("engine.bytes_per_peer", static_cast<double>(last.bytes_per_peer),
              "bytes", 1);
  report->Add("engine.event_queue_depth",
              static_cast<double>(last.event_queue_depth), "count", 1);

  if (!o.trace) return;
  const Samples hash = tracer.PerOpUs("hash.identifiers");
  report->Add("hash.identifiers_us", hash.Median(), "us", hash.size(),
              "LshScheme on ranges drawn like the engine's");
  report->Add("trace.overhead",
              (static_cast<double>(traced_queries) / traced_s) /
                  (static_cast<double>(untraced_queries) / untraced_s),
              "ratio", traced_queries, "traced / untraced lookups_per_s");
  if (!WriteSpans(o.work_dir + "/spans.jsonl", {&tracer})) {
    report->Fail("cannot write spans to " + o.work_dir);
  }
}

}  // namespace perfbench
