// The two live workloads: a 3-daemon loopback ring of forked
// p2prange_node processes (worker pool on, replication 2), driven by
// client threads that are each one peer in a closed loop.
//
//  * live_lookup: read-only RingClient::Lookup.
//  * live_cache_on_miss: the paper's full query — Lookup, FetchPartition
//    of the best match from its holder, and on a non-exact answer
//    StorePartition + Publish of the query's own partition.
//
// A round boots a fresh ring on member addresses derived from the seed
// (so SHA-1 ring placement repeats for a seed), waits until every
// member's view holds the whole ring, publishes a seeded corpus, warms
// each client up, and only then times a fixed number of operations per
// client. Counters are scraped around the timed window: kMetrics from
// every daemon, /proc/<pid>/io and /proc/<pid>/stat of every daemon,
// and getrusage of this process. Every daemon must exit 0 on SIGTERM.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "rpc/frame.h"
#include "rpc/multi_op.h"
#include "rpc/ring_client.h"
#include "rpc/ring_view.h"
#include "wire/serde.h"
#include "workload/range_workload.h"

namespace perfbench {

using namespace p2prange;
namespace fs = std::filesystem;

namespace {

constexpr size_t kRingSize = 3;
constexpr int kReplication = 2;
constexpr int kWorkers = 2;
constexpr size_t kClients = 2;
constexpr int kMinRounds = 3;
/// Each round times about this long; a run makes --seconds / kRoundS
/// rounds (at least kMinRounds, an even count with --trace 1). The count
/// follows from the arguments alone, so recall and counts never depend
/// on speed.
constexpr double kRoundS = 3.0;

/// Query and corpus ranges: uniform over [0, 1000], as in the paper.
constexpr uint32_t kDomainHi = 1000;
/// A partition holds this many rows per domain value it covers, so its
/// size is proportional to its range width.
constexpr int64_t kRowsPerValue = 4;
constexpr size_t kCorpus = 300;
/// Corpus partitions published one by one; the rest are bulk-loaded.
constexpr size_t kPublishedCorpus = 60;
constexpr size_t kWarmupOpsPerClient = 200;
constexpr size_t kLookupOpsPerClient = 15000;
constexpr size_t kQueryOpsPerClient = 250;
/// Traced rounds replay layer calls around every op, which costs more
/// than the op; they run at most this many ops per client.
constexpr size_t kTracedOpsPerClient = 4000;
/// live_lookup replays one corpus and query stream in every round, so
/// its recall repeats from round to round up to probes that fail and
/// fall back (none are expected). live_cache_on_miss draws fresh ones
/// per round: its writes interleave, so its recall repeats anyway only
/// roughly, and more distinct queries steady the mean.
constexpr double kLiveRecallTolerance = 0.01;
/// Timed-clock window of the Timeline medians.
constexpr double kWindowS = 1.0;

NetAddress Loopback(uint16_t port) {
  NetAddress a;
  a.host = 0x7F000001;
  a.port = port;
  return a;
}

/// Member addresses derived from the seed. A member's ring identifier
/// is SHA-1 of its address, so on a ring this small the share of the
/// identifier space each member owns, and with it each daemon's load
/// and the probes a lookup batches, would swing from seed to seed. Of
/// kCandidates consecutive ports from a seeded base, the ring takes the
/// kRingSize whose identifiers split the ring most evenly. Ports sit in
/// [20000, 32000), below Linux's default ephemeral range (32768+), so
/// no outgoing connection of this host holds one.
std::vector<NetAddress> RingAddresses(uint64_t seed) {
  constexpr size_t kCandidates = 48;
  const uint32_t base =
      20000 + static_cast<uint32_t>(Mix(seed ^ 0x71) % (12000 - kCandidates));
  std::vector<NetAddress> candidates;
  for (size_t i = 0; i < kCandidates; ++i) {
    candidates.push_back(Loopback(static_cast<uint16_t>(base + i)));
  }
  std::vector<size_t> best;
  uint64_t best_max_arc = UINT64_MAX;
  std::vector<size_t> pick(kRingSize);
  // All kRingSize-subsets in lexicographic order.
  for (size_t i = 0; i < kRingSize; ++i) pick[i] = i;
  for (;;) {
    std::vector<uint64_t> ids;
    for (const size_t c : pick) ids.push_back(rpc::RingView::IdOf(candidates[c]));
    std::sort(ids.begin(), ids.end());
    uint64_t max_arc = ids.front() + (uint64_t{1} << 32) - ids.back();
    for (size_t i = 1; i < ids.size(); ++i) {
      max_arc = std::max(max_arc, ids[i] - ids[i - 1]);
    }
    if (max_arc < best_max_arc) {
      best_max_arc = max_arc;
      best = pick;
    }
    size_t k = kRingSize;
    while (k > 0 && pick[k - 1] == kCandidates - kRingSize + k - 1) --k;
    if (k == 0) break;
    ++pick[k - 1];
    for (size_t j = k; j < kRingSize; ++j) pick[j] = pick[j - 1] + 1;
  }
  std::vector<NetAddress> out;
  for (const size_t c : best) out.push_back(candidates[c]);
  return out;
}

/// One forked p2prange_node. The destructor SIGKILLs and reaps it;
/// the child also dies with this process (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon(const std::string& binary, const NetAddress& addr,
         const std::string& wal_dir, const std::string& metrics_path,
         const std::string& join) {
    std::vector<std::string> args = {
        binary,
        "--listen=" + addr.ToString(),
        "--wal_dir=" + wal_dir,
        "--replication=" + std::to_string(kReplication),
        "--workers=" + std::to_string(kWorkers),
        "--probe_ms=200",
        "--gossip_ms=200",
        "--stabilize_ms=200",
        "--probe_timeout_ms=500",
        "--quiet",
    };
    if (!metrics_path.empty()) args.push_back("--metrics_json=" + metrics_path);
    if (!join.empty()) args.push_back("--join=" + join);
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(127);
      ::execv(binary.c_str(), argv.data());
      _exit(127);
    }
  }
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  bool Running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM, then wait up to 20 s; the exit code, or -1 when it had
  /// to be killed or died from a signal.
  int Terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 400; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    Kill();
    return -1;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
  options.criterion = MatchCriterion::kJaccard;
  options.descriptor_replication = kReplication;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  options.batch_probes = true;
  return options;
}

const Schema& PartitionSchema() {
  static const Schema schema({Field{"a", ValueType::kInt64,
                                   AttributeDomain{0, kDomainHi}},
                             Field{"v", ValueType::kInt64, std::nullopt}});
  return schema;
}

/// The tuples of partition `r`: kRowsPerValue rows per value of `a`.
Relation PartitionTuples(const Range& r) {
  Relation rel("T", PartitionSchema());
  rel.Reserve(static_cast<size_t>(r.size()) * kRowsPerValue);
  for (uint64_t a = r.lo(); a <= r.hi(); ++a) {
    for (int64_t j = 0; j < kRowsPerValue; ++j) {
      rel.AppendUnchecked({Value(static_cast<int64_t>(a)),
                           Value(static_cast<int64_t>(a) * kRowsPerValue + j)});
    }
  }
  return rel;
}

/// Empty when `rel` is exactly partition `matched`: every tuple inside
/// the matched range (a cached answer may miss tuples of the query but
/// never holds a wrong one) and none missing.
std::string CheckPartition(const Relation& rel, const Range& matched) {
  if (rel.num_rows() != matched.size() * kRowsPerValue) {
    return "fetched " + std::to_string(rel.num_rows()) + " rows of " +
           matched.ToString() + ", stored " +
           std::to_string(matched.size() * kRowsPerValue);
  }
  for (const Row& row : rel.rows()) {
    if (row.empty() || !row[0].is_int()) return "malformed fetched row";
    const int64_t a = row[0].AsInt();
    if (a < matched.lo() || a > matched.hi()) {
      return "fetched tuple a=" + std::to_string(a) + " outside " +
             matched.ToString();
    }
  }
  return "";
}

/// Per-daemon counters scraped before and after a timed window.
struct DaemonSnapshot {
  std::string metrics;  ///< kMetrics JSON
  ProcIo io;
  double cpu_ms = 0.0;
  uint64_t exec_shed = 0;  ///< from the daemon's metrics file
};

uint64_t ExecutorField(const std::string& metrics_file_json,
                       const std::string& key) {
  const size_t at = metrics_file_json.find("\"executor\":");
  if (at == std::string::npos) return 0;
  return JsonUint(metrics_file_json, key, at);
}

std::string ReadFileText(const std::string& path) {
  if (path.empty()) return "";
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Ring {
  std::vector<NetAddress> members;
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<std::string> metrics_paths;
};

bool AwaitPing(Daemon& daemon, const NetAddress& addr) {
  rpc::TcpTransport transport;
  rpc::Transport::CallOptions call;
  call.deadline_ms = 500.0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (!daemon.Running()) return false;
    if (transport.Call(NetAddress{}, addr, rpc::MsgType::kPing, "", call).ok()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

/// Boots the ring grown by joins and waits until every member's own
/// view holds all kRingSize members.
std::string BootRing(const Options& o, const std::string& dir, Ring* ring) {
  ring->members = RingAddresses(o.seed);
  for (size_t i = 0; i < kRingSize; ++i) {
    const std::string wal = dir + "/n" + std::to_string(i);
    std::error_code ec;
    fs::create_directories(wal, ec);
    if (ec || !fs::is_directory(wal)) return "cannot create wal dir " + wal;
    // The daemon rewrites its metrics file (write + rename) every 50
    // poll iterations, on the poll thread; on ext4 with discard that is
    // disk I/O on the request path. Only the --trace 1 run, which reads
    // the executor gauges from it, pays for it.
    ring->metrics_paths.push_back(
        o.trace ? dir + "/n" + std::to_string(i) + ".metrics.json" : "");
    ring->daemons.push_back(std::make_unique<Daemon>(
        o.node_bin, ring->members[i], wal, ring->metrics_paths.back(),
        i == 0 ? "" : ring->members[0].ToString()));
    if (!AwaitPing(*ring->daemons.back(), ring->members[i])) {
      return "daemon " + ring->members[i].ToString() + " never answered";
    }
  }
  for (const NetAddress& member : ring->members) {
    auto client = rpc::RingClient::Make({member}, ClientOptions());
    if (!client.ok()) return client.status().ToString();
    bool converged = false;
    for (int attempt = 0; attempt < 400 && !converged; ++attempt) {
      converged = (*client)->RefreshView().ok() &&
                  (*client)->view().size() == kRingSize;
      if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!converged) return "view of " + member.ToString() + " never converged";
  }
  return "";
}

/// What one client thread measured in one round.
struct ClientResult {
  explicit ClientResult(Clock::time_point epoch) : tracer(epoch) {}

  /// Clocked from the start of the round's timed window.
  Timeline lookup_ms, query_ms, publish_ms;
  double recall_sum = 0.0;
  uint64_t ops = 0, failed = 0;
  uint64_t retries = 0;  ///< retransmits + timeouts + failovers + redirects
  uint64_t lookup_requests = 0, lookup_bytes = 0, lookups = 0;
  uint64_t publish_requests = 0, publishes = 0;
  uint64_t batched_probes = 0, probes = 0;
  std::vector<std::string> failures;
  std::string error;  ///< set up failed (not an op failure)
  Tracer tracer;
  uint64_t frame_bytes = 0;
};

uint64_t RpcBytes(const rpc::RpcStats& s) { return s.bytes_in + s.bytes_out; }

/// Frames a request and its response onto one byte stream and parses
/// both back, in an "rpc.frame" span (frame layout and CRC32C).
void ReplayFrames(std::string_view request, std::string_view response,
                  uint64_t op, uint32_t parent, ClientResult* res) {
  bool framed = true;
  {
    const Tracer::Scope span(&res->tracer, op, "rpc.frame", parent);
    std::string stream;
    rpc::AppendFrame(request, &stream);
    rpc::AppendFrame(response, &stream);
    rpc::FrameParser parser;
    parser.Feed(stream);
    for (int i = 0; i < 2; ++i) {
      auto frame = parser.Next();
      framed = framed && frame.ok() && frame->has_value();
    }
  }
  if (!framed) res->failures.push_back("frame round trip failed");
  res->frame_bytes += request.size() + response.size();
}

/// The rpc and wire layer calls of one live op, replayed on the op's
/// inputs from a separate transport: the hash, a raw ping and the op's
/// probe frame (kMultiOp or kProbeBucket) to the owner of its first
/// identifier, and the framing of those payloads.
void ReplayLookupLayers(rpc::RingClient& client, rpc::TcpTransport& raw,
                        const PartitionKey& key, uint64_t op, uint32_t parent,
                        ClientResult* res) {
  Tracer& tr = res->tracer;
  std::vector<uint32_t> ids;
  uint32_t s = tr.Begin(op, "hash.identifiers", parent);
  client.lsh().IdentifiersInto(key.range, &ids);
  tr.End(s);
  if (ids.empty()) return;
  const NetAddress owner = client.view().Owner(ids[0]);

  s = tr.Begin(op, "rpc.ping", parent);
  const bool pinged = raw.Call(NetAddress{}, owner, rpc::MsgType::kPing, "").ok();
  tr.End(s);
  if (!pinged) res->failures.push_back("trace ping to " + owner.ToString());

  rpc::ProbeBucketRequest req;
  req.query = key;
  req.criterion = MatchCriterion::kJaccard;
  rpc::MultiOpRequest batch;
  for (const uint32_t id : ids) {
    if (client.view().Owner(id) != owner) continue;
    req.bucket = id;
    batch.ops.push_back(
        rpc::MultiOp{rpc::MsgType::kProbeBucket, rpc::EncodeProbeBucketRequest(req)});
  }
  const bool multi = batch.ops.size() >= 2;
  const std::string body =
      multi ? rpc::EncodeMultiOpRequest(batch) : batch.ops[0].body;
  s = tr.Begin(op, "rpc.probe", parent);
  auto probed = raw.Call(NetAddress{}, owner,
                         multi ? rpc::MsgType::kMultiOp : rpc::MsgType::kProbeBucket,
                         body);
  tr.End(s);
  if (!probed.ok()) {
    res->failures.push_back("trace probe: " + probed.status().ToString());
    return;
  }

  ReplayFrames(body, probed->body, op, parent, res);
}

/// Encode/decode of a fetched partition (the fetch response payload),
/// and with `frame` the framing of that payload and its request.
void ReplayFetchLayers(const PartitionKey& key, const Relation& rel,
                       bool frame, uint64_t op, uint32_t parent,
                       ClientResult* res) {
  Tracer& tr = res->tracer;
  uint32_t s = tr.Begin(op, "wire.partition_encode", parent);
  wire::Encoder enc;
  wire::EncodeRelation(rel, &enc);
  const std::string body = enc.Take();
  tr.End(s);
  s = tr.Begin(op, "wire.partition_decode", parent);
  wire::Decoder dec(body);
  const bool decoded = wire::DecodeRelation(&dec).ok();
  tr.End(s);
  if (!decoded) res->failures.push_back("partition decode failed");
  if (!frame) return;

  ReplayFrames(rpc::EncodeFetchPartitionRequest(key), body, op, parent, res);
}

/// One client thread's ops of one round.
void RunClient(const Options& o, bool cache_on_miss, bool traced,
               uint64_t stream, size_t t,
               const std::vector<NetAddress>& members, std::latch* ready,
               const std::atomic<bool>* go, const Clock::time_point* go_time,
               uint64_t op_base, ClientResult* res) {
  auto made = rpc::RingClient::Make(members, ClientOptions());
  if (!made.ok()) {
    res->error = made.status().ToString();
    ready->count_down();
    return;
  }
  rpc::RingClient& client = **made;
  rpc::TcpTransport raw;

  // Warm-up: connections open, caches and branch predictors warm. Not
  // timed, not counted.
  UniformRangeGenerator warm(0, kDomainHi, Mix(o.seed ^ (0x90 + t)));
  for (size_t i = 0; i < kWarmupOpsPerClient; ++i) {
    auto out = client.Lookup(PartitionKey{"T", "a", warm.Next()});
    if (!out.ok()) {
      res->error = "warm-up lookup: " + out.status().ToString();
      break;
    }
  }
  ready->count_down();
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  if (!res->error.empty()) return;

  const rpc::RpcStats start = client.transport().rpc_stats();
  const Clock::time_point window_start = *go_time;
  auto at_s = [&] { return MsSince(window_start) / 1000.0; };
  UniformRangeGenerator gen(0, kDomainHi,
                            Mix(o.seed ^ (0xa0 + t) ^ (stream << 16)));
  const size_t ops =
      std::min(cache_on_miss ? kQueryOpsPerClient : kLookupOpsPerClient,
               traced ? kTracedOpsPerClient : SIZE_MAX);
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t op = op_base + i;
    const PartitionKey key{"T", "a", gen.Next()};
    ++res->ops;
    const Tracer::Scope op_scope(traced ? &res->tracer : nullptr, op, "op", 0);
    const uint32_t op_span = op_scope.id();
    if (traced) ReplayLookupLayers(client, raw, key, op, op_span, res);

    // Lookup.
    const rpc::RpcStats before = client.transport().rpc_stats();
    uint32_t s = traced ? res->tracer.Begin(op, "protocol.lookup", op_span) : 0;
    const auto t0 = Clock::now();
    auto out = client.Lookup(key);
    const double lookup_ms = MsSince(t0);
    if (traced) res->tracer.End(s);
    if (!out.ok()) {
      ++res->failed;
      continue;
    }
    const rpc::RpcStats after = client.transport().rpc_stats();
    res->lookup_requests += after.requests_sent - before.requests_sent;
    res->lookup_bytes += RpcBytes(after) - RpcBytes(before);
    ++res->lookups;
    res->batched_probes += static_cast<uint64_t>(out->batched_probes);
    res->probes += out->identifiers.size();
    res->retries += static_cast<uint64_t>(out->failovers + out->redirects);
    if (out->probes_failed > 0) ++res->failed;

    const MatchCandidate* best = out->ranked.empty() ? nullptr : &out->ranked[0];
    if (best != nullptr) {
      const Range& m = best->descriptor.key.range;
      if (best->similarity != key.range.Jaccard(m) ||
          best->exact != (m == key.range)) {
        res->failures.push_back("match " + m.ToString() + " for " +
                                key.range.ToString() +
                                " scored unlike hash/range");
      }
      res->recall_sum += key.range.RecallFrom(m);
    }
    if (!traced) res->lookup_ms.Add(at_s(), lookup_ms);

    // Fetch the best match from its holder: the query's second step on
    // live_cache_on_miss; on read-only live_lookup only in traced
    // rounds, after the timed lookup, to time the fetch and wire layers.
    double fetch_ms = 0.0;
    if (best != nullptr && (cache_on_miss || traced)) {
      s = traced ? res->tracer.Begin(op, "rpc.fetch", op_span) : 0;
      const auto f0 = Clock::now();
      auto rel = client.FetchPartition(best->descriptor.key,
                                       best->descriptor.holder);
      fetch_ms = MsSince(f0);
      if (traced) res->tracer.End(s);
      if (!rel.ok()) {
        ++res->failed;
        continue;
      }
      const std::string bad = CheckPartition(*rel, best->descriptor.key.range);
      if (!bad.empty()) res->failures.push_back(bad);
      // The fetch is part of the op, and its frames are, only on
      // live_cache_on_miss.
      if (traced) {
        ReplayFetchLayers(best->descriptor.key, *rel, cache_on_miss, op,
                          op_span, res);
      }
    }
    if (!cache_on_miss) continue;
    if (!traced) res->query_ms.Add(at_s(), lookup_ms + fetch_ms);

    // Cache on miss: materialize the query's partition and publish it.
    if (best == nullptr || !best->exact) {
      const Relation tuples = PartitionTuples(key.range);
      const NetAddress holder = members[(t + i) % members.size()];
      const rpc::RpcStats pb = client.transport().rpc_stats();
      s = traced ? res->tracer.Begin(op, "protocol.publish", op_span) : 0;
      const auto p0 = Clock::now();
      Status st = client.StorePartition(key, tuples, holder);
      if (st.ok()) st = client.Publish(key, holder);
      const double publish_ms = MsSince(p0);
      if (traced) res->tracer.End(s);
      if (!st.ok()) {
        ++res->failed;
        continue;
      }
      const rpc::RpcStats pa = client.transport().rpc_stats();
      res->publish_requests += pa.requests_sent - pb.requests_sent;
      ++res->publishes;
      if (!traced) res->publish_ms.Add(at_s(), publish_ms);
    }
  }
  const rpc::RpcStats end = client.transport().rpc_stats();
  res->retries += (end.retransmits - start.retransmits) +
                  (end.timeouts - start.timeouts);
}

/// Accumulated over the untraced rounds (the traced rounds' replays
/// would inflate every counter).
struct Totals {
  Samples setup_s;
  Timeline lookup_ms, query_ms, publish_ms;  ///< on the timed clock
  Samples ring_hwm_mb;
  double window_s = 0.0, traced_window_s = 0.0;
  uint64_t ops = 0, traced_ops = 0;
  double recall_sum = 0.0;
  double first_round_recall = -1.0;
  uint64_t retries = 0, lookup_requests = 0, lookup_bytes = 0, lookups = 0;
  uint64_t publish_requests = 0, publishes = 0;
  uint64_t batched_probes = 0, probes = 0;
  uint64_t wchar = 0, syscw = 0, descriptors = 0;
  /// Durable writes of the one-by-one corpus publishes.
  uint64_t corpus_wchar = 0, corpus_syscw = 0, corpus_descriptors = 0;
  uint64_t corpus_requests = 0, corpus_publishes = 0;
  uint64_t probes_served = 0, probe_hits = 0;
  uint64_t wal_bytes = 0, store_descriptors = 0;
  uint64_t exec_shed = 0, exec_max_queue = 0;
  double daemon_cpu_ms = 0.0, client_cpu_ms = 0.0;
  uint64_t frame_bytes = 0;
  std::vector<std::unique_ptr<ClientResult>> traced_clients;
};

DaemonSnapshot Snapshot(rpc::RingClient& control, const Ring& ring, size_t i,
                        std::string* error) {
  DaemonSnapshot s;
  auto metrics = control.NodeMetrics(ring.members[i]);
  if (!metrics.ok()) {
    *error = "kMetrics from " + ring.members[i].ToString() + ": " +
             metrics.status().ToString();
  } else {
    s.metrics = *metrics;
  }
  s.io = ReadProcIo(ring.daemons[i]->pid());
  s.cpu_ms = ReadProcCpuMs(ring.daemons[i]->pid());
  s.exec_shed = ExecutorField(ReadFileText(ring.metrics_paths[i]), "shed");
  return s;
}

/// One round: boot, corpus, warm-up, timed window, teardown. Returns
/// an error for a failed set-up (no result can be printed then).
std::string RunRound(const Options& o, bool cache_on_miss, int round,
                     bool traced, uint64_t* op_base, Totals* tot,
                     Report* report) {
  const std::string dir = o.work_dir + "/round" + std::to_string(round);
  const auto setup_start = Clock::now();
  Ring ring;
  std::string error = BootRing(o, dir, &ring);
  if (!error.empty()) return error;

  auto control = rpc::RingClient::Make(ring.members, ClientOptions());
  if (!control.ok()) return control.status().ToString();

  // Seeded corpus. The first kPublishedCorpus partitions go through the
  // calls a cache-on-miss query makes: StorePartition + Publish, one
  // durable flush per descriptor copy. The rest are materialized the
  // same way, but their descriptors are bulk-loaded at the replicas
  // Publish would pick, one kHandoff batch (one flush) per member: a
  // flush replaces three files, which on ext4 with discard is disk I/O,
  // and a set-up made mostly of it would time the host disk rather than
  // the ring. Any failed store fails the run.
  const uint64_t stream = cache_on_miss ? static_cast<uint64_t>(round) : 0;
  UniformRangeGenerator corpus(0, kDomainHi, Mix(o.seed ^ 0x72 ^ (stream << 16)));
  rpc::RingClient& ctl = **control;
  std::vector<DaemonSnapshot> pre_corpus;
  for (size_t i = 0; i < kRingSize; ++i) {
    pre_corpus.push_back(Snapshot(ctl, ring, i, &error));
  }
  const rpc::RpcStats corpus_rpc = ctl.transport().rpc_stats();
  std::map<NetAddress, rpc::HandoffBatch> bulk;
  for (size_t i = 0; i < kCorpus; ++i) {
    const PartitionKey key{"T", "a", corpus.Next()};
    const NetAddress& holder = ring.members[i % kRingSize];
    Status st = ctl.StorePartition(key, PartitionTuples(key.range), holder);
    if (st.ok() && i < kPublishedCorpus) st = ctl.Publish(key, holder);
    if (!st.ok()) return "corpus store of " + key.ToString() + ": " + st.ToString();
    if (i + 1 == kPublishedCorpus && !traced) {
      tot->corpus_requests +=
          ctl.transport().rpc_stats().requests_sent - corpus_rpc.requests_sent;
      tot->corpus_publishes += kPublishedCorpus;
      for (size_t d = 0; d < kRingSize; ++d) {
        const DaemonSnapshot after = Snapshot(ctl, ring, d, &error);
        tot->corpus_wchar += after.io.wchar - pre_corpus[d].io.wchar;
        tot->corpus_syscw += after.io.syscw - pre_corpus[d].io.syscw;
        tot->corpus_descriptors +=
            JsonUint(after.metrics, "descriptors_stored") -
            JsonUint(pre_corpus[d].metrics, "descriptors_stored");
      }
    }
    if (i < kPublishedCorpus) continue;
    for (const uint32_t id : ctl.lsh().Identifiers(key.range)) {
      for (const NetAddress& replica : ctl.view().Replicas(id, kReplication)) {
        bulk[replica].entries.emplace_back(id, PartitionDescriptor{key, holder});
      }
    }
  }
  for (const auto& [member, batch] : bulk) {
    auto loaded = ctl.transport().Call(NetAddress{}, member, rpc::MsgType::kHandoff,
                                       rpc::EncodeHandoffBatch(batch));
    if (!loaded.ok()) {
      return "corpus bulk load at " + member.ToString() + ": " +
             loaded.status().ToString();
    }
  }

  std::latch ready(static_cast<std::ptrdiff_t>(kClients));
  std::atomic<bool> go{false};
  Clock::time_point go_time;
  const auto epoch = Clock::now();
  std::vector<std::unique_ptr<ClientResult>> results;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    results.push_back(std::make_unique<ClientResult>(epoch));
    threads.emplace_back(RunClient, std::cref(o), cache_on_miss, traced,
                         stream, t,
                         std::cref(ring.members), &ready, &go, &go_time,
                         *op_base + t * 1000000, results.back().get());
  }
  ready.wait();
  const double setup_s = MsSince(setup_start) / 1000.0;

  std::vector<DaemonSnapshot> before;
  for (size_t i = 0; i < kRingSize; ++i) {
    before.push_back(Snapshot(**control, ring, i, &error));
  }
  const double client_cpu0 = SelfCpuMs();
  go_time = Clock::now();
  const auto window_start = go_time;
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const double window_s = MsSince(window_start) / 1000.0;
  const double client_cpu_ms = SelfCpuMs() - client_cpu0;
  *op_base += kClients * 1000000;

  std::vector<DaemonSnapshot> after;
  double hwm_mb = 0.0;
  for (size_t i = 0; i < kRingSize; ++i) {
    after.push_back(Snapshot(**control, ring, i, &error));
    hwm_mb += static_cast<double>(ReadVmHwmKb(ring.daemons[i]->pid())) / 1024.0;
  }
  const auto teardown_start = Clock::now();
  for (size_t i = 0; i < kRingSize; ++i) {
    const int code = ring.daemons[i]->Terminate();
    if (code != 0) {
      report->Fail("daemon " + ring.members[i].ToString() + " exited " +
                   std::to_string(code) + " on SIGTERM");
    }
  }
  std::fprintf(stderr,
               "round %d%s: setup %.2f s, window %.2f s, teardown %.2f s\n",
               round, traced ? " (traced)" : "", setup_s, window_s,
               MsSince(teardown_start) / 1000.0);
  for (const auto& r : results) {
    if (!r->error.empty()) return "client: " + r->error;
  }
  if (!error.empty()) return error;

  uint64_t round_ops = 0;
  double round_recall = 0.0;
  for (const auto& r : results) {
    report->attempted += r->ops;
    report->failed += r->failed;
    for (const std::string& f : r->failures) report->Fail(f);
    round_ops += r->ops;
    round_recall += r->recall_sum;
  }
  round_recall /= static_cast<double>(round_ops);
  if (!cache_on_miss && !traced) {
    if (tot->first_round_recall < 0.0) {
      tot->first_round_recall = round_recall;
    } else if (std::abs(round_recall - tot->first_round_recall) >
               kLiveRecallTolerance) {
      report->Fail("live_lookup recall " + std::to_string(round_recall) +
                   " differs from the first round's " +
                   std::to_string(tot->first_round_recall) + " by more than " +
                   std::to_string(kLiveRecallTolerance));
    }
  }

  if (traced) {
    tot->traced_window_s += window_s;
    tot->traced_ops += round_ops;
    for (auto& r : results) {
      tot->frame_bytes += r->frame_bytes;
      tot->traced_clients.push_back(std::move(r));
    }
  } else {
    tot->setup_s.Add(setup_s);
    tot->ring_hwm_mb.Add(hwm_mb);
    for (const auto& r : results) {
      tot->lookup_ms.Append(r->lookup_ms, tot->window_s);
      tot->query_ms.Append(r->query_ms, tot->window_s);
      tot->publish_ms.Append(r->publish_ms, tot->window_s);
    }
    tot->window_s += window_s;
    tot->ops += round_ops;
    tot->client_cpu_ms += client_cpu_ms;
    for (const auto& r : results) {
      tot->recall_sum += r->recall_sum;
      tot->retries += r->retries;
      tot->lookup_requests += r->lookup_requests;
      tot->lookup_bytes += r->lookup_bytes;
      tot->lookups += r->lookups;
      tot->publish_requests += r->publish_requests;
      tot->publishes += r->publishes;
      tot->batched_probes += r->batched_probes;
      tot->probes += r->probes;
    }
    for (size_t i = 0; i < kRingSize; ++i) {
      const DaemonSnapshot& b = before[i];
      const DaemonSnapshot& a = after[i];
      tot->wchar += a.io.wchar - b.io.wchar;
      tot->syscw += a.io.syscw - b.io.syscw;
      tot->descriptors += JsonUint(a.metrics, "descriptors_stored") -
                          JsonUint(b.metrics, "descriptors_stored");
      tot->probes_served += JsonUint(a.metrics, "probes_served") -
                            JsonUint(b.metrics, "probes_served");
      tot->probe_hits +=
          JsonUint(a.metrics, "probe_hits") - JsonUint(b.metrics, "probe_hits");
      tot->wal_bytes += JsonUint(a.metrics, "wal_bytes");
      tot->store_descriptors += JsonUint(a.metrics, "store_descriptors");
      tot->daemon_cpu_ms += a.cpu_ms - b.cpu_ms;
      // The metrics file is final once the daemon has exited.
      const std::string final_metrics = ReadFileText(ring.metrics_paths[i]);
      tot->exec_shed += ExecutorField(final_metrics, "shed") - b.exec_shed;
      tot->exec_max_queue = std::max(tot->exec_max_queue,
                                     ExecutorField(final_metrics, "max_queue"));
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return "";
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void RunLive(const Options& o, bool cache_on_miss, Report* report) {
  if (o.node_bin.empty() || !fs::exists(o.node_bin)) {
    std::fprintf(stderr, "p2prange_node binary not found: '%s'\n",
                 o.node_bin.c_str());
    std::exit(1);
  }
  int rounds = std::max(kMinRounds,
                        static_cast<int>(std::ceil(o.seconds / kRoundS)));
  if (o.trace && rounds % 2 == 1) ++rounds;
  Totals tot;
  uint64_t op_base = 0;
  for (int round = 0; round < rounds; ++round) {
    const bool traced = o.trace && round % 2 == 1;
    const std::string error =
        RunRound(o, cache_on_miss, round, traced, &op_base, &tot, report);
    if (!error.empty()) {
      std::fprintf(stderr, "live round %d set-up failed: %s\n", round,
                   error.c_str());
      std::exit(1);
    }
  }

  const double ops = static_cast<double>(tot.ops);
  const Timeline::Summary lookup_tl =
      tot.lookup_ms.Summarize(kWindowS, tot.window_s);
  report->Info("flush policy: each stored descriptor rewrites wal.bin and "
               "both snapshot slots by write + rename, without fsync "
               "(unchanged)");
  report->Add("setup_s", tot.setup_s.Median(), "s", tot.setup_s.size(),
              "boot + convergence + corpus load + warm-up, median over rounds");
  report->Add("lookups_per_s", lookup_tl.rate_per_s, "1/s", tot.ops,
              std::string(cache_on_miss ? "full queries" : "lookups") +
                  " per second, 2 closed-loop clients, median over " +
                  std::to_string(lookup_tl.windows) + " windows");
  report->AddTimeline("lookup", lookup_tl, "RingClient::Lookup");
  if (cache_on_miss) {
    report->AddTimeline("query", tot.query_ms.Summarize(kWindowS, tot.window_s),
                        "Lookup + FetchPartition of the best match");
    report->AddTimeline("publish",
                        tot.publish_ms.Summarize(kWindowS, tot.window_s),
                        "StorePartition + Publish on a non-exact answer");
  } else {
    report->AddTimeline("query", lookup_tl, "read-only query = the lookup");
    report->AddTimeline("publish", lookup_tl,
                        "read-only: no publish in the timed window, so the "
                        "op (the lookup)");
  }
  report->Add("mean_recall", tot.recall_sum / ops, "ratio", tot.ops,
              "recall of the best match, recomputed with hash/range");
  report->Add("error_rate", Ratio(static_cast<double>(report->failed),
                                  static_cast<double>(report->attempted)),
              "ratio", report->attempted, "failed or degraded ops / attempted");
  report->Add("peak_rss_mb", tot.ring_hwm_mb.Median(), "MB",
              tot.ring_hwm_mb.size(), "sum of daemon VmHWM, median over rounds");

  const double lookups = static_cast<double>(tot.lookups);
  // Durable writes per stored descriptor, over the phase that stores
  // them: the timed window of live_cache_on_miss; the set-up corpus
  // publish of read-only live_lookup, whose timed window stores none
  // (its daemon.write_bytes_per_op shows what the window does write).
  const uint64_t wchar = cache_on_miss ? tot.wchar : tot.corpus_wchar;
  const uint64_t syscw = cache_on_miss ? tot.syscw : tot.corpus_syscw;
  const uint64_t stored = cache_on_miss ? tot.descriptors : tot.corpus_descriptors;
  const std::string phase =
      cache_on_miss ? "timed window" : "corpus partitions published at set-up";
  report->Add("store.write_bytes_per_descriptor",
              Ratio(static_cast<double>(wchar), static_cast<double>(stored)),
              "bytes", stored, "daemon wchar / descriptors stored, " + phase);
  report->Add("store.write_syscalls_per_descriptor",
              Ratio(static_cast<double>(syscw), static_cast<double>(stored)),
              "count", stored, "daemon syscw / descriptors stored, " + phase);
  if (!cache_on_miss && tot.descriptors != 0) {
    report->Fail("live_lookup stored " + std::to_string(tot.descriptors) +
                 " descriptors in its read-only timed window");
  }
  report->Add("daemon.write_bytes_per_op", static_cast<double>(tot.wchar) / ops,
              "bytes", tot.ops,
              "all daemon write(2) bytes: store files, metrics file, "
              "executor doorbell");
  report->Add("store.wal_bytes_per_descriptor",
              Ratio(static_cast<double>(tot.wal_bytes),
                    static_cast<double>(tot.store_descriptors)),
              "bytes", tot.store_descriptors);
  report->Add("store.probe_hit_ratio",
              Ratio(static_cast<double>(tot.probe_hits),
                    static_cast<double>(tot.probes_served)),
              "ratio", tot.probes_served);
  report->Add("rpc.requests_per_lookup",
              static_cast<double>(tot.lookup_requests) / lookups, "count",
              tot.lookups);
  report->Add("rpc.bytes_per_lookup",
              static_cast<double>(tot.lookup_bytes) / lookups, "bytes",
              tot.lookups);
  const uint64_t publish_requests =
      cache_on_miss ? tot.publish_requests : tot.corpus_requests;
  const uint64_t publishes = cache_on_miss ? tot.publishes : tot.corpus_publishes;
  report->Add("rpc.requests_per_publish",
              Ratio(static_cast<double>(publish_requests),
                    static_cast<double>(publishes)),
              "count", publishes, "StorePartition + Publish, " + phase);
  report->Add("rpc.batched_probe_ratio",
              Ratio(static_cast<double>(tot.batched_probes),
                    static_cast<double>(tot.probes)),
              "ratio", tot.probes);
  report->Add("rpc.retries_per_kop", 1000.0 * static_cast<double>(tot.retries) / ops,
              "count", tot.ops);
  report->Add("rpc.executor_max_queue", static_cast<double>(tot.exec_max_queue),
              "count", kRingSize, "high-water mark over the daemons' life");
  report->Add("rpc.executor_shed", static_cast<double>(tot.exec_shed), "count",
              kRingSize);
  report->Add("rpc.daemon_cpu_ms_per_op", tot.daemon_cpu_ms / ops, "ms", tot.ops);
  report->Add("bench.client_cpu_ms_per_op", tot.client_cpu_ms / ops, "ms",
              tot.ops);

  if (!o.trace) return;
  Samples hash, ping, probe, frame, fetch, enc, dec, lookup;
  std::vector<const Tracer*> tracers;
  for (const auto& c : tot.traced_clients) {
    hash.Append(c->tracer.PerOpUs("hash.identifiers"));
    ping.Append(c->tracer.PerOpUs("rpc.ping"));
    probe.Append(c->tracer.PerOpUs("rpc.probe"));
    frame.Append(c->tracer.PerOpUs("rpc.frame"));
    fetch.Append(c->tracer.PerOpUs("rpc.fetch"));
    enc.Append(c->tracer.PerOpUs("wire.partition_encode"));
    dec.Append(c->tracer.PerOpUs("wire.partition_decode"));
    lookup.Append(c->tracer.PerOpUs("protocol.lookup"));
    tracers.push_back(&c->tracer);
  }
  report->Add("hash.identifiers_us", hash.Median(), "us", hash.size());
  report->Add("rpc.ping_rtt_us", ping.Median(), "us", ping.size());
  report->Add("rpc.probe_rtt_us", probe.Median(), "us", probe.size(),
              "the op's probe frame to the owner of its first identifier");
  report->Add("rpc.frame_us", frame.Median(), "us", frame.size(),
              "AppendFrame + FrameParser::Next over the op's payloads");
  report->Add("rpc.frame_mb_per_s",
              Ratio(static_cast<double>(tot.frame_bytes), frame.Sum()), "MB/s",
              frame.size());
  report->Add("rpc.fetch_us", fetch.Median(), "us", fetch.size(),
              "FetchPartition of the best match");
  report->Add("wire.partition_encode_us", enc.Median(), "us", enc.size());
  report->Add("wire.partition_decode_us", dec.Median(), "us", dec.size());
  report->Add("trace.unattributed_share",
              1.0 - (hash.Median() + probe.Median()) / lookup.Median(), "ratio",
              lookup.size(), "1 - (hash + probe rtt) p50 / traced lookup p50");
  report->Add("trace.overhead",
              (static_cast<double>(tot.traced_ops) / tot.traced_window_s) /
                  (ops / tot.window_s),
              "ratio", tot.traced_ops, "traced / untraced lookups_per_s");
  if (!WriteSpans(o.work_dir + "/spans.jsonl", tracers)) {
    report->Fail("cannot write spans to " + o.work_dir);
  }
}

}  // namespace perfbench
