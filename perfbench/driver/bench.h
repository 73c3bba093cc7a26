// Shared plumbing of the repository benchmark: options, latency
// samples, the metric report, the span recorder, and readers of the
// resource counters the kernel keeps for a process.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string node_bin;  ///< p2prange_node, for the live workloads
  std::string work_dir;  ///< WAL dirs, metrics files and traces go here
};

/// SplitMix64 finalizer: derives independent streams from one seed.
uint64_t Mix(uint64_t x);

/// One latency (or size) distribution.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// True when at least ten samples lie beyond quantile q, the rule
  /// for printing a tail percentile.
  bool HasTail(double q) const {
    return (1.0 - q) * static_cast<double>(values_.size()) >= 10.0;
  }

 private:
  std::vector<double> values_;
};

/// Samples stamped with the timed clock: seconds since the run's first
/// timed operation, set-up excluded. Summaries are medians over fixed
/// windows of that clock. Other tenants of a shared host slow whole
/// seconds at a time; a median over windows stays put where a pooled
/// figure would move with the share of time such a burst covers.
class Timeline {
 public:
  void Add(double t_s, double value) { points_.push_back({t_s, value}); }
  /// Adds `other`'s samples, their clock shifted by `shift_s`.
  void Append(const Timeline& other, double shift_s);

  /// The latency quantiles every timing is reported at.
  static constexpr std::array<double, 3> kQuantiles = {0.5, 0.9, 0.99};
  static constexpr std::array<const char*, 3> kQuantileNames = {"p50", "p90",
                                                               "p99"};

  struct Summary {
    double rate_per_s = 0.0;  ///< median over windows of samples / s
    /// Per kQuantiles entry: the median over windows of the window's
    /// quantile when every window holds ten samples beyond it, else the
    /// quantile pooled over the run.
    std::array<double, 3> value{};
    std::array<bool, 3> pooled{};
    std::array<bool, 3> tail_ok{};  ///< ten samples beyond it in the data
    size_t windows = 0;
    size_t n = 0;
  };
  /// Windows of `window_s` over [0, total_s); a trailing partial window
  /// is dropped. With fewer than three whole windows everything pools.
  Summary Summarize(double window_s, double total_s) const;

 private:
  struct Point {
    double t_s;
    double value;
  };
  std::vector<Point> points_;
};

/// The metrics of one run, in print order, plus the run's verdict.
class Report {
 public:
  /// `n` is the sample count behind the value; `note` says how it was
  /// measured when the name alone does not.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t n, const std::string& note = "");
  /// `<prefix>_p50_ms`, `_p90_ms` and `_p99_ms` of the samples `s`.
  void AddTiming(const std::string& prefix, const Samples& s,
                 const std::string& note);
  /// The same quantiles from a timeline summary.
  void AddTimeline(const std::string& prefix, const Timeline::Summary& s,
                   const std::string& note);
  /// Records a failed correctness check (the run is then not correct).
  void Fail(const std::string& what);
  /// A line of context printed before the metrics (flush policy etc.).
  void Info(const std::string& line) { info_.push_back(line); }

  bool Has(const std::string& name) const;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return failures_.empty(); }

  /// Prints one human-readable line per metric, then, as the last
  /// line, the JSON result holding exactly the (name, unit) metrics of
  /// `wanted`; a missing metric or a unit mismatch makes it incorrect.
  void Print(const std::string& workload,
             const std::vector<std::pair<std::string, std::string>>& wanted)
      const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t n = 0;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> info_;
};

/// In-memory span recorder (one per thread). A span is a named
/// interval inside one operation; spans of an operation share its op
/// id and point at their parent. Written out as JSON lines at the end.
class Tracer {
 public:
  struct Span {
    uint64_t op = 0;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = the op span itself
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// A span open for one scope. A null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, uint64_t op, const char* name, uint32_t parent)
        : tracer_(tracer),
          id_(tracer == nullptr ? 0 : tracer->Begin(op, name, parent)) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer* tracer_;
    uint32_t id_;
  };

  /// Opens a span; returns its id for End() and as a parent.
  uint32_t Begin(uint64_t op, const char* name, uint32_t parent);
  void End(uint32_t id);

  /// Per operation, the summed duration (µs) of spans called `name`.
  Samples PerOpUs(const char* name) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Appends every tracer's spans to `path` as JSON lines.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// --- Resource counters read from outside the program ---------------------

struct ProcIo {
  uint64_t wchar = 0;  ///< bytes passed to write(2) and friends
  uint64_t syscw = 0;  ///< write syscalls
};
ProcIo ReadProcIo(pid_t pid);
/// utime + stime of `pid`, in ms.
double ReadProcCpuMs(pid_t pid);
/// Peak resident set (VmHWM) of `pid`, in kB.
uint64_t ReadVmHwmKb(pid_t pid);
/// user + system CPU of this process (all threads), in ms.
double SelfCpuMs();
/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// Integer field `key` of a flat JSON text, searched from `from`
/// (the first occurrence after it); 0 when absent.
uint64_t JsonUint(const std::string& json, const std::string& key,
                  size_t from = 0);

// --- Workloads -------------------------------------------------------------

void RunSimPaper(const Options& options, Report* report);
void RunEngineChurn(const Options& options, Report* report);
/// `cache_on_miss` selects live_cache_on_miss over live_lookup.
void RunLive(const Options& options, bool cache_on_miss, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
