#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Samples -----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return sorted[rank];
}

// --- Timeline ----------------------------------------------------------------

void Timeline::Append(const Timeline& other, double shift_s) {
  for (const Point& p : other.points_) points_.push_back({p.t_s + shift_s, p.value});
}

Timeline::Summary Timeline::Summarize(double window_s, double total_s) const {
  Summary out;
  out.n = points_.size();
  Samples pooled;
  for (const Point& p : points_) pooled.Add(p.value);
  const size_t windows = static_cast<size_t>(total_s / window_s);
  // With fewer than three whole windows everything pools.
  std::vector<Samples> per(windows >= 3 ? windows : 0);
  for (const Point& p : points_) {
    const size_t w = static_cast<size_t>(p.t_s / window_s);
    if (p.t_s >= 0.0 && w < per.size()) per[w].Add(p.value);
  }
  Samples rate;
  for (const Samples& w : per) rate.Add(static_cast<double>(w.size()) / window_s);
  out.windows = per.empty() ? 1 : per.size();
  out.rate_per_s = per.empty() ? static_cast<double>(out.n) / total_s
                               : rate.Median();
  for (size_t k = 0; k < kQuantiles.size(); ++k) {
    const double q = kQuantiles[k];
    const bool windowed =
        !per.empty() && std::all_of(per.begin(), per.end(), [q](const Samples& w) {
          return w.HasTail(q);
        });
    Samples per_window;
    for (const Samples& w : per) per_window.Add(w.Quantile(q));
    out.value[k] = windowed ? per_window.Median() : pooled.Quantile(q);
    out.pooled[k] = !windowed;
    out.tail_ok[k] = windowed || pooled.HasTail(q);
  }
  return out;
}

// --- Report ------------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t n, const std::string& note) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, n, note});
}

namespace {

std::string TailNote(std::string note, bool tail_ok, const char* quantile) {
  if (!tail_ok) {
    note += std::string(note.empty() ? "" : "; ") +
            "fewer than 10 samples beyond " + quantile;
  }
  return note;
}

}  // namespace

void Report::AddTiming(const std::string& prefix, const Samples& s,
                       const std::string& note) {
  for (size_t k = 0; k < Timeline::kQuantiles.size(); ++k) {
    const char* q = Timeline::kQuantileNames[k];
    Add(prefix + "_" + q + "_ms", s.Quantile(Timeline::kQuantiles[k]), "ms",
        s.size(), TailNote(note, s.HasTail(Timeline::kQuantiles[k]), q));
  }
}

void Report::AddTimeline(const std::string& prefix, const Timeline::Summary& s,
                         const std::string& note) {
  const std::string sep = note.empty() ? "" : "; ";
  for (size_t k = 0; k < Timeline::kQuantiles.size(); ++k) {
    const char* q = Timeline::kQuantileNames[k];
    const std::string how =
        s.pooled[k] ? "pooled" : "median over " + std::to_string(s.windows) +
                                     " windows";
    Add(prefix + "_" + q + "_ms", s.value[k], "ms", s.n,
        TailNote(note + sep + how, s.tail_ok[k], q));
  }
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(
    const std::string& workload,
    const std::vector<std::pair<std::string, std::string>>& wanted) const {
  for (const std::string& line : info_) {
    std::printf("%s: %s\n", workload.c_str(), line.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%s: %-34s %14.6g %-6s n=%zu%s%s\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str(), m.n,
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("%s: FAILED CHECK: %s\n", workload.c_str(), f.c_str());
  }
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : metrics_) by_name.emplace(m.name, &m);
  bool complete = true;
  std::string out = "{\"correct\": ";
  std::string body;
  for (const auto& [name, unit] : wanted) {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second->unit != unit) {
      std::fprintf(stderr, "metric %s [%s] was not measured\n", name.c_str(),
                   unit.c_str());
      complete = false;
      continue;
    }
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " + Number(it->second->value) +
            ", \"unit\": \"" + it->second->unit + "\"}";
  }
  out += (correct() && complete) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Tracer ------------------------------------------------------------------

uint32_t Tracer::Begin(uint64_t op, const char* name, uint32_t parent) {
  Span s;
  s.op = op;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(s);
  return s.id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

Samples Tracer::PerOpUs(const char* name) const {
  std::map<uint64_t, double> per_op;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) per_op[s.op] += s.end_us - s.start_us;
  }
  Samples out;
  for (const auto& [op, us] : per_op) out.Add(us);
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Tracer::Span& s : tracers[t]->spans()) {
      out << "{\"thread\":" << t << ",\"op\":" << s.op << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << Number(s.start_us)
          << ",\"end_us\":" << Number(s.end_us) << "}\n";
    }
  }
  return static_cast<bool>(out);
}

// --- /proc and getrusage -------------------------------------------------------

namespace {

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t FieldAfter(const std::string& text, const std::string& label) {
  const size_t at = text.find(label);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + label.size(), nullptr, 10);
}

}  // namespace

ProcIo ReadProcIo(pid_t pid) {
  const std::string text = ReadText("/proc/" + std::to_string(pid) + "/io");
  return ProcIo{FieldAfter(text, "wchar:"), FieldAfter(text, "syscw:")};
}

double ReadProcCpuMs(pid_t pid) {
  const std::string text = ReadText("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14, stime field 15.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::strtoull(f.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(f.c_str(), nullptr, 10);
  }
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

uint64_t ReadVmHwmKb(pid_t pid) {
  return FieldAfter(ReadText("/proc/" + std::to_string(pid) + "/status"),
                    "VmHWM:");
}

double SelfCpuMs() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double SelfPeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t JsonUint(const std::string& json, const std::string& key,
                  size_t from) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace perfbench
