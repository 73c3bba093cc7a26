#include "tools/live_process.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "rpc/tcp.h"

namespace p2prange {
namespace live {

namespace {

constexpr std::chrono::milliseconds kPollInterval{50};

std::vector<std::string> NodeArgs(const NetAddress& listen,
                                  const std::string& wal_dir,
                                  std::vector<std::string> flags) {
  flags.insert(flags.begin(),
               {"--listen=" + listen.ToString(), "--wal_dir=" + wal_dir});
  return flags;
}

}  // namespace

NetAddress HostAddr(uint32_t host, uint16_t port) {
  NetAddress a;
  a.host = host;
  a.port = port;
  return a;
}

NetAddress Loopback(uint16_t port) { return HostAddr(0x7F000001u, port); }

std::string ToolBinary(const char* name) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::filesystem::path candidate =
      std::filesystem::path(buf).parent_path().parent_path() / "tools" / name;
  return std::filesystem::exists(candidate) ? candidate.string() : "";
}

NetAddress ReservePort(const NetAddress& host) {
  auto sock = rpc::Listen(host);
  if (!sock.ok()) return NetAddress{};
  const NetAddress bound = sock->bound;
  ::close(sock->fd);
  return bound;
}

std::string MakeScratchDir(const std::string& prefix) {
  std::string path = prefix + "XXXXXX";
  return ::mkdtemp(path.data()) != nullptr ? path : std::string();
}

ChildProcess::ChildProcess(const std::string& binary,
                           std::vector<std::string> args) {
  args.insert(args.begin(), binary);
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed
  }
}

void ChildProcess::Signal(int signo) const {
  if (pid_ > 0) ::kill(pid_, signo);
}

void ChildProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool ChildProcess::Terminate(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  for (auto waited = std::chrono::milliseconds::zero(); waited < timeout;
       waited += kPollInterval) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  Kill();
  return false;
}

NodeProcess::NodeProcess(const std::string& binary, const NetAddress& listen,
                         const std::string& wal_dir,
                         std::vector<std::string> flags)
    : ChildProcess(binary, NodeArgs(listen, wal_dir, std::move(flags))),
      address_(listen),
      wal_dir_(wal_dir) {}

bool AwaitPing(rpc::RingClient& client, const NetAddress& member,
               std::chrono::milliseconds timeout) {
  for (auto waited = std::chrono::milliseconds::zero(); waited < timeout;
       waited += kPollInterval) {
    if (client.Ping(member).ok()) return true;
    std::this_thread::sleep_for(kPollInterval);
  }
  return false;
}

bool AwaitViewSize(rpc::RingClient& client, size_t expected,
                   std::chrono::milliseconds timeout) {
  for (auto waited = std::chrono::milliseconds::zero(); waited < timeout;
       waited += kPollInterval) {
    if (client.RefreshView().ok() && client.view().size() == expected) {
      return true;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  return false;
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << content;
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

uint64_t SumJsonCounter(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) return 0;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string needle = "\"" + key + "\":";
  uint64_t sum = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    sum += std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
  }
  return sum;
}

std::string JoinAddresses(const std::vector<NetAddress>& addrs) {
  std::string out;
  for (const NetAddress& a : addrs) {
    if (!out.empty()) out += ",";
    out += a.ToString();
  }
  return out;
}

}  // namespace live
}  // namespace p2prange
