// Fork/exec harness for live rings on loopback: starts p2prange_node
// daemons (and the chaos proxy) as child processes, reaps them by
// RAII, and polls a RingClient until the ring is up.
//
// The live benches and the live integration tests share it. It does
// not depend on gtest: checks return bool, and each caller turns them
// into CHECKs or AssertionResults. Daemon flags and timeouts stay with
// the caller.
#ifndef P2PRANGE_TOOLS_LIVE_PROCESS_H_
#define P2PRANGE_TOOLS_LIVE_PROCESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/address.h"
#include "rpc/ring_client.h"

namespace p2prange {
namespace live {

/// `host`:`port`, host in host byte order (0x7F000001 is 127.0.0.1).
NetAddress HostAddr(uint32_t host, uint16_t port);

/// 127.0.0.1:`port`.
NetAddress Loopback(uint16_t port);

/// build/tools/`name` of the build tree the running binary sits in
/// (build/tests/... and build/bench/... both map there); empty if
/// that file does not exist.
std::string ToolBinary(const char* name);

/// Reserves an ephemeral port on `host`: binds port 0, records the
/// port, closes. The child re-binds it moments later (SO_REUSEADDR on
/// both sides). Returns a zero address if nothing could be bound.
NetAddress ReservePort(const NetAddress& host = Loopback(0));

/// A fresh directory `prefix` + six random characters; empty on
/// failure.
std::string MakeScratchDir(const std::string& prefix);

/// \brief One forked child process. The destructor SIGKILLs and reaps
/// it, so a failing caller never leaks a process.
class ChildProcess {
 public:
  /// Forks and execs `binary` with `args` (argv[0] is `binary`).
  ChildProcess(const std::string& binary, std::vector<std::string> args);
  ~ChildProcess() { Kill(); }

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Sends `signo`: SIGSTOP/SIGCONT freeze and thaw a daemon, SIGHUP
  /// makes the chaos proxy reload its plan.
  void Signal(int signo) const;

  /// SIGKILL and reap; a no-op once the child is gone.
  void Kill();

  /// SIGTERM and reap: true iff the child exited 0 within `timeout`.
  /// A child still running after `timeout` is SIGKILLed.
  bool Terminate(std::chrono::milliseconds timeout = std::chrono::seconds(10));

 private:
  pid_t pid_ = -1;
};

/// \brief A p2prange_node daemon. It keeps its listen address and WAL
/// directory, so a restart can reuse both.
class NodeProcess : public ChildProcess {
 public:
  /// Runs `binary --listen=<listen> --wal_dir=<wal_dir> <flags...>`.
  NodeProcess(const std::string& binary, const NetAddress& listen,
              const std::string& wal_dir, std::vector<std::string> flags);

  const NetAddress& address() const { return address_; }
  const std::string& wal_dir() const { return wal_dir_; }

 private:
  NetAddress address_;
  std::string wal_dir_;
};

/// Pings `member` every 50 ms until it answers; false once `timeout`
/// worth of attempts failed.
bool AwaitPing(rpc::RingClient& client, const NetAddress& member,
               std::chrono::milliseconds timeout = std::chrono::seconds(10));

/// Refreshes the client's view every 50 ms until a refresh succeeds
/// with exactly `expected` members; false once `timeout` worth of
/// attempts failed.
bool AwaitViewSize(rpc::RingClient& client, size_t expected,
                   std::chrono::milliseconds timeout);

/// Writes `content` to `path` through a rename, so a reader (the chaos
/// proxy reloading its plan) never sees half a file.
bool WriteFileAtomic(const std::string& path, const std::string& content);

/// Sums every `"key":<integer>` in a flat JSON metrics file; 0 if the
/// file does not exist.
uint64_t SumJsonCounter(const std::string& path, const std::string& key);

/// "host:port,host:port": the address-list form the proxy flags take.
std::string JoinAddresses(const std::vector<NetAddress>& addrs);

}  // namespace live
}  // namespace p2prange

#endif  // P2PRANGE_TOOLS_LIVE_PROCESS_H_
