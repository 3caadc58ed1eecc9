#include "host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#ifndef LOCOBENCH_BUILD_TYPE
#define LOCOBENCH_BUILD_TYPE "unknown"
#endif

namespace locobench {
namespace {

using Clock = std::chrono::steady_clock;

double MedianUs(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool FullIo(int fd, char* buf, std::size_t n, bool write) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = write ? ::send(fd, buf + done, n - done, MSG_NOSIGNAL)
                            : ::recv(fd, buf + done, n - done, 0);
    if (r <= 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

void NoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// 64-byte ping-pong between a client socket and an echo thread.
double LoopbackRttP50Us() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    return 0;
  }
  constexpr int kRounds = 2000;
  constexpr std::size_t kBytes = 64;
  std::thread echo([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    NoDelay(fd);
    char buf[kBytes];
    while (FullIo(fd, buf, kBytes, false) && FullIo(fd, buf, kBytes, true)) {
    }
    ::close(fd);
  });
  std::vector<double> rtts;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    NoDelay(fd);
    char buf[kBytes] = {};
    rtts.reserve(kRounds);
    for (int i = 0; i < kRounds; ++i) {
      const auto t0 = Clock::now();
      if (!FullIo(fd, buf, kBytes, true) || !FullIo(fd, buf, kBytes, false)) {
        break;
      }
      rtts.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  ::shutdown(listener, SHUT_RDWR);  // unblocks accept if connect failed
  echo.join();
  if (fd >= 0) ::close(fd);
  ::close(listener);
  // Drop the warm-up tenth.
  if (rtts.size() > 10) rtts.erase(rtts.begin(), rtts.begin() + rtts.size() / 10);
  return MedianUs(std::move(rtts));
}

double SleepOvershootUs() {
  std::vector<double> over;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::microseconds(60));
    over.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() -
        60.0);
  }
  return MedianUs(std::move(over));
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

HostFingerprint MeasureHost() {
  HostFingerprint h;
  h.nproc = std::thread::hardware_concurrency();
  utsname u{};
  if (::uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = LOCOBENCH_BUILD_TYPE;
  h.loopback_rtt_p50_us = LoopbackRttP50Us();
  h.sleep60_overshoot_us = SleepOvershootUs();
  return h;
}

std::string FingerprintJson(const HostFingerprint& h) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"kernel\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"loopback_rtt_p50_us\": %.3f, "
                "\"sleep60_overshoot_us\": %.3f}",
                h.nproc, Escape(h.kernel).c_str(), Escape(h.compiler).c_str(),
                Escape(h.build_type).c_str(), h.loopback_rtt_p50_us,
                h.sleep60_overshoot_us);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace locobench
