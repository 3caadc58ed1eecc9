// Host fingerprint recorded with every result, so numbers from different
// builds and machines can be put side by side.  Recorded only, never
// compared.
#pragma once

#include <string>

namespace locobench {

struct HostFingerprint {
  unsigned nproc = 0;
  std::string kernel;
  std::string compiler;
  std::string build_type;
  // p50 round trip of a 64-byte ping-pong over loopback TCP between two of
  // this process's own sockets: the floor any RPC pays.
  double loopback_rtt_p50_us = 0;
  // Median of (actual - requested) for sleep_for(60 us): the timer slack a
  // sleep-based device model would have added.
  double sleep60_overshoot_us = 0;
};

HostFingerprint MeasureHost();

// {"nproc": ..., ...} on one line.
std::string FingerprintJson(const HostFingerprint& host);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace locobench
